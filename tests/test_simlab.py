import json

import pytest

from pgcodes.prng import SplitMix64, substream
from pgcodes.simlab import (
    TrialConfig,
    TrialSummary,
    interleaved_burst_pattern,
    linearity_check,
    run_burst,
    run_interleaved,
    run_random,
)


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(5, "gaussian", 10)
    with pytest.raises(ValueError):
        TrialConfig(5, "random", -1)
    with pytest.raises(ValueError):
        TrialConfig(5, "random", 10, rounds=0)


def test_splitmix_reference_stream():
    # splitmix64(seed=0) reference outputs
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_splitmix_helpers():
    rng = SplitMix64(9)
    vals = rng.sample(100, 20)
    assert len(set(vals)) == 20
    assert all(0 <= v < 100 for v in vals)
    assert all(1 <= rng.nonzero_symbol(256) <= 255 for _ in range(100))
    with pytest.raises(ValueError):
        rng.below(0)
    with pytest.raises(ValueError):
        rng.sample(5, 6)


def test_substream_is_stable():
    a = substream(42, 7).next_u64()
    b = substream(42, 7).next_u64()
    c = substream(42, 8).next_u64()
    assert a == b != c


def test_reproducibility(spec5):
    cfg = TrialConfig(5, "random", 30, rounds=40, seed=7)
    a = run_random(cfg, spec5)
    b = run_random(cfg, spec5)
    assert a == b
    assert a.to_json() == b.to_json()


def test_zero_weight_trivial(spec5):
    s = run_random(TrialConfig(5, "random", 0, rounds=5, seed=1), spec5)
    assert s.failures_pct == 0.0
    assert s.avg_iterations == 1.0
    assert s.miscorrections == 0


def test_burst_below_per_vertex_capacity(spec5):
    s = run_burst(TrialConfig(5, "burst", 62, rounds=100, seed=5), spec5)
    assert s.failures_pct == 0.0
    assert s.avg_iterations == 1.0


def test_burst_weight_limit(spec5):
    with pytest.raises(ValueError):
        run_burst(TrialConfig(5, "burst", 1954, rounds=1, seed=1), spec5)


def test_model_mismatch_rejected(spec5):
    with pytest.raises(ValueError):
        run_burst(TrialConfig(5, "random", 10, rounds=1, seed=1), spec5)
    with pytest.raises(ValueError):
        run_random(TrialConfig(5, "burst", 10, rounds=1, seed=1), spec5)


def test_epsilon_mismatch_rejected(spec7):
    with pytest.raises(ValueError):
        run_random(TrialConfig(5, "random", 10, rounds=1, seed=1), spec7)


def test_interleaved_k1_matches_burst(spec5):
    cfg = TrialConfig(5, "burst", 80, rounds=30, seed=11)
    a = run_burst(cfg, spec5)
    b = run_interleaved(1, cfg, spec5)
    assert (a.failures_pct, a.avg_iterations, a.miscorrections) == (
        b.failures_pct,
        b.avg_iterations,
        b.miscorrections,
    )


@pytest.mark.parametrize("k", [0, -2])
def test_interleaved_rejects_k_below_one(spec5, k):
    with pytest.raises(ValueError, match="need k >= 1"):
        run_interleaved(k, TrialConfig(5, "burst", 0, rounds=1, seed=1), spec5)


def test_interleaved_burst_pattern_split():
    hits = interleaved_burst_pattern(4, 1953, start=10, weight=756)
    assert sorted(len(h) for h in hits) == [189, 189, 189, 189]
    for h in hits:
        assert h == list(range(h[0], h[0] + len(h)))
    hits = interleaved_burst_pattern(4, 1953, start=8, weight=760)
    assert sorted(len(h) for h in hits) == [190, 190, 190, 190]
    with pytest.raises(ValueError):
        interleaved_burst_pattern(4, 1953, start=4 * 1953 - 5, weight=10)


def test_interleaved_guaranteed_burst(spec7):
    # 756 = 4 * 3 * 63: every constituent sees at most 3 errors per vertex
    cfg = TrialConfig(7, "burst", 756, rounds=25, seed=13)
    s = run_interleaved(4, cfg, spec7)
    assert s.failures_pct == 0.0
    assert s.avg_iterations == 1.0


def test_json_lines_shape(spec5):
    s = run_random(TrialConfig(5, "random", 8, rounds=10, seed=3), spec5)
    payload = json.loads(s.to_json())
    assert list(payload) == [
        "epsilon",
        "model",
        "weight",
        "rounds",
        "seed",
        "failures_pct",
        "avg_iterations",
        "miscorrections",
    ]
    assert payload["failures_pct"] == 0.0
    assert TrialSummary.text_header().split()[0] == "epsilon"
    assert s.text_row().split()[0] == "5"


def test_weight8_always_succeeds(spec5):
    s = run_random(TrialConfig(5, "random", 8, rounds=100, seed=99), spec5)
    assert s.failures_pct == 0.0
    assert s.miscorrections == 0


def test_fifty_random_errors_resolve_in_one_iteration(spec5):
    s = run_random(TrialConfig(5, "random", 50, rounds=300, seed=1), spec5)
    assert s.failures_pct == 0.0
    assert s.avg_iterations <= 1.1


def test_linearity_check(spec5):
    assert linearity_check(spec5, weight=8, pairs=100, seed=2)
    assert linearity_check(spec5, weight=40, pairs=10, seed=3)
