"""Monte Carlo error-injection harness with reproducible seeded streams.

All experiments corrupt the zero codeword: the code is linear and the
channel treats symbols symmetrically, so decoder behavior on any codeword c
plus pattern e matches behavior on 0 plus e (tests/test_decoder_contract.py
checks this equivalence). Success is judged the way a receiver would, by
component syndromes; rounds where the decoder claims success but the output
is not the transmitted word are reported separately as miscorrections.

Each round draws from an independent splitmix64 substream derived from
(seed, round index), so results are bit-reproducible regardless of execution
order and rounds could be distributed across workers without changing them.
The rounds are drawn in order and their codewords decoded in lockstep, a
block of consecutive rounds per expcode.decode_words call; a word's report
does not depend on the other words of its block, so the summaries equal
those of decoding word by word.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from pgcodes.expcode import CodeSpec, decode_words
# Rounds are decoded by decode_words. iterative_decode is imported only because
# the benchmark's tracer (bench/run.py) wraps simlab.iterative_decode by name.
from pgcodes.expcode import iterative_decode  # noqa: F401
from pgcodes.prng import SplitMix64, substream

RANDOM_MODEL = "random"
BURST_MODEL = "burst"
# Codewords decoded in lockstep per decode_words call. At epsilon=7, w=250,
# round generation included (2 vCPUs, numpy 2.4), a word takes about 3.6 ms
# alone, 2.1 ms in blocks of 4, 1.48 ms in blocks of 16, 1.25 ms in blocks
# of 32 and 1.22 ms in blocks of 64; the block's peak memory grows by about
# 60 KB per word, so 32 keeps most of the gain at half the memory of 64.
_LOCKSTEP_WORDS = 32


@dataclass(frozen=True)
class TrialConfig:
    """One experiment: an error model, a corruption weight, and a seed."""

    epsilon: int
    error_model: str
    weight: int
    rounds: int = 1000
    seed: int = 1
    max_iterations: int = 4

    def __post_init__(self) -> None:
        if self.error_model not in (RANDOM_MODEL, BURST_MODEL):
            raise ValueError(f"unknown error model: {self.error_model!r}")
        if self.weight < 0:
            raise ValueError(f"weight must be >= 0, got {self.weight}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class TrialSummary:
    """Aggregate over all rounds of one experiment.

    avg_iterations is the mean iteration count over successful rounds only
    (None when every round failed).
    """

    epsilon: int
    model: str
    weight: int
    rounds: int
    seed: int
    failures_pct: float
    avg_iterations: float | None
    miscorrections: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def text_row(self) -> str:
        avg = "-" if self.avg_iterations is None else f"{self.avg_iterations:.2f}"
        return (
            f"{self.epsilon:>7} {self.model:>8} {self.weight:>6} {self.rounds:>6} "
            f"{self.failures_pct:>8.1f} {avg:>10} {self.miscorrections:>6}"
        )

    @staticmethod
    def text_header() -> str:
        return (
            f"{'epsilon':>7} {'model':>8} {'weight':>6} {'rounds':>6} "
            f"{'fail%':>8} {'avg_iters':>10} {'miscor':>6}"
        )


def _spec_for(cfg: TrialConfig, spec: CodeSpec | None, model: str) -> CodeSpec:
    if cfg.error_model != model:
        raise ValueError(f"this driver needs a {model}-model config, got {cfg.error_model!r}")
    if spec is None:
        return CodeSpec(cfg.epsilon)
    if spec.epsilon != cfg.epsilon:
        raise ValueError(
            f"spec has epsilon={spec.epsilon}, config wants {cfg.epsilon}"
        )
    return spec


def _summarize(cfg: TrialConfig, failures: int, iters: list[int], miscor: int) -> TrialSummary:
    avg = sum(iters) / len(iters) if iters else None
    return TrialSummary(
        epsilon=cfg.epsilon,
        model=cfg.error_model,
        weight=cfg.weight,
        rounds=cfg.rounds,
        seed=cfg.seed,
        failures_pct=100.0 * failures / cfg.rounds,
        avg_iterations=avg,
        miscorrections=miscor,
    )


def _run(
    cfg: TrialConfig,
    spec: CodeSpec,
    k: int,
    positions: Callable[[SplitMix64, int], Iterable[int]],
) -> TrialSummary:
    """The round loop shared by every error model.

    Each round corrupts the stream symbols that positions(rng, k * n) names,
    drawing one nonzero value per symbol in stream order after the positions,
    and de-interleaves the stream into k codewords. The codewords of
    consecutive rounds are decoded _LOCKSTEP_WORDS at a time by one
    decode_words call. A round fails iff any codeword fails; its iteration
    count is the largest over its codewords.
    """
    n = spec.n_symbols
    if cfg.weight > k * n:
        raise ValueError(f"weight exceeds the {k * n} symbols of the stream")
    failed = np.zeros(cfg.rounds, dtype=bool)
    worst = np.ones(cfg.rounds, dtype=np.int64)
    wrong = np.zeros(cfg.rounds, dtype=bool)
    words = _round_words(cfg, spec, k, positions)
    while block := list(itertools.islice(words, _LOCKSTEP_WORDS)):
        owners, batch = zip(*block)
        reports = decode_words(spec, np.stack(batch), max_iterations=cfg.max_iterations)
        for rnd, report in zip(owners, reports):
            if report.success:
                worst[rnd] = max(worst[rnd], report.iterations_used)
                wrong[rnd] |= bool(report.final_word.any())
            else:
                failed[rnd] = True
    ok = ~failed
    return _summarize(cfg, int(failed.sum()), worst[ok].tolist(), int(wrong[ok].sum()))


def _round_words(
    cfg: TrialConfig,
    spec: CodeSpec,
    k: int,
    positions: Callable[[SplitMix64, int], Iterable[int]],
) -> Iterator[tuple[int, np.ndarray]]:
    """(round, received codeword) pairs, in round order."""
    n = spec.n_symbols
    q = spec.field.q
    for rnd in range(cfg.rounds):
        rng = substream(cfg.seed, rnd)
        stream = np.zeros(k * n, dtype=np.uint8)
        hit = np.fromiter(positions(rng, k * n), dtype=np.intp)
        # One nonzero_symbol(q) per position, drawn in one call.
        stream[hit] = 1 + rng.below_each(np.full(hit.size, q - 1))
        # Stream symbol s belongs to codeword s % k at position s // k.
        for word in stream.reshape(n, k).T:
            yield rnd, word


def run_random(cfg: TrialConfig, spec: CodeSpec | None = None) -> TrialSummary:
    """Corrupt `weight` distinct uniformly chosen symbols per round."""
    spec = _spec_for(cfg, spec, RANDOM_MODEL)
    return _run(cfg, spec, 1, lambda rng, size: rng.sample(size, cfg.weight))


def run_burst(cfg: TrialConfig, spec: CodeSpec | None = None) -> TrialSummary:
    """Corrupt `weight` consecutive labels per round, uniform non-wrapping start."""
    return run_interleaved(1, cfg, spec)


def run_interleaved(k: int, cfg: TrialConfig, spec: CodeSpec | None = None) -> TrialSummary:
    """Burst over a stream of k symbol-interleaved codewords.

    The k codewords are decoded independently after de-interleaving; a round
    fails iff any constituent fails, and its iteration count is the largest
    constituent count. With k = 1 the stream is a single codeword.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    spec = _spec_for(cfg, spec, BURST_MODEL)

    def burst(rng: SplitMix64, size: int) -> range:
        start = rng.below(size - cfg.weight + 1)
        return range(start, start + cfg.weight)

    return _run(cfg, spec, k, burst)
