"""Monte Carlo error-injection harness with reproducible seeded streams.

All experiments corrupt the zero codeword: the code is linear and the
channel treats symbols symmetrically, so decoder behavior on any codeword c
plus pattern e matches behavior on 0 plus e (linearity_check samples exactly
this equivalence). Success is judged the way a receiver would, by component
syndromes; rounds where the decoder claims success but the output is not the
transmitted word are reported separately as miscorrections.

Each round draws from an independent splitmix64 substream derived from
(seed, round index), so results are bit-reproducible regardless of execution
order and rounds could be distributed across workers without changing them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np

from pgcodes.expcode import CodeSpec, encode, iterative_decode
from pgcodes.prng import SplitMix64, substream

RANDOM_MODEL = "random"
BURST_MODEL = "burst"


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
        return CodeSpec(cfg.epsilon, max_iterations=cfg.max_iterations)
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
    then decodes the k symbol-interleaved codewords independently. A round
    fails iff any codeword fails; its iteration count is the largest over
    its codewords.
    """
    n = spec.n_symbols
    if cfg.weight > k * n:
        raise ValueError(f"weight exceeds the {k * n} symbols of the stream")
    q = spec.field.q
    failures = 0
    miscor = 0
    iters: list[int] = []
    for rnd in range(cfg.rounds):
        rng = substream(cfg.seed, rnd)
        stream = np.zeros(k * n, dtype=np.uint8)
        for s in positions(rng, k * n):
            stream[s] = rng.nonzero_symbol(q)
        worst = 1
        wrong = False
        # Stream symbol s belongs to codeword s % k at position s // k.
        for word in stream.reshape(n, k).T:
            report = iterative_decode(spec, word, max_iterations=cfg.max_iterations)
            if not report.success:
                failures += 1
                break
            worst = max(worst, report.iterations_used)
            wrong = wrong or bool(report.final_word.any())
        else:
            iters.append(worst)
            miscor += wrong
    return _summarize(cfg, failures, iters, miscor)


def run_random(cfg: TrialConfig, spec: CodeSpec | None = None) -> TrialSummary:
    """Corrupt `weight` distinct uniformly chosen symbols per round."""
    spec = _spec_for(cfg, spec, RANDOM_MODEL)
    return _run(cfg, spec, 1, lambda rng, size: rng.sample(size, cfg.weight))


def run_burst(cfg: TrialConfig, spec: CodeSpec | None = None) -> TrialSummary:
    """Corrupt `weight` consecutive labels per round, uniform non-wrapping start."""
    return run_interleaved(1, cfg, spec)


def interleaved_burst_pattern(
    k: int, n: int, start: int, weight: int
) -> list[list[int]]:
    """Per-codeword 0-based symbol positions hit by a stream burst.

    Stream symbol s belongs to codeword s mod k at position s // k, so a
    burst of w consecutive stream symbols splits into k runs of consecutive
    positions whose lengths differ by at most one.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not 0 <= start <= k * n - weight:
        raise ValueError("burst does not fit the interleaved stream")
    out: list[list[int]] = [[] for _ in range(k)]
    for s in range(start, start + weight):
        out[s % k].append(s // k)
    return out


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


def linearity_check(
    spec: CodeSpec, weight: int = 8, pairs: int = 100, seed: int = 1
) -> bool:
    """Sample the zero-codeword testing equivalence.

    For random codewords c and patterns e, decoding c + e must succeed iff
    decoding e does, recover c iff the zero run recovers 0, and use the same
    number of iterations (component syndromes are translation-invariant, so
    the decoder is equivariant under adding a codeword).
    """
    n = spec.n_symbols
    q = spec.field.q
    k = spec.k_overall
    for trial in range(pairs):
        rng = substream(seed ^ 0x5EED, trial)
        msg = np.array([rng.below(q) for _ in range(k)], dtype=np.uint8)
        codeword = encode(spec, msg)
        pattern = np.zeros(n, dtype=np.uint8)
        for pos in rng.sample(n, weight):
            pattern[pos] = rng.nonzero_symbol(q)
        zero_run = iterative_decode(spec, pattern)
        code_run = iterative_decode(spec, codeword ^ pattern)
        if zero_run.success != code_run.success:
            return False
        if zero_run.iterations_used != code_run.iterations_used:
            return False
        zero_recovered = not zero_run.final_word.any()
        code_recovered = bool(np.array_equal(code_run.final_word, codeword))
        if zero_recovered != code_recovered:
            return False
    return True
