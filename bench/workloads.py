"""The benchmark's workloads: inputs made from the seed, one operation each, and its check.

mc-random-e7-w250 and mc-burst-e5-w135 call simlab.run_random and
simlab.run_burst for a few rounds per operation; roundtrip-e7-w32-x32
encodes a random message, adds errors and declared erasures, and decodes.
bench/README.md says why each was chosen and which layers it loads.

Operation i of a run draws its inputs from (seed, i) only, so a fixed seed
gives the same inputs whatever the run length.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from pgcodes import expcode, prng, simlab
from pgcodes.expcode import CodeSpec


@dataclass(frozen=True)
class Workload:
    """One workload and its sizes.

    words_per_op: rounds per simlab call (1 for a round trip).
    quality_ops: the first operations, the same for a given seed, over which
    decoded_pct and mean_iterations are taken; an untraced run does at
    least this many. trace_ops: operations timed with and without spans in
    a traced run. count_ops: operations run once more with galois call
    counters. setup_reps: set-ups timed per run (setup_s is their median).
    """

    name: str
    kind: str  # "random", "burst" or "roundtrip"
    epsilon: int
    weight: int
    erasures: int
    words_per_op: int
    quality_ops: int
    trace_ops: int
    count_ops: int
    setup_reps: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-random-e7-w250", "random", 7, 250, 0, 4, 100, 50, 2, 45),
        Workload("mc-burst-e5-w135", "burst", 5, 135, 0, 10, 150, 40, 1, 45),
        Workload("roundtrip-e7-w32-x32", "roundtrip", 7, 32, 32, 1, 100, 100, 4, 5),
    )
}


def build(w: Workload) -> CodeSpec:
    """Everything the workload needs before its first operation."""
    spec = expcode.CodeSpec(w.epsilon)
    spec.field.mul_table
    if w.kind == "roundtrip":
        spec.generator_matrix
    return spec


@dataclass
class OpResult:
    """What one operation returned, with its timings in seconds.

    ok is the check's verdict; output is dropped once it has been checked.
    ref_unit_s is the reference kernel's time per unit right after the
    operation (see reference.py), when the run measures it.
    """

    words: int
    decoded: int
    iteration_sum: int
    miscorrections: int
    op_s: float
    decode_s: float
    encode_s: float
    output: object
    ok: bool | None = None
    ref_unit_s: float = 0.0


def op_seed(seed: int, i: int) -> int:
    return prng.substream(seed, i).next_u64()


def run_op(w: Workload, spec: CodeSpec, seed: int, i: int) -> OpResult:
    """Operation i. Program functions are looked up at call time, so wrappers apply."""
    if w.kind == "roundtrip":
        return _roundtrip(w, spec, seed, i)
    cfg = simlab.TrialConfig(
        w.epsilon, w.kind, w.weight, rounds=w.words_per_op, seed=op_seed(seed, i)
    )
    run = simlab.run_random if w.kind == "random" else simlab.run_burst
    t0 = time.perf_counter()
    summary = run(cfg, spec)
    elapsed = time.perf_counter() - t0
    failures = round(summary.failures_pct * cfg.rounds / 100)
    decoded = cfg.rounds - failures
    iters = 0 if summary.avg_iterations is None else round(summary.avg_iterations * decoded)
    return OpResult(
        cfg.rounds, decoded, iters, summary.miscorrections, elapsed, elapsed, 0.0, summary
    )


def _roundtrip_inputs(w: Workload, spec: CodeSpec, seed: int, i: int):
    rng = prng.substream(op_seed(seed, i), 0)
    q = spec.field.q
    msg = np.array([rng.below(q) for _ in range(spec.k_overall)], dtype=np.uint8)
    pos = np.array(rng.sample(spec.n_symbols, w.weight + w.erasures), dtype=np.intp)
    err_vals = np.array([rng.nonzero_symbol(q) for _ in range(w.weight)], dtype=np.uint8)
    erased_vals = np.array([rng.below(q) for _ in range(w.erasures)], dtype=np.uint8)
    return msg, pos[: w.weight], err_vals, pos[w.weight :], erased_vals


def _roundtrip(w: Workload, spec: CodeSpec, seed: int, i: int) -> OpResult:
    msg, err_pos, err_vals, erased_pos, erased_vals = _roundtrip_inputs(w, spec, seed, i)
    t0 = time.perf_counter()
    sent = expcode.encode(spec, msg)
    t1 = time.perf_counter()
    received = sent.copy()
    received[err_pos] ^= err_vals
    received[erased_pos] = erased_vals
    labels = (erased_pos + 1).tolist()
    t2 = time.perf_counter()
    report = expcode.iterative_decode(spec, received, erasures=labels)
    t3 = time.perf_counter()
    wrong = int(report.success and not np.array_equal(report.final_word, sent))
    return OpResult(
        1,
        int(report.success),
        report.iterations_used if report.success else 0,
        wrong,
        (t1 - t0) + (t3 - t2),
        t3 - t2,
        t1 - t0,
        (sent, report),
    )


class Checker:
    """Independent checks of every operation's output.

    A round trip is correct when the encoder's output is a codeword and a
    decode reported successful returns exactly that codeword, rechecked with
    all_components_valid. A simlab call is correct when its summary equals
    one recomputed here round by round with iterative_decode, on the error
    patterns simlab's documented seeding gives, and every round reported
    successful ends in a word that all_components_valid accepts. The
    recomputation is kept per operation, so the passes of a traced run share
    it. Checks run with no instrument installed.
    """

    def __init__(self, w: Workload, spec: CodeSpec, seed: int):
        self.w, self.spec, self.seed = w, spec, seed
        self._expected: dict[int, tuple | None] = {}

    def ok(self, i: int, result: OpResult) -> bool:
        if self.w.kind == "roundtrip":
            sent, report = result.output
            if not expcode.all_components_valid(self.spec, sent):
                return False
            if report.success:
                return bool(
                    np.array_equal(report.final_word, sent)
                    and expcode.all_components_valid(self.spec, report.final_word)
                )
            return True
        if i not in self._expected:
            self._expected[i] = self._recompute(i)
        expected = self._expected[i]
        got = (result.words, result.decoded, result.iteration_sum, result.miscorrections)
        return expected is not None and got == expected

    def _recompute(self, i: int) -> tuple | None:
        w, spec = self.w, self.spec
        n, q, seed = spec.n_symbols, spec.field.q, op_seed(self.seed, i)
        decoded = iters = miscor = 0
        for rnd in range(w.words_per_op):
            rng = prng.substream(seed, rnd)
            word = np.zeros(n, dtype=np.uint8)
            if w.kind == "random":
                positions = rng.sample(n, w.weight)
            else:
                start = rng.below(n - w.weight + 1)
                positions = range(start, start + w.weight)
            for pos in positions:
                word[pos] = rng.nonzero_symbol(q)
            report = expcode.iterative_decode(spec, word)
            if report.success:
                if not expcode.all_components_valid(spec, report.final_word):
                    return None
                decoded += 1
                iters += report.iterations_used
                miscor += int(report.final_word.any())
        return (w.words_per_op, decoded, iters, miscor)
