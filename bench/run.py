#!/usr/bin/env python3
"""pgcodes benchmark: one workload, one seed, one process.

Run from the repository root:

    python3 bench/run.py --workload mc-random-e7-w250 --seed 1 --seconds 15 --trace 0

The program is imported from src/ of the checkout the script sits in, with
native thread pools pinned to one thread. --trace 0 times operations and
set-ups with nothing installed, each next to a slice of a reference kernel
that measures the machine's speed at that moment (bench/reference.py), and
prints the end-to-end metrics with times in units of that kernel's work.
--trace 1 times the same operations with and without spans around pgcodes'
layers and prints the per-layer metrics, writing the spans to bench/out/. Every operation's
output is checked (see workloads.Checker). The last line of standard output
is the result as one JSON object; the lines before it record the
environment and the distributions behind each figure. bench/README.md
lists the workloads and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# An operation's time is divided by the mean reference slice over the
# operations up to this many before and after it.
REF_NEIGHBOURS = 2
# setup_s is given in seconds at reference speed: its time in reference
# units times this, the unit's typical time on the machine of bench/README.md.
REF_UNIT_S = 1.4e-3
OUT_DIR = Path(__file__).resolve().parent / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def load_program() -> None:
    """Pin thread pools to one thread, then import pgcodes from this checkout's src/.

    Must run before anything imports numpy. Exits when the sources are
    missing, rather than falling back to an installed copy.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = (ROOT / "src").resolve()
    if not (src / "pgcodes" / "__init__.py").is_file():
        raise SystemExit(f"bench: no pgcodes sources under {src}")
    sys.path.insert(0, str(src))
    import pgcodes

    if Path(pgcodes.__file__).resolve().parent != src / "pgcodes":
        raise SystemExit(f"bench: imported pgcodes from {pgcodes.__file__}, not {src}")


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
    }


def describe(values: list[float]) -> dict:
    """Median and quartiles with the sample count; p90/p99 only with >= 10 samples beyond."""
    n = len(values)
    out: dict = {"n": n}
    if n == 0:
        return out
    out["median"] = statistics.median(values)
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    if n >= 100:
        cuts = statistics.quantiles(values, n=100)
        out["p90"] = cuts[89]
        if n >= 1000:
            out["p99"] = cuts[98]
    return out


# ----------------------------------------------------------------------
# running operations


def timed_setup(w):
    """Build the set-up; return it, its wall time and the reference unit time around it."""
    from reference import unit_s
    from workloads import build

    before = unit_s()
    t0 = time.perf_counter()
    spec = build(w)
    elapsed = time.perf_counter() - t0
    return spec, elapsed, (before + unit_s()) / 2


def run_pass(
    w,
    spec,
    seed: int,
    results: list,
    n_ops: int,
    seconds: float = 0.0,
    inst=None,
    checker=None,
    reference: bool = False,
) -> list:
    """Append operations len(results), ... until n_ops are done and seconds of them are timed.

    An operation that raises is kept as None and counts as failed. With
    reference, a slice of the reference kernel is timed right after each
    operation. With a checker, each operation is then checked, outside its
    timing, and its output dropped, so that stored outputs do not add to
    the peak memory of the run.
    """
    from reference import unit_s
    from workloads import run_op

    busy = 0.0
    while len(results) < n_ops or busy < seconds:
        i = len(results)
        if inst is not None:
            inst.current_op = i
        t0 = time.perf_counter()
        try:
            r = run_op(w, spec, seed, i)
        except Exception as exc:  # reported and counted, the run goes on
            print(f"bench: operation {i} raised {exc!r}", file=sys.stderr)
            busy += time.perf_counter() - t0
            results.append(None)
            continue
        busy += r.op_s
        if reference:
            r.ref_unit_s = unit_s()
        if checker is not None:
            check(checker, i, r)
        results.append(r)
    return results


def check(checker, i: int, r) -> None:
    try:
        r.ok = checker.ok(i, r)
    except Exception as exc:  # a check that cannot run is a failed operation
        print(f"bench: check of operation {i} raised {exc!r}", file=sys.stderr)
        r.ok = False
    r.output = None


def count_failed(results: list) -> int:
    return sum(r is None or not r.ok for r in results)


def words_per_s(results: list) -> float:
    done = [r for r in results if r is not None]
    return sum(r.words for r in done) / sum(r.op_s for r in done)


def local_unit_s(done: list) -> list[float]:
    """Per operation, the mean reference unit time over its REF_NEIGHBOURS neighbours each side."""
    prefix = [0.0]
    for r in done:
        prefix.append(prefix[-1] + r.ref_unit_s)
    out = []
    for i in range(len(done)):
        lo, hi = max(0, i - REF_NEIGHBOURS), min(len(done), i + REF_NEIGHBOURS + 1)
        out.append((prefix[hi] - prefix[lo]) / (hi - lo))
    return out


def quality(results: list) -> dict:
    """Decoder outcomes over a fixed set of operations (repeat exactly per seed)."""
    done = [r for r in results if r is not None]
    words = sum(r.words for r in done)
    decoded = sum(r.decoded for r in done)
    return {
        "words": words,
        "decoded_pct": 100.0 * decoded / words,
        "decoder_fail_pct": 100.0 * (words - decoded) / words,
        "mean_iterations": sum(r.iteration_sum for r in done) / decoded if decoded else None,
        "miscorrections": sum(r.miscorrections for r in done),
    }


# ----------------------------------------------------------------------
# the two kinds of run


def untraced_run(w, seed: int, seconds: float):
    from workloads import Checker

    # The set-ups are spread over the run, one before each slice of
    # operations, so that a slow moment of the machine moves one of them and
    # not their median.
    results: list = []
    setup_times = []
    setup_ref_s = []
    for k in range(w.setup_reps):
        built, elapsed, unit = timed_setup(w)
        setup_times.append(elapsed)
        setup_ref_s.append(elapsed / unit * REF_UNIT_S)
        if k == 0:
            spec = built
            checker = Checker(w, spec, seed)
        last = k == w.setup_reps - 1
        n_ops = w.quality_ops if last else 0
        run_pass(
            w, spec, seed, results, n_ops, seconds / w.setup_reps, checker=checker, reference=True
        )
    failed = count_failed(results)
    done = [r for r in results if r is not None]
    unit = local_unit_s(done)
    op_ref_ms = [r.op_s / u for r, u in zip(done, unit)]
    decode_ref_ms = [r.decode_s / u / r.words for r, u in zip(done, unit)]
    decode_ms = [1e3 * r.decode_s / r.words for r in done]
    q = quality(results[: w.quality_ops])
    decode_ref = describe(decode_ref_ms)
    metrics = {
        "words_per_ref_s": (1e3 * sum(r.words for r in done) / sum(op_ref_ms), "1/ref_s"),
        "decode_ref_ms_mean": (statistics.fmean(decode_ref_ms), "ref_ms"),
        "decode_ref_ms_p90": (decode_ref.get("p90"), "ref_ms"),
        "setup_s": (statistics.median(setup_ref_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "decoded_pct": (q["decoded_pct"], "%"),
        "mean_iterations": (q["mean_iterations"], "count"),
    }
    report = {
        "ops": len(results),
        "words": sum(r.words for r in done),
        "busy_s": sum(r.op_s for r in done),
        "words_per_s": words_per_s(results),
        "decode_ms_per_word": describe(decode_ms),
        "decode_ref_ms_per_word": decode_ref,
        "reference_unit_ms": describe([1e3 * r.ref_unit_s for r in done]),
        "encode_ms": describe([1e3 * r.encode_s for r in done]) if w.kind == "roundtrip" else None,
        "op_ms": describe([1e3 * r.op_s for r in done]),
        "setup_wall_s": describe(setup_times),
        "setup_ref_s": describe(setup_ref_s),
        "quality_over_first_ops": {"ops": w.quality_ops, **q},
        "op_error_pct": 100.0 * failed / len(results),
    }
    return metrics, report, len(results), failed


def install_spans(inst) -> None:
    """Spans at the layer boundaries, on the names each caller looks up."""
    from pgcodes import expcode, prng, rscodec, simlab

    def rs_outcome(counts, args, result):
        counts["rscodec.rs_decode.ok" if result.ok else "rscodec.rs_decode.failed"] += 1

    def rows(counts, args, result):
        counts["rscodec.batch_syndromes.rows"] += args[1].shape[0]

    def side_passes(counts, args, result):
        counts["expcode.side_passes"] += len(result.per_iteration)

    inst.span(simlab, "run_random", "simlab.run")
    inst.span(simlab, "run_burst", "simlab.run")
    for method in ("sample", "nonzero_symbol", "below"):
        inst.span(prng.SplitMix64, method, f"prng.{method}")
    for owner in (simlab, expcode):
        inst.span(owner, "iterative_decode", "expcode.iterative_decode", side_passes)
    inst.span(expcode, "all_components_valid", "expcode.all_components_valid")
    inst.span(expcode, "encode", "expcode.encode")
    inst.span(expcode, "derive_generator", "expcode.derive_generator")
    inst.span(expcode, "build_graph", "tanner.build_graph")
    inst.span(expcode, "rs_decode", "rscodec.rs_decode", rs_outcome)
    inst.span(rscodec.RsParams, "syndromes", "rscodec.syndromes")
    inst.span(rscodec.RsParams, "locator_roots", "rscodec.locator_roots")
    inst.span(rscodec.RsParams, "batch_syndromes", "rscodec.batch_syndromes", rows)


def install_galois_counts(inst) -> None:
    from pgcodes.galois import GF

    for method in ("mul", "poly_mul", "poly_eval"):
        inst.count(GF, method, f"galois.{method}.calls")


def layer_metrics(spans, galois_counts, overhead_pct: float) -> dict:
    """The per-layer metrics of BENCHMARK.json.

    A layer that some workload never calls (encode and derive_generator on
    the Monte Carlo workloads, simlab on the round trip) is given by its
    call count here; its times are in the report line's span summary.
    """
    s = spans.summary()
    c = spans.counts

    def get(name: str, key: str) -> float:
        return s[name][key] if name in s else (0 if key == "calls" else 0.0)

    prng_names = [n for n in s if n.startswith("prng.")]
    rs_calls = get("rscodec.rs_decode", "calls")
    m = {
        "rscodec.rs_decode.calls": (rs_calls, "count"),
        "rscodec.rs_decode.ok": (c["rscodec.rs_decode.ok"], "count"),
        "rscodec.rs_decode.failed": (c["rscodec.rs_decode.failed"], "count"),
        "rscodec.rs_decode.ok_ratio": (
            c["rscodec.rs_decode.ok"] / rs_calls if rs_calls else 0.0,
            "ratio",
        ),
        "rscodec.rs_decode.time_s": (get("rscodec.rs_decode", "time_s"), "s"),
        "rscodec.rs_decode.self_s": (get("rscodec.rs_decode", "self_s"), "s"),
        "rscodec.locator_roots.calls": (get("rscodec.locator_roots", "calls"), "count"),
        "rscodec.locator_roots.time_s": (get("rscodec.locator_roots", "time_s"), "s"),
        "rscodec.syndromes.calls": (get("rscodec.syndromes", "calls"), "count"),
        "rscodec.syndromes.time_s": (get("rscodec.syndromes", "time_s"), "s"),
        "rscodec.batch_syndromes.calls": (get("rscodec.batch_syndromes", "calls"), "count"),
        "rscodec.batch_syndromes.rows": (c["rscodec.batch_syndromes.rows"], "count"),
        "rscodec.batch_syndromes.time_s": (get("rscodec.batch_syndromes", "time_s"), "s"),
        "expcode.all_components_valid.calls": (
            get("expcode.all_components_valid", "calls"),
            "count",
        ),
        "expcode.all_components_valid.time_s": (
            get("expcode.all_components_valid", "time_s"),
            "s",
        ),
        "expcode.iterative_decode.calls": (get("expcode.iterative_decode", "calls"), "count"),
        "expcode.iterative_decode.time_s": (get("expcode.iterative_decode", "time_s"), "s"),
        "expcode.iterative_decode.self_s": (get("expcode.iterative_decode", "self_s"), "s"),
        "expcode.side_passes": (c["expcode.side_passes"], "count"),
        "expcode.components_attempted": (
            spans.children_named("expcode.iterative_decode", "rscodec.rs_decode"),
            "count",
        ),
        "expcode.encode.calls": (get("expcode.encode", "calls"), "count"),
        "expcode.derive_generator.calls": (get("expcode.derive_generator", "calls"), "count"),
        "tanner.build_graph.time_s": (get("tanner.build_graph", "time_s"), "s"),
        "simlab.run.calls": (get("simlab.run", "calls"), "count"),
        "prng.calls": (sum(s[n]["calls"] for n in prng_names), "count"),
        "prng.time_s": (sum(s[n]["outer_s"] for n in prng_names), "s"),
    }
    for method in ("mul", "poly_mul", "poly_eval"):
        key = f"galois.{method}.calls"
        m[key] = (galois_counts[key], "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def traced_run(w, seed: int):
    """Per-layer figures over the first trace_ops operations.

    The set-up is built once under spans. Each operation then runs untraced
    and traced, which gives the tracing overhead, and the first count_ops
    of them run once more with galois call counters, kept apart because
    counting every field multiplication would swamp the span timings.
    """
    from tracer import Instrument
    from workloads import Checker, build

    spans = Instrument()
    install_spans(spans)
    try:
        spec = build(w)
    finally:
        spans.restore()
    # Each operation runs untraced and traced back to back, in alternating
    # order, so that both sides of the overhead see the same machine speed.
    plain: list = []
    traced: list = []
    for i in range(w.trace_ops):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            if side == 0:
                run_pass(w, spec, seed, plain, i + 1)
                continue
            install_spans(spans)
            try:
                run_pass(w, spec, seed, traced, i + 1, inst=spans)
            finally:
                spans.restore()
    counter = Instrument()
    install_galois_counts(counter)
    try:
        counted = run_pass(w, spec, seed, [], w.count_ops)
    finally:
        counter.restore()

    # Checked after the passes, so that no check runs under the wrappers.
    checker = Checker(w, spec, seed)
    passes = (plain, traced, counted)
    for p in passes:
        for i, r in enumerate(p):
            if r is not None:
                check(checker, i, r)
    failed = sum(count_failed(p) for p in passes)
    attempted = sum(len(p) for p in passes)
    overhead = 100.0 * (words_per_s(plain) / words_per_s(traced) - 1.0)
    metrics = layer_metrics(spans, counter.counts, overhead)
    spans_path = OUT_DIR / f"spans-{w.name}.npz"
    spans.write(spans_path)
    report = {
        "trace_ops": w.trace_ops,
        "count_ops": w.count_ops,
        "spans": len(spans.name),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_summary": spans.summary(),
        "op_error_pct": 100.0 * failed / attempted,
    }
    return metrics, report, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    print(json.dumps({"env": environment()}))
    if args.trace:
        metrics, report, attempted, failed = traced_run(w, args.seed)
    else:
        metrics, report, attempted, failed = untraced_run(w, args.seed, args.seconds)
    print(json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace, **report}))
    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing:
        raise SystemExit(f"bench: too few samples for {missing}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
