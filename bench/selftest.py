#!/usr/bin/env python3
"""Self-test of the benchmark, on small versions of its workloads.

Run from the repository root (about 15 s):

    python3 bench/selftest.py

It checks that
- a decoder that returns a corrupted word makes every workload report
  failed operations (op_error_pct > 0, correct false);
- two runs with the same seed give identical deterministic metrics, and
  traced runs give the same span counts per layer;
- the metric names and units the runs print are those of BENCHMARK.json.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

run.load_program()

from pgcodes import expcode, simlab  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
# Deterministic per seed: every per-layer count, and the decoder outcomes.
DETERMINISTIC_E2E = ("decoded_pct", "mean_iterations")


def small(w):
    return dataclasses.replace(
        w,
        words_per_op=min(w.words_per_op, 2),
        quality_ops=3,
        trace_ops=2,
        count_ops=1,
        setup_reps=1,
    )


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def corrupting(decode):
    """A decoder that claims success and returns a word with one symbol changed."""

    def wrapper(*args, **kwargs):
        report = decode(*args, **kwargs)
        if report.success:
            report.final_word = report.final_word.copy()
            report.final_word[0] ^= 1
        return report

    return wrapper


def test_corrupt_decoder_is_caught(w) -> None:
    original = expcode.iterative_decode
    expcode.iterative_decode = simlab.iterative_decode = corrupting(original)
    try:
        _, report, attempted, failed = run.untraced_run(w, SEED, 0.0)
    finally:
        expcode.iterative_decode = simlab.iterative_decode = original
    check(
        failed > 0 and report["op_error_pct"] > 0,
        f"{w.name}: corrupted decoder gives op_error_pct={report['op_error_pct']:.1f}",
    )


def test_repeatable(w) -> None:
    m1, _, _, f1 = run.untraced_run(w, SEED, 0.0)
    m2, _, _, f2 = run.untraced_run(w, SEED, 0.0)
    check(f1 == f2 == 0, f"{w.name}: untraced runs pass their checks")
    same = all(m1[k] == m2[k] for k in DETERMINISTIC_E2E)
    check(same, f"{w.name}: same seed, same {DETERMINISTIC_E2E}")

    t1, r1, _, g1 = run.traced_run(w, SEED)
    t2, r2, _, g2 = run.traced_run(w, SEED)
    check(g1 == g2 == 0, f"{w.name}: traced runs pass their checks")
    counts = [k for k, (_, unit) in t1.items() if unit == "count"]
    check(all(t1[k] == t2[k] for k in counts), f"{w.name}: same seed, same {len(counts)} counts")
    calls1 = {name: s["calls"] for name, s in r1["span_summary"].items()}
    calls2 = {name: s["calls"] for name, s in r2["span_summary"].items()}
    check(calls1 == calls2, f"{w.name}: same seed, same span counts {calls1}")
    return m1, t1


def test_names_match_benchmark_json(e2e: dict, layers: dict) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(declared == {k: u for k, (_, u) in e2e.items()}, "end-to-end names and units match")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared == {k: u for k, (_, u) in layers.items()}, "per-layer names and units match")
    check(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "workload names match",
    )


def main() -> int:
    for w in WORKLOADS.values():
        w = small(w)
        test_corrupt_decoder_is_caught(w)
        e2e, layers = test_repeatable(w)
    test_names_match_benchmark_json(e2e, layers)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
