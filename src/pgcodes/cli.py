"""Command-line front end.

Subcommands mirror the library layers: `geom` and `graph` inspect the
geometry, `code` builds/encodes/decodes the overall code, `bounds` prints the
capability table and runs the subgraph search, `sim` drives the Monte Carlo
harness, and `plant` emits a minimal locked error pattern.

Exit code 0 means the command completed (a decode failure is data, not an
error); malformed flags or inputs exit nonzero with one diagnostic line on
stderr. The PGCODES_SEED environment variable overrides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from pgcodes import bounds as bounds_mod
from pgcodes import expcode, simlab
from pgcodes.prng import SplitMix64
from pgcodes.projgeom import gaussian_coefficient, num_points
from pgcodes.rscodec import integer_indices
from pgcodes.tanner import build_graph


def _default_seed() -> int:
    return int(os.environ.get("PGCODES_SEED", "1"))


def _read_lines(path: str) -> list[str]:
    """The non-blank lines of a text file, stripped."""
    with open(path, encoding="ascii") as fh:
        return [line.strip() for line in fh if line.strip()]


def _read_erasures(path: str | None) -> list[int]:
    """Erasure labels or positions from a file with one integer per line."""
    return [int(line) for line in _read_lines(path)] if path else []


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgcodes",
        description="Expander-style codes on point-hyperplane graphs of PG(d, GF(2))",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    geom = sub.add_parser("geom", help="projective geometry reports")
    geom_sub = geom.add_subparsers(dest="subcommand", required=True)
    geom_info = geom_sub.add_parser("info", help="cardinality report")
    geom_info.add_argument("--d", type=int, default=5, help="projective dimension")

    graph = sub.add_parser("graph", help="Tanner graph reports and exports")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)
    graph_export = graph_sub.add_parser("export", help="labeled edge list")
    graph_export.add_argument("--d", type=int, default=5)
    graph_export.add_argument("--out", required=True, help="output file")
    graph_spectrum = graph_sub.add_parser("spectrum", help="design identity check")
    graph_spectrum.add_argument("--d", type=int, default=5)

    code = sub.add_parser("code", help="overall code build / encode / decode")
    code_sub = code.add_subparsers(dest="subcommand", required=True)
    code_build = code_sub.add_parser("build", help="dimensions, rank, rate")
    code_build.add_argument("--epsilon", type=int, required=True)
    code_build.add_argument("--out-g", help="write generator matrix (hex)")
    code_build.add_argument("--out-h", help="write parity matrix (hex)")
    code_encode = code_sub.add_parser("encode", help="encode hex messages")
    code_encode.add_argument("--epsilon", type=int, required=True)
    code_encode.add_argument("--in", dest="infile", required=True)
    code_encode.add_argument("--out", required=True)
    code_decode = code_sub.add_parser("decode", help="decode hex words")
    code_decode.add_argument("--epsilon", type=int, required=True)
    code_decode.add_argument("--in", dest="infile", required=True)
    code_decode.add_argument("--erasures", help="file of 1-based labels, one per line")
    code_decode.add_argument("--out", help="write final words (hex) here")
    code_decode.add_argument("--max-iterations", type=int, default=4)

    rs = sub.add_parser("rs", help="component Reed-Solomon codec (debugging)")
    rs_sub = rs.add_subparsers(dest="subcommand", required=True)
    rs_encode_p = rs_sub.add_parser("encode", help="encode hex messages")
    rs_encode_p.add_argument("--epsilon", type=int, required=True)
    rs_encode_p.add_argument("--n", type=int, default=31, help="block length in symbols")
    rs_encode_p.add_argument("--in", dest="infile", required=True)
    rs_encode_p.add_argument("--out", required=True)
    rs_decode_p = rs_sub.add_parser("decode", help="decode hex words")
    rs_decode_p.add_argument("--epsilon", type=int, required=True)
    rs_decode_p.add_argument("--n", type=int, default=31)
    rs_decode_p.add_argument("--in", dest="infile", required=True)
    rs_decode_p.add_argument(
        "--erasures", help="file of 0-based symbol positions, one per line"
    )

    bounds = sub.add_parser("bounds", help="capability table and subgraph search")
    bounds_sub = bounds.add_subparsers(dest="subcommand", required=True)
    bounds_table = bounds_sub.add_parser("table", help="capability table")
    bounds_table.add_argument("--format", choices=("text", "jsonl"), default="text")
    bounds_search = bounds_sub.add_parser("search", help="embedded subgraph search")
    bounds_search.add_argument("--p", type=int, required=True, help="partition size")
    bounds_search.add_argument("--delta", type=int, required=True, help="min degree")
    bounds_search.add_argument(
        "--budget", type=int, default=bounds_mod.DEFAULT_SEARCH_BUDGET
    )
    bounds_search.add_argument("--no-symmetry", action="store_true")
    bounds_search.add_argument("--no-prune", action="store_true")
    bounds_search.add_argument("--format", choices=("text", "jsonl"), default="text")

    sim = sub.add_parser("sim", help="Monte Carlo error injection")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)
    for model in ("random", "burst", "interleaved"):
        sp = sim_sub.add_parser(model)
        sp.add_argument("--epsilon", type=int, required=True)
        sp.add_argument("--weight", type=int, required=True)
        sp.add_argument("--rounds", type=int, default=1000)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--max-iterations", type=int, default=4)
        sp.add_argument("--format", choices=("text", "jsonl"), default="jsonl")
        if model == "interleaved":
            sp.add_argument("--k", type=int, default=4)

    plant = sub.add_parser("plant", help="minimal locked error pattern")
    plant.add_argument("--epsilon", type=int, required=True)
    plant.add_argument("--plane-id", type=int, default=0, help="index into the sorted plane list")
    plant.add_argument("--seed", type=int, default=None)
    plant.add_argument("--format", choices=("text", "jsonl"), default="text")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    handler = {
        "geom": _cmd_geom,
        "graph": _cmd_graph,
        "code": _cmd_code,
        "rs": _cmd_rs,
        "bounds": _cmd_bounds,
        "sim": _cmd_sim,
        "plant": _cmd_plant,
    }[args.command]
    return handler(args)


def _cmd_geom(args: argparse.Namespace) -> int:
    d = args.d
    points = num_points(d, 2)
    degree = gaussian_coefficient(d - 1, d - 2, 2) if d >= 2 else 0
    planes = gaussian_coefficient(d, 2, 2) if d >= 2 else 0
    print(f"projective space PG({d}, GF(2))")
    print(f"points: {points}")
    print(f"hyperplanes: {points}")
    print(f"planes: {planes}")
    print(f"hyperplanes per point: {degree}")
    print(f"points per hyperplane: {degree}")
    print(f"tanner edges: {points * degree}")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    graph = build_graph(args.d)
    if args.subcommand == "export":
        with open(args.out, "w", encoding="ascii") as fh:
            for line in graph.edge_lines():
                fh.write(line + "\n")
        print(f"wrote {graph.n_edges} edges to {args.out}")
        return 0
    k, lam = graph.gram_check()
    print(f"design identity: N*N^T = {k - lam}*I + {lam}*J (exact)")
    print(f"degree: {k}")
    print(f"second eigenvalue: {graph.second_eigenvalue():g}")
    return 0


def _cmd_code(args: argparse.Namespace) -> int:
    spec = expcode.CodeSpec(args.epsilon)
    if args.subcommand == "build":
        G = spec.generator_matrix
        H = expcode.build_parity(spec)
        rate = Fraction(spec.k_overall, spec.n_symbols)
        print(f"block length: {spec.n_symbols}")
        print(f"parity rows: {H.shape[0]}")
        print(f"rank: {spec.rank}")
        print(f"dimension: {spec.k_overall}")
        print(f"rate: {float(rate):.4f}")
        if args.out_h:
            with open(args.out_h, "w", encoding="ascii") as fh:
                expcode.write_matrix_hex(fh, H, spec.epsilon)
            print(f"wrote parity matrix to {args.out_h}")
        if args.out_g:
            with open(args.out_g, "w", encoding="ascii") as fh:
                expcode.write_matrix_hex(fh, G, spec.epsilon)
            print(f"wrote generator matrix to {args.out_g}")
        return 0
    if args.subcommand == "encode":
        k = spec.k_overall
        lines = _read_lines(args.infile)
        with open(args.out, "w", encoding="ascii") as out:
            for line in lines:
                msg = expcode.word_from_hex(line, k)
                out.write(expcode.word_to_hex(expcode.encode(spec, msg)) + "\n")
        print(f"encoded words written to {args.out}")
        return 0
    # Every line and label is checked before the one decode_words call, so
    # malformed input prints nothing.
    lines = _read_lines(args.infile)
    words = np.array(
        [expcode.word_from_hex(line, spec.n_symbols) for line in lines], dtype=np.uint8
    ).reshape(len(lines), spec.n_symbols)
    erasures = _read_erasures(args.erasures)
    labels = integer_indices(erasures, 1, spec.n_symbols, "erasure labels")
    erased = np.zeros(words.shape, dtype=bool)
    erased[:, labels - 1] = True
    reports = expcode.decode_words(spec, words, erased, args.max_iterations)
    for report in reports:
        print(
            json.dumps(
                {
                    "success": report.success,
                    "iterations_used": report.iterations_used,
                    "per_iteration": [asdict(r) for r in report.per_iteration],
                    "final_word": expcode.word_to_hex(report.final_word),
                }
            )
        )
    if args.out:
        with open(args.out, "w", encoding="ascii") as out:
            for report in reports:
                out.write(expcode.word_to_hex(report.final_word) + "\n")
    return 0


def _cmd_rs(args: argparse.Namespace) -> int:
    from pgcodes.rscodec import RsParams, rs_decode, rs_encode

    params = RsParams(n=args.n, epsilon=args.epsilon)
    if args.subcommand == "encode":
        lines = _read_lines(args.infile)
        with open(args.out, "w", encoding="ascii") as out:
            for line in lines:
                msg = expcode.word_from_hex(line, params.k)
                out.write(expcode.word_to_hex(rs_encode(params, msg.tolist())) + "\n")
        print(f"encoded words written to {args.out}")
        return 0
    erasures = _read_erasures(args.erasures)
    for line in _read_lines(args.infile):
        word = expcode.word_from_hex(line, params.n)
        outcome = rs_decode(params, word.tolist(), erasures=erasures)
        print(
            json.dumps(
                {
                    "status": outcome.status.value,
                    "errors_corrected": outcome.errors_corrected,
                    "erasures_used": outcome.erasures_used,
                    "word": expcode.word_to_hex(outcome.word),
                }
            )
        )
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.subcommand == "table":
        rows = bounds_mod.capability_table()
        if args.format == "jsonl":
            for r in rows:
                print(
                    json.dumps(
                        {
                            "epsilon": r.epsilon,
                            "subcode_rate": round(float(r.subcode_rate), 2),
                            "rate_bound": round(float(r.rate_bound), 2),
                            "guaranteed_errors": r.guaranteed,
                            "zemor_bound": r.zemor,
                        }
                    )
                )
        else:
            print(f"{'epsilon':>7} {'subrate':>8} {'rate':>6} {'errors':>7} {'zemor':>6}")
            for r in rows:
                zem = "--" if r.zemor is None else str(r.zemor)
                print(
                    f"{r.epsilon:>7} {float(r.subcode_rate):>8.2f} "
                    f"{float(r.rate_bound):>6.2f} {r.guaranteed:>7} {zem:>6}"
                )
        return 0
    graph = build_graph(5)
    result = bounds_mod.search_min_config(
        graph,
        args.p,
        args.delta,
        budget=args.budget,
        symmetry=not args.no_symmetry,
        prune=not args.no_prune,
    )
    payload = {
        "status": result.status.value,
        "nodes_explored": result.nodes_explored,
        "points": list(result.witness[0]) if result.witness else None,
        "hyperplanes": list(result.witness[1]) if result.witness else None,
    }
    if args.format == "jsonl":
        print(json.dumps(payload))
    else:
        print(f"status: {payload['status']}")
        print(f"nodes explored: {payload['nodes_explored']}")
        if result.witness:
            print(f"points: {' '.join(map(str, result.witness[0]))}")
            print(f"hyperplanes: {' '.join(map(str, result.witness[1]))}")
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    model = simlab.BURST_MODEL if args.subcommand in ("burst", "interleaved") else simlab.RANDOM_MODEL
    cfg = simlab.TrialConfig(
        epsilon=args.epsilon,
        error_model=model,
        weight=args.weight,
        rounds=args.rounds,
        seed=seed,
        max_iterations=args.max_iterations,
    )
    if args.subcommand == "random":
        summary = simlab.run_random(cfg)
    elif args.subcommand == "burst":
        summary = simlab.run_burst(cfg)
    else:
        summary = simlab.run_interleaved(args.k, cfg)
    if args.format == "jsonl":
        print(summary.to_json())
    else:
        print(simlab.TrialSummary.text_header())
        print(summary.text_row())
    return 0


def _cmd_plant(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    spec = expcode.CodeSpec(args.epsilon)
    planes = spec.graph.space.planes()
    if not 0 <= args.plane_id < len(planes):
        raise ValueError(f"plane id must be in [0, {len(planes) - 1}]")
    pattern = expcode.plant_failure_config(spec, planes[args.plane_id], SplitMix64(seed))
    if args.format == "jsonl":
        for label, value in pattern:
            print(json.dumps({"label": label, "value": value}))
    else:
        for label, value in pattern:
            print(f"{label} {value:02x}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
