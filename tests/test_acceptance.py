"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and budget is pinned here; nothing is calibrated at
run time.
"""

import itertools
import time

import numpy as np

from pgcodes.bounds import (
    SearchStatus,
    capability_table,
    eigenvalue_size_floor,
    search_min_config,
    verify_config,
)
from pgcodes.expcode import (
    CodeSpec,
    apply_pattern,
    iterative_decode,
    plant_failure_config,
)
from pgcodes.projgeom import ProjectiveSpace
from pgcodes.prng import SplitMix64, substream
from pgcodes.rscodec import RsParams, RsStatus, rs_decode, rs_encode
from pgcodes.simlab import TrialConfig, run_burst, run_interleaved, run_random
from pgcodes.tanner import TannerGraph, build_graph


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {status} {name}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def test_criterion_01_geometry_cardinalities():
    t0 = time.time()
    space = ProjectiveSpace(5)
    ok = space.n_points == 63 and space.n_hyperplanes == 63
    ok &= all(space.hyperplane_degree(p) == 31 for p in space.points)
    graph = TannerGraph(space)
    ok &= graph.n_edges == 1953
    planes = space.planes()
    ok &= len(planes) == 1395
    ok &= all(len(pl.points) == 7 for pl in planes)
    ok &= all(len(space.hyperplanes_through(pl)) == 7 for pl in planes)
    elapsed = time.time() - t0
    _criterion(1, "geometry cardinalities", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_spectral_check():
    t0 = time.time()
    graph = build_graph(5)
    k, lam = graph.gram_check()  # raises on any deviation from 16*I + 15*J
    ok = (k, lam) == (31, 15)
    ok &= graph.second_eigenvalue() == 4.0
    # independent floating-point cross-check of the bipartite spectrum
    N = graph.incidence_matrix.astype(float)
    A = np.block([[np.zeros((63, 63)), N], [N.T, np.zeros((63, 63))]])
    eigs = np.sort(np.linalg.eigvalsh(A))[::-1]
    ok &= abs(eigs[0] - 31.0) < 1e-9 and abs(eigs[1] - 4.0) < 1e-9
    elapsed = time.time() - t0
    _criterion(2, "spectral design identity", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def _planes_with_masks(space):
    planes = space.planes()
    masks = space.incidence_masks
    pts_masks = []
    hpl_masks = []
    for pl in planes:
        pm = 0
        hm = (1 << 63) - 1
        for p in pl.points:
            pm |= 1 << (p - 1)
            hm &= masks[p]
        pts_masks.append(pm)
        hpl_masks.append(hm)
    return planes, pts_masks, hpl_masks


def _lemma1_four_subsets_have_independent_triple():
    # every 4-point subset contains 3 non-collinear points
    for a, b, c, d in itertools.combinations(range(1, 64), 4):
        if a ^ b ^ c or a ^ b ^ d or a ^ c ^ d or b ^ c ^ d:
            continue
        return False
    return True


def _lemma2_external_point_sees_at_most_three(space, planes, pts_masks, hpl_masks):
    masks = space.incidence_masks
    for pm, hm in zip(pts_masks, hpl_masks):
        for q in range(1, 64):
            if pm & (1 << (q - 1)):
                continue
            if (hm & masks[q]).bit_count() > 3:
                return False
    return True


def _lemma3_line_meeting_planes(space, planes, pts_masks, hpl_masks):
    # index planes by the lines they contain (each plane holds 7 lines)
    by_line: dict[tuple[int, int, int], list[int]] = {}
    for idx, pl in enumerate(planes):
        keys = {
            tuple(sorted((a, b, a ^ b)))
            for a, b in itertools.combinations(pl.points, 2)
        }
        for key in keys:
            by_line.setdefault(key, []).append(idx)
    if len(by_line) != 651 or any(len(v) != 15 for v in by_line.values()):
        return False
    masks = space.incidence_masks
    for line, members in by_line.items():
        line_mask = 0
        for p in line:
            line_mask |= 1 << (p - 1)
        for i, j in itertools.combinations(members, 2):
            diff = pts_masks[j] & ~line_mask
            # hyperplanes through plane i avoiding all 4 points of j \ line
            clean = 0
            hm = hpl_masks[i]
            while hm:
                low = hm & -hm
                h = low.bit_length()
                if masks[h] & diff == 0:
                    clean += 1
                hm ^= low
            if clean < 4:
                return False
    return True


def _lemma4_point_meeting_planes(space, planes, pts_masks, hpl_masks):
    masks = space.incidence_masks
    n = len(planes)
    pairs = 0
    for i in range(n):
        pmi, hmi = pts_masks[i], hpl_masks[i]
        for j in range(i + 1, n):
            inter = pmi & pts_masks[j]
            count = inter.bit_count()
            if count not in (0, 1, 3, 7):
                return False
            if count != 1:
                continue
            pairs += 1
            ac = inter.bit_length()  # the common point
            common_h = hmi & hpl_masks[j]
            if common_h.bit_count() != 1:  # duality: exactly one common hyperplane
                return False
            meets = []
            hm = hmi & ~common_h
            pmj = pts_masks[j]
            while hm:
                low = hm & -hm
                h = low.bit_length()
                hm ^= low
                meet = masks[h] & pmj
                if meet.bit_count() != 3 or not meet & inter:
                    return False
                meets.append(meet)
            # the 6 non-common hyperplanes cut exactly the 3 lines of the
            # second plane through the common point, each twice
            expected = set()
            rest = pmj & ~inter
            while rest:
                low = rest & -rest
                x = low.bit_length()
                rest ^= low
                expected.add((1 << (ac - 1)) | (1 << (x - 1)) | (1 << ((ac ^ x) - 1)))
            if set(meets) != expected or len(expected) != 3:
                return False
            for m in set(meets):
                if meets.count(m) != 2:
                    return False
    return pairs == 546840


def _lemma5_disjoint_planes_cut_in_distinct_lines(space, planes, pts_masks, hpl_masks, samples=10000):
    masks = space.incidence_masks
    rng = SplitMix64(505)
    n = len(planes)
    done = 0
    while done < samples:
        i = rng.below(n)
        j = rng.below(n)
        if i == j or pts_masks[i] & pts_masks[j]:
            continue
        done += 1
        meets = []
        hm = hpl_masks[i]
        while hm:
            low = hm & -hm
            h = low.bit_length()
            hm ^= low
            meet = masks[h] & pts_masks[j]
            if meet.bit_count() != 3:
                return False
            meets.append(meet)
        if len(set(meets)) != 7:
            return False
    return True


def test_criterion_03_lemma_suite():
    t0 = time.time()
    space = ProjectiveSpace(5)
    planes, pts_masks, hpl_masks = _planes_with_masks(space)
    results = {
        "lemma1": _lemma1_four_subsets_have_independent_triple(),
        "lemma2": _lemma2_external_point_sees_at_most_three(space, planes, pts_masks, hpl_masks),
        "lemma3": _lemma3_line_meeting_planes(space, planes, pts_masks, hpl_masks),
        "lemma4": _lemma4_point_meeting_planes(space, planes, pts_masks, hpl_masks),
        "lemma5": _lemma5_disjoint_planes_cut_in_distinct_lines(space, planes, pts_masks, hpl_masks),
    }
    elapsed = time.time() - t0
    ok = all(results.values()) and elapsed < 300
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in results.items())
    _criterion(3, "geometric lemma suite", ok, f"{detail}; {elapsed:.0f}s")


def test_criterion_04_capability_table():
    t0 = time.time()
    rows = capability_table()
    rates = [round(float(r.rate_bound), 2) for r in rows]
    guaranteed = [r.guaranteed for r in rows]
    zemor = [r.zemor for r in rows]
    ok = rates == [0.87, 0.74, 0.61, 0.48, 0.35, 0.23, 0.1]
    ok &= guaranteed == [3, 8, 15, 24, 35, 48, 87]
    ok &= zemor == [None, None, None, None, None, 42, 65]
    elapsed = time.time() - t0
    _criterion(4, "capability table", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_05_code_dimension():
    t0 = time.time()
    spec = CodeSpec(7)  # fresh build, not the shared fixture
    spec.generator_matrix
    ok = spec.rank == 756 and spec.k_overall == 1197
    elapsed = time.time() - t0
    _criterion(
        5, "epsilon=7 dimension", ok and elapsed < 120,
        f"rank={spec.rank}, k={spec.k_overall}, {elapsed:.0f}s",
    )


def test_criterion_06_guaranteed_correction(spec5):
    failures = 0
    for rnd in range(1000):
        rng = substream(60601, rnd)
        word = np.zeros(1953, dtype=np.uint8)
        for pos in rng.sample(1953, 8):
            word[pos] = rng.nonzero_symbol(256)
        report = iterative_decode(spec5, word)
        if not (report.success and not report.final_word.any()):
            failures += 1

    plane = spec5.graph.space.planes()[0]
    pattern = plant_failure_config(spec5, plane, SplitMix64(3))
    report = iterative_decode(
        spec5, apply_pattern(spec5, np.zeros(1953, dtype=np.uint8), pattern)
    )
    stable = (not report.success) and report.failure_counts() == [(3, 3)] * 4

    removal_bad = 0
    removal_runs = 0
    for i in range(12):
        rng = SplitMix64(4242 + i)
        pl = spec5.graph.space.planes()[rng.below(1395)]
        pat = plant_failure_config(spec5, pl, rng)
        for drop in range(9):
            sub = pat[:drop] + pat[drop + 1 :]
            rep = iterative_decode(
                spec5, apply_pattern(spec5, np.zeros(1953, dtype=np.uint8), sub)
            )
            removal_runs += 1
            if not (rep.success and not rep.final_word.any()):
                removal_bad += 1

    ok = failures == 0 and stable and removal_runs >= 100 and removal_bad == 0
    _criterion(
        6, "guaranteed correction at epsilon=5", ok,
        f"weight-8 failures={failures}/1000, oscillation stable={stable}, "
        f"removals bad={removal_bad}/{removal_runs}",
    )


def test_criterion_07_burst_guarantee(spec5):
    t0 = time.time()
    bad = 0
    for start in range(1828):
        rng = substream(70707, start)
        word = np.zeros(1953, dtype=np.uint8)
        for off in range(126):
            word[start + off] = rng.nonzero_symbol(256)
        report = iterative_decode(spec5, word)
        if not (report.success and report.iterations_used == 1 and not report.final_word.any()):
            bad += 1

    # Band: the central 99.9% binomial interval (counts 390..493) for 1000
    # uniform starts at p = 803/1819, the failure share of the support-level
    # model (tests/support_model.py) over all 1819 burst-135 starts under the
    # frozen id-ascending edge order; test_support_model recomputes 803/1819.
    summary = run_burst(TrialConfig(5, "burst", 135, rounds=1000, seed=20260504), spec5)
    in_band = 39.0 <= summary.failures_pct <= 49.3
    elapsed = time.time() - t0
    ok = bad == 0 and in_band and elapsed < 600
    _criterion(
        7, "burst guarantee", ok,
        f"length-126 exhaustive bad={bad}/1828, length-135 failures={summary.failures_pct:.1f}% "
        f"(band [39.0, 49.3]), {elapsed:.0f}s",
    )


def test_criterion_08_monte_carlo_bands(spec5, spec7):
    s100 = run_random(TrialConfig(5, "random", 100, rounds=1000, seed=20260501), spec5)
    s250 = run_random(TrialConfig(7, "random", 250, rounds=1000, seed=20260502), spec7)
    s200 = run_random(TrialConfig(7, "random", 200, rounds=1000, seed=20260503), spec7)

    # e5/w100 and e7/w250 targets: the support-level model (tests/support_model.py)
    # gives 0/1000 failures on these seeds, with mean iterations 1.866 and
    # 2.861; test_support_model recomputes both.
    checks = []
    band100 = s100.failures_pct <= 2
    checks.append(("e5/w100 <= 2", band100, f"{s100.failures_pct:.1f}%"))
    if band100:
        checks.append(
            ("e5/w100 avg", abs(s100.avg_iterations - 1.87) <= 0.5, f"{s100.avg_iterations:.2f}")
        )
    band250 = s250.failures_pct <= 2
    checks.append(("e7/w250 <= 2", band250, f"{s250.failures_pct:.1f}%"))
    if band250:
        checks.append(
            ("e7/w250 avg", abs(s250.avg_iterations - 2.86) <= 0.5, f"{s250.avg_iterations:.2f}")
        )
    band200 = s200.failures_pct <= 2
    checks.append(("e7/w200 <= 2", band200, f"{s200.failures_pct:.1f}%"))
    if band200:
        checks.append(
            ("e7/w200 avg", abs(s200.avg_iterations - 2.19) <= 0.5, f"{s200.avg_iterations:.2f}")
        )

    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name}={'ok' if good else 'FAIL'} [{val}]" for name, good, val in checks)
    _criterion(8, "Monte Carlo bands", ok, detail)


def test_criterion_09_rs_codec_properties(field8):
    t0 = time.time()
    ok = True
    for epsilon in (3, 5, 7, 9, 11, 13, 15):
        params = RsParams(31, epsilon, field=field8)
        rng = SplitMix64(9000 + epsilon)
        for _ in range(10_000):
            msg = [rng.below(256) for _ in range(params.k)]
            cw = rs_encode(params, msg)
            e = rng.below(params.t + 1)
            rec = list(cw)
            for pos in rng.sample(31, e):
                rec[pos] ^= rng.nonzero_symbol(256)
            out = rs_decode(params, rec)
            if out.status is not RsStatus.CORRECTED or out.word != cw:
                ok = False
                break
        if not ok:
            break

    grid_trials = 0
    grid_ok = True
    rng = SplitMix64(9999)
    while grid_trials < 1000 and grid_ok:
        for epsilon in (3, 5, 7, 9, 11, 13, 15):
            params = RsParams(31, epsilon, field=field8)
            for f in range(params.two_t + 1):
                for e in range((params.two_t - f) // 2 + 1):
                    msg = [rng.below(256) for _ in range(params.k)]
                    cw = rs_encode(params, msg)
                    pos = rng.sample(31, f + e)
                    rec = list(cw)
                    for j in pos[:f]:
                        rec[j] = rng.below(256)
                    for j in pos[f:]:
                        rec[j] ^= rng.nonzero_symbol(256)
                    out = rs_decode(params, rec, erasures=pos[:f])
                    grid_trials += 1
                    if (
                        out.status is not RsStatus.CORRECTED
                        or out.word != cw
                        or any(params.syndromes(out.word))
                    ):
                        grid_ok = False

    elapsed = time.time() - t0
    _criterion(
        9, "RS codec properties", ok and grid_ok and elapsed < 300,
        f"round-trips ok={ok}, grid trials={grid_trials} ok={grid_ok}, {elapsed:.0f}s",
    )


def test_criterion_10_subgraph_searches(graph5):
    t0 = time.time()
    r33 = search_min_config(graph5, 3, 3)
    witness_ok = r33.status is SearchStatus.FOUND and verify_config(
        graph5, *r33.witness, 3
    )
    r98 = search_min_config(graph5, 9, 8, budget=10**9)
    r108 = search_min_config(graph5, 10, 8, budget=10**9)
    floor = eigenvalue_size_floor(8, 63, 31, 4)
    elapsed = time.time() - t0
    ok = (
        witness_ok
        and r98.status is SearchStatus.NOT_FOUND
        and r108.status is SearchStatus.NOT_FOUND
        and floor == 10
        and elapsed < 3600
    )
    _criterion(
        10, "embedded subgraph searches", ok,
        f"(3,3)={r33.status.value}, (9,8)={r98.status.value} [{r98.nodes_explored} nodes], "
        f"(10,8)={r108.status.value} [{r108.nodes_explored} nodes], floor={floor}, {elapsed:.1f}s",
    )


def test_criterion_11_interleaved_burst(spec7):
    summary = run_interleaved(
        4, TrialConfig(7, "burst", 756, rounds=500, seed=111), spec7
    )
    ok = summary.failures_pct == 0.0 and summary.miscorrections == 0
    _criterion(
        11, "interleaved burst capability", ok,
        f"failures={summary.failures_pct:.1f}% over 500 sampled starts",
    )
