"""Worst-case capability calculators and the embedded-subgraph searcher.

The decoder is defeated exactly by an embedded bipartite subgraph in which
every vertex sees more errors than its component can correct, so the least
number of guaranteed-correctable errors is tied to the smallest such subgraph.
This module computes the closed-form capability numbers for the d=5 graph,
the classical comparison bounds, and runs an exhaustive backtracking search
that certifies non-existence of the small min-degree-8 subgraphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from pgcodes.projgeom import mask_to_ids
from pgcodes.tanner import TannerGraph

DEFAULT_SEARCH_BUDGET = 50_000_000

_VALID_EPSILON = (3, 5, 7, 9, 11, 13, 15)


@dataclass(frozen=True)
class BoundInputs:
    """Graph-side constants the d=5 calculators assume."""

    epsilon: int
    n_side: int = 63
    degree: int = 31
    second_eigenvalue: int = 4

    @property
    def t_plus(self) -> int:
        return (self.epsilon + 1) // 2


def _check_epsilon(epsilon: int) -> None:
    if epsilon not in _VALID_EPSILON:
        raise ValueError(
            f"component design distance must be odd in [3, 15], got {epsilon}"
        )


def min_config_size(epsilon: int) -> int:
    """Vertices per side assumed for the smallest locked failure subgraph.

    For epsilon <= 13 the (epsilon+1)/2 points and hyperplanes of one plane
    realize the minimum exactly. For epsilon = 15 a single plane is too
    small and the value 11 is a conservative floor: search_min_config
    exhausts partition sizes 9 and 10 quickly, and a longer run (about 13M
    nodes) exhausts size 11 as well, so the true minimum is at least 12 and
    the guaranteed-error number derived from 11 understates the code's real
    capability. The published floor is kept so the capability table stays a
    valid guarantee.
    """
    _check_epsilon(epsilon)
    if epsilon <= 13:
        return (epsilon + 1) // 2
    return 11


def guaranteed_errors(epsilon: int) -> int:
    """Largest error count that can never defeat the decoder:
    min_config_size * (epsilon+1)/2 - 1."""
    return min_config_size(epsilon) * ((epsilon + 1) // 2) - 1


def rate_lower_bound(epsilon: int, n: int = 31) -> Fraction:
    """Rate of the overall code is at least 2r - 1, r the component rate."""
    _check_epsilon(epsilon)
    return 2 * Fraction(n - (epsilon - 1), n) - 1


def subcode_rate(epsilon: int, n: int = 31) -> Fraction:
    _check_epsilon(epsilon)
    return Fraction(n - (epsilon - 1), n)


def sipser_distance_bound(epsilon_rel: float, lam: float, d: float) -> float:
    """Minimum relative distance floor ((eps - lam/d) / (1 - lam/d))^2."""
    if not 0 < epsilon_rel <= 1:
        raise ValueError(f"relative distance must be in (0, 1], got {epsilon_rel}")
    if lam >= d:
        raise ValueError("second eigenvalue must be below the degree")
    ratio = lam / d
    return ((epsilon_rel - ratio) / (1 - ratio)) ** 2


def sipser_contraction(alpha: float, epsilon_rel: float, lam: float, d: float) -> float:
    """Relative distance after one parallel decoding round:
    alpha * (2/3 + 16*alpha/eps^2 + 4*lam/(eps*d))."""
    if not 0 <= alpha <= 1:
        raise ValueError(f"relative distance must be in [0, 1], got {alpha}")
    if not 0 < epsilon_rel <= 1:
        raise ValueError(f"relative distance must be in (0, 1], got {epsilon_rel}")
    if lam >= d:
        raise ValueError("second eigenvalue must be below the degree")
    return alpha * (2 / 3 + 16 * alpha / epsilon_rel**2 + 4 * lam / (epsilon_rel * d))


def zemor_bound(
    epsilon: int, n_side: int = 63, degree: int = 31, lam: int = 4
) -> int | None:
    """Guaranteed-correction bound of Zemor's analysis, for comparison.

    Zemor's argument needs the component distance to be at least 3*lam and
    is undefined below that (returns None). With t+ = (epsilon+1)/2 (odd
    distances never correct t+ errors) the bound evaluates to
    floor(n_side * t+ * (t+ - lam) / degree).
    """
    _check_epsilon(epsilon)
    if epsilon < 3 * lam:
        return None
    t_plus = (epsilon + 1) // 2
    return n_side * t_plus * (t_plus - lam) // degree


def eigenvalue_size_floor(
    gamma: int, n_side: int = 63, degree: int = 31, lam: int = 4
) -> int:
    """Spectral floor on the per-side size of a min-degree-gamma subgraph:
    ceil(n_side * (gamma - lam) / (degree - lam))."""
    if degree <= lam:
        raise ValueError("second eigenvalue must be below the degree")
    if gamma <= lam:
        raise ValueError(f"bound is vacuous for gamma <= {lam}")
    num = n_side * (gamma - lam)
    den = degree - lam
    return -(-num // den)


def min_common_neighbors(n_side_sub: int, delta: int) -> int:
    """In a bipartite graph with n vertices per side and min degree delta,
    any 3 vertices of one side share at least max(0, 3*delta - 2*n) common
    neighbors. Used as a search-pruning floor."""
    if delta > n_side_sub:
        raise ValueError("min degree cannot exceed the opposite side size")
    return max(0, 3 * delta - 2 * n_side_sub)


@dataclass(frozen=True)
class TableRow:
    epsilon: int
    subcode_rate: Fraction
    rate_bound: Fraction
    guaranteed: int
    zemor: int | None


def capability_table(epsilons: Sequence[int] = _VALID_EPSILON) -> list[TableRow]:
    """One row per component design distance: rates, guaranteed errors, and
    the comparison bound."""
    return [
        TableRow(
            epsilon=e,
            subcode_rate=subcode_rate(e),
            rate_bound=rate_lower_bound(e),
            guaranteed=guaranteed_errors(e),
            zemor=zemor_bound(e),
        )
        for e in epsilons
    ]


# ----------------------------------------------------------------------
# embedded-subgraph search

class SearchStatus(Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"
    TIMEOUT = "timeout"


@dataclass
class SearchResult:
    status: SearchStatus
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    nodes_explored: int


class _Budget(Exception):
    pass


def verify_config(
    graph: TannerGraph, points: Iterable[int], hyperplanes: Iterable[int], delta: int
) -> bool:
    """Recount degrees of a claimed witness directly from the incidence
    masks; deliberately independent of the search bookkeeping."""
    points = list(points)
    hyperplanes = list(hyperplanes)
    masks = graph.space.incidence_masks
    hmask = 0
    for h in hyperplanes:
        hmask |= 1 << (h - 1)
    pmask = 0
    for p in points:
        pmask |= 1 << (p - 1)
    for p in points:
        if (masks[p] & hmask).bit_count() < delta:
            return False
    for h in hyperplanes:
        if (masks[h] & pmask).bit_count() < delta:
            return False
    return True


def search_min_config(
    graph: TannerGraph,
    p: int,
    delta: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
    symmetry: bool = True,
    prune: bool = True,
) -> SearchResult:
    """Exhaustive search for a p-a-side embedded subgraph of min degree delta.

    Backtracks over point sets in id order. Every vertex of the subgraph may
    be non-incident to at most q = p - delta chosen vertices of the other
    side, so the search tracks per-hyperplane miss counts and prunes branches
    whose surviving hyperplanes cannot reach p, plus (when prune is set)
    common-neighbor floors: any k chosen points must share at least p - k*q
    chosen hyperplanes, while k independent points have only a formula-bound
    number of common hyperplanes in the whole geometry.

    With symmetry enabled (and p >= 4, where every witness point set contains
    3 independent points), the first independent triple is fixed to the
    canonical {1, 2, 4}: the collineation group GL(6, GF(2)) acts
    transitively on independent triples, so a witness exists iff one
    containing that triple does. NOT_FOUND is a proof of non-existence;
    TIMEOUT means the node budget ran out first. Traversal is deterministic,
    so outcomes and node counts are reproducible.
    """
    n_side = graph.n_side
    if not 1 <= p <= n_side:
        raise ValueError(f"partition size must be in [1, {n_side}], got {p}")
    if not 1 <= delta <= graph.degree:
        raise ValueError(f"min degree must be in [1, {graph.degree}], got {delta}")
    if delta > p:
        raise ValueError(
            f"min degree {delta} exceeds the opposite partition size {p}"
        )
    masks = graph.space.incidence_masks
    q = p - delta
    state = _SearchState(graph, masks, n_side, p, delta, q, budget, prune)

    try:
        if symmetry and p >= 4:
            # Fixed independent triple; remaining points from all other ids.
            base = [1, 2, 4]
            zs = state.initial_misses()
            for pt in base:
                zs = state.bump_misses(zs, pt)
            candidates = [i for i in range(1, n_side + 1) if i not in base]
            state.extend(base, zs, candidates, 0)
        else:
            state.extend([], state.initial_misses(), list(range(1, n_side + 1)), 0)
    except _Budget:
        return SearchResult(SearchStatus.TIMEOUT, None, state.nodes)
    except _Found as hit:
        points, hyperplanes = hit.witness
        if not verify_config(graph, points, hyperplanes, delta):
            raise RuntimeError("search produced an invalid witness") from None
        return SearchResult(SearchStatus.FOUND, (points, hyperplanes), state.nodes)
    return SearchResult(SearchStatus.NOT_FOUND, None, state.nodes)


class _Found(Exception):
    def __init__(self, witness):
        self.witness = witness


class _SearchState:
    """Backtracking state shared across the recursion.

    Miss counts are carried as a tuple of q+1 bitmasks: buckets[i] holds the
    hyperplanes non-incident to exactly i chosen points; anything missed more
    than q times is dead and drops out. The tuples are immutable and passed
    down the recursion, so no undo is needed.
    """

    def __init__(self, graph, masks, n_side, p, delta, q, budget, prune):
        self.graph = graph
        self.masks = masks
        self.full = (1 << n_side) - 1
        self.n_side = n_side
        self.p = p
        self.delta = delta
        self.q = q
        self.budget = budget
        self.prune = prune
        self.nodes = 0
        # Common hyperplanes of k independent points: only those orthogonal
        # to a rank-k subspace remain, 2^(d+1-k) - 1 of them; branches that
        # demand more than geometry can supply are cut.
        self.subset_k_max = 4 if p <= 16 else 2

    def initial_misses(self):
        return (self.full,) + (0,) * self.q

    def bump_misses(self, buckets, pt):
        m = self.masks[pt]
        not_m = ~m & self.full
        out = [buckets[0] & m]
        for i in range(1, self.q + 1):
            out.append((buckets[i] & m) | (buckets[i - 1] & not_m))
        return tuple(out)

    def extend(self, chosen, buckets, candidates, next_idx):
        self.nodes += 1
        if self.nodes > self.budget:
            raise _Budget
        if len(chosen) == self.p:
            hyperplanes = self._select_hyperplanes(chosen, buckets)
            if hyperplanes is not None:
                raise _Found((tuple(chosen), tuple(hyperplanes)))
            return
        remaining = self.p - len(chosen)
        for i in range(next_idx, len(candidates) - remaining + 1):
            pt = candidates[i]
            nb = self.bump_misses(buckets, pt)
            if self._feasible(chosen, pt, nb):
                chosen.append(pt)
                self.extend(chosen, nb, candidates, i + 1)
                chosen.pop()

    def _count_bound(self, chosen_and_new, buckets):
        """Upper bound on how many hyperplanes a completed run could select.

        Selected hyperplanes must survive with miss counts <= q, and their
        current miss total is charged entirely to the points chosen so far,
        whose joint budget is len(chosen)*q (cheapest buckets first). For
        q = 1 the bound sharpens to one single-miss hyperplane per missed
        point.
        """
        if self.q == 0:
            return buckets[0].bit_count()
        if self.q == 1:
            a0, a1 = buckets
            bound = a0.bit_count()
            if a1:
                for pt in chosen_and_new:
                    if a1 & ~self.masks[pt]:
                        bound += 1
            return bound
        budget = len(chosen_and_new) * self.q
        best = 0
        for cost in range(self.q + 1):
            n_here = buckets[cost].bit_count()
            if cost:
                n_here = min(n_here, budget // cost)
                budget -= n_here * cost
            best += n_here
        return best

    def _feasible(self, chosen, pt, buckets):
        if self._count_bound(chosen + [pt], buckets) < self.p:
            return False
        if not self.prune:
            return True
        alive = 0
        for b in buckets:
            alive |= b
        kmax = min(self.subset_k_max, len(chosen) + 1)
        for k in range(2, kmax + 1):
            floor = self.p - k * self.q
            if floor <= 0:
                continue
            for subset in itertools.combinations(chosen, k - 1):
                common = self.masks[pt]
                for s in subset:
                    common &= self.masks[s]
                if (common & alive).bit_count() < floor:
                    return False
        return True

    def _select_hyperplanes(self, chosen, buckets):
        """Pick p hyperplanes compatible with the full point set, or None."""
        q = self.q
        picks = mask_to_ids(buckets[0])
        if len(picks) >= self.p:
            return picks[: self.p]
        if q == 0:
            return None
        if q == 1:
            a1 = buckets[1]
            used = set(picks)
            for pt in chosen:
                extra = a1 & ~self.masks[pt]
                if extra:
                    h = (extra & -extra).bit_length()
                    if h not in used:
                        picks.append(h)
                        used.add(h)
                        if len(picks) == self.p:
                            return sorted(picks)
            return None
        # General budgets: exact backtracking over surviving hyperplanes
        # with per-point miss allowances.
        alive_mask = 0
        for b in buckets:
            alive_mask |= b
        alive = mask_to_ids(alive_mask)
        allowance = {pt: q for pt in chosen}

        def pick(idx, acc):
            self.nodes += 1
            if self.nodes > self.budget:
                raise _Budget
            if len(acc) == self.p:
                return list(acc)
            if len(acc) + len(alive) - idx < self.p:
                return None
            for j in range(idx, len(alive)):
                h = alive[j]
                missed = [pt for pt in chosen if not self.masks[pt] & (1 << (h - 1))]
                if any(allowance[pt] == 0 for pt in missed):
                    continue
                for pt in missed:
                    allowance[pt] -= 1
                acc.append(h)
                hit = pick(j + 1, acc)
                acc.pop()
                for pt in missed:
                    allowance[pt] += 1
                if hit is not None:
                    return hit
            return None

        return pick(0, [])
