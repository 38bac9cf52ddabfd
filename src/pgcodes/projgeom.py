"""Finite projective spaces PG(d, GF(s)): counting, incidence, and flats.

Points and hyperplanes of PG(d, GF(2)) are both identified by the integer
encoding of their nonzero (d+1)-bit coordinate / normal vectors, so ids run
over 1 .. 2^(d+1) - 1. A point lies on a hyperplane iff the GF(2) dot product
of the two vectors is zero, which makes point/hyperplane duality a literal
identity map on ids.

Counting helpers accept any prime-power order s; flats and incidence are
implemented for s = 2 only, which is all the code construction uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


def num_points(d: int, s: int = 2) -> int:
    """Number of points of PG(d, GF(s)): (s^(d+1) - 1) / (s - 1)."""
    if d < 0:
        raise ValueError(f"projective dimension must be >= 0, got {d}")
    if s < 2:
        raise ValueError(f"field order must be >= 2, got {s}")
    return (s ** (d + 1) - 1) // (s - 1)


def gaussian_coefficient(n: int, l: int, s: int = 2) -> int:
    """Number of l-dimensional projective subspaces of PG(n, GF(s)).

    Computed as the Gaussian coefficient
    (s^(n+1)-1)(s^n-1)...(s^(n-l+1)-1) / ((s-1)(s^2-1)...(s^(l+1)-1)).
    """
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= n, got l={l}, n={n}")
    num = 1
    den = 1
    for i in range(l + 1):
        num *= s ** (n + 1 - i) - 1
        den *= s ** (i + 1) - 1
    assert num % den == 0
    return num // den


def containing_count(d: int, l: int, m: int, s: int = 2) -> int:
    """Number of m-dimensional subspaces of PG(d, GF(s)) containing a fixed
    l-dimensional subspace: the Gaussian coefficient at (d-l-1, m-l-1)."""
    if not -1 <= l < m <= d:
        raise ValueError(f"need -1 <= l < m <= d, got l={l}, m={m}, d={d}")
    return gaussian_coefficient(d - l - 1, m - l - 1, s)


def mask_to_ids(mask: int) -> list[int]:
    """Ids whose bit (id - 1) is set in the mask, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length())
        mask ^= low
    return ids


@dataclass(frozen=True)
class Flat:
    """A projective subspace of PG(d, GF(2)) as an explicit point set.

    The point set is the canonical identity of a flat; the basis is one
    convenient (non-canonical) choice of independent vectors spanning it.
    Equality and hashing therefore use the point set only.
    """

    dimension: int
    points: tuple[int, ...]
    basis: tuple[int, ...] = field(compare=False)

    def __post_init__(self) -> None:
        if len(self.points) != (1 << (self.dimension + 1)) - 1:
            raise ValueError(
                f"a {self.dimension}-flat over GF(2) has "
                f"{(1 << (self.dimension + 1)) - 1} points, got {len(self.points)}"
            )

    def __contains__(self, point: int) -> bool:
        return point in self.points


def span(points: Iterable[int]) -> Flat:
    """Smallest flat containing the given points (GF(2) linear closure)."""
    basis: list[int] = []
    for v in sorted(set(points)):
        if v <= 0:
            raise ValueError(f"point ids are positive integers, got {v}")
        w = v
        for b in basis:
            w = min(w, w ^ b)
        if w:
            basis.append(w)
            basis.sort(reverse=True)
    if not basis:
        raise ValueError("span of an empty point set is undefined")
    closure = {0}
    for b in basis:
        closure |= {c ^ b for c in closure}
    closure.discard(0)
    return Flat(
        dimension=len(basis) - 1,
        points=tuple(sorted(closure)),
        basis=tuple(basis),
    )


class ProjectiveSpace:
    """PG(d, GF(2)) with precomputed point-hyperplane incidence bitmasks.

    Immutable after construction; all cached structures are read-only.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError(f"need projective dimension >= 1, got {d}")
        self.d = d
        self.n_points = (1 << (d + 1)) - 1
        self.n_hyperplanes = self.n_points
        # incidence_masks[v] has bit (w-1) set iff dot(v, w) = 0 over GF(2).
        # The matrix is symmetric, so one array serves both vertex classes.
        masks = [0] * (self.n_points + 1)
        for p in range(1, self.n_points + 1):
            m = 0
            for h in range(1, self.n_points + 1):
                if (p & h).bit_count() % 2 == 0:
                    m |= 1 << (h - 1)
            masks[p] = m
        self.incidence_masks: tuple[int, ...] = tuple(masks)
        self._planes: tuple[Flat, ...] | None = None

    def __repr__(self) -> str:
        return f"ProjectiveSpace(d={self.d})"

    @property
    def points(self) -> range:
        return range(1, self.n_points + 1)

    hyperplanes = points

    def incident(self, p: int, h: int) -> bool:
        return bool(self.incidence_masks[p] & (1 << (h - 1)))

    def hyperplane_degree(self, p: int) -> int:
        return self.incidence_masks[p].bit_count()

    def hyperplanes_through(self, f: Flat) -> list[int]:
        """All hyperplanes whose point set contains the flat.

        A hyperplane contains a flat iff its normal is orthogonal to every
        basis vector, so the result is the AND of the basis incidence masks.
        """
        self._check_flat(f)
        m = -1
        for b in f.basis:
            m &= self.incidence_masks[b]
        return mask_to_ids(m & ((1 << self.n_points) - 1))

    def planes(self) -> tuple[Flat, ...]:
        """All projective-dimension-2 flats, sorted by point tuple.

        Enumerated once by closing independent triples and de-duplicating on
        the 7-point set; the order is deterministic and indexable. The scan
        is cubic in the point count, fine for d = 5 (0.2 s) but slow past
        d = 7; counting alone should use gaussian_coefficient instead.
        """
        if self._planes is None:
            seen: dict[tuple[int, ...], Flat] = {}
            n = self.n_points
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    ab = a ^ b
                    for c in range(b + 1, n + 1):
                        if c == ab:
                            continue
                        f = span((a, b, c))
                        seen.setdefault(f.points, f)
            self._planes = tuple(seen[k] for k in sorted(seen))
        return self._planes

    def _check_flat(self, f: Flat) -> None:
        if not all(1 <= p <= self.n_points for p in f.points):
            raise ValueError("flat has points outside this space")
        if f.dimension > self.d:
            raise ValueError("flat dimension exceeds the ambient space")
