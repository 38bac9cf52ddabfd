"""Labeled bipartite point-hyperplane Tanner graphs.

Code symbols live on edges. The edge numbering interleaves consecutive
symbols across point vertices: the k-th edge of point vertex v (k = 1..degree)
carries label v + n_side*(k-1), so any run of n_side consecutive labels touches
every point vertex exactly once. Within a vertex, edges are ordered by the
opposite endpoint's id ascending; this ordering defines the symbol positions
of the component codes and is frozen as part of the code's identity.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from pgcodes.projgeom import ProjectiveSpace, containing_count, mask_to_ids


class TannerGraph:
    """Point-hyperplane incidence graph of PG(d, GF(2)) with edge labels.

    Immutable after construction; adjacency and label-index arrays are
    precomputed so decoders can gather component words with one fancy index.
    """

    def __init__(self, space: ProjectiveSpace):
        if space.d < 2:
            raise ValueError("point-hyperplane graphs need projective dimension >= 2")
        self.space = space
        self.d = space.d
        self.n_side = space.n_points
        degree = space.hyperplane_degree(1)
        for p in space.points:
            if space.hyperplane_degree(p) != degree:
                raise RuntimeError("incidence structure is not regular")
        self.degree = degree
        self.n_edges = self.n_side * degree

        n = self.n_side
        # point_adj[v-1] = hyperplane ids incident to point v, ascending.
        # Incidence is symmetric in this representation, so row h-1 also
        # lists the points on hyperplane h, ascending.
        point_adj = np.zeros((n, degree), dtype=np.int64)
        for p in space.points:
            row = mask_to_ids(space.incidence_masks[p])
            if len(row) != degree:
                raise RuntimeError("incidence structure is not regular")
            point_adj[p - 1] = row

        # rank[v-1][h-1] = 0-based position of hyperplane h in point v's row.
        rank = np.full((n, n), -1, dtype=np.int64)
        rows = np.repeat(np.arange(n), degree)
        rank[rows, point_adj.ravel() - 1] = np.tile(np.arange(degree), n)

        # Symbol index (label-1) of the k-th edge of point v: (v-1) + n*(k-1).
        point_edge_idx = (
            np.arange(n)[:, None] + n * np.arange(degree)[None, :]
        ).astype(np.intp)
        # For hyperplane h, its k-th edge joins point p = point_adj[h-1, k];
        # that edge's label comes from p's side of the numbering.
        pts = point_adj - 1
        hpl_edge_idx = (pts + n * rank[pts, np.arange(n)[:, None]]).astype(np.intp)

        self.point_adj = point_adj
        self.point_edge_idx = point_edge_idx
        self.hpl_edge_idx = hpl_edge_idx
        self._rank = rank

    def __repr__(self) -> str:
        return (
            f"TannerGraph(d={self.d}, vertices={2 * self.n_side}, "
            f"degree={self.degree}, edges={self.n_edges})"
        )

    # ------------------------------------------------------------------
    # labels

    def label_of(self, v: int, k: int) -> int:
        """Label of the k-th edge (1-based) of point vertex v."""
        if not 1 <= v <= self.n_side:
            raise ValueError(f"point vertex out of range: {v}")
        if not 1 <= k <= self.degree:
            raise ValueError(f"local edge index out of range: {k}")
        return v + self.n_side * (k - 1)

    def position_of(self, label: int) -> tuple[int, int]:
        """Inverse of label_of: (point vertex, local edge index)."""
        if not 1 <= label <= self.n_edges:
            raise ValueError(f"label out of range: {label}")
        return (label - 1) % self.n_side + 1, (label - 1) // self.n_side + 1

    def edge_endpoints(self, label: int) -> tuple[int, int]:
        """(point id, hyperplane id) of the edge carrying the label."""
        v, k = self.position_of(label)
        return v, int(self.point_adj[v - 1, k - 1])

    def label_of_pair(self, p: int, h: int) -> int:
        """Label of the edge joining point p and hyperplane h."""
        if not (1 <= p <= self.n_side and 1 <= h <= self.n_side):
            raise ValueError(f"vertex ids must be in [1, {self.n_side}], got ({p}, {h})")
        k = int(self._rank[p - 1, h - 1])
        if k < 0:
            raise ValueError(f"point {p} and hyperplane {h} are not incident")
        return p + self.n_side * k

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (label, point, hyperplane) in ascending label order."""
        for label in range(1, self.n_edges + 1):
            p, h = self.edge_endpoints(label)
            yield label, p, h

    def edge_lines(self) -> list[str]:
        """Labeled edge-list export: 'label pointId hyperplaneId' per line."""
        return [f"{label} {p} {h}" for label, p, h in self.edges()]

    # ------------------------------------------------------------------
    # spectral structure

    @property
    def incidence_matrix(self) -> np.ndarray:
        """The n_side x n_side 0/1 point-hyperplane incidence matrix N."""
        n = self.n_side
        N = np.zeros((n, n), dtype=np.int64)
        rows = np.repeat(np.arange(n), self.degree)
        N[rows, self.point_adj.ravel() - 1] = 1
        return N

    def gram_check(self) -> tuple[int, int]:
        """Verify N*N^T = (k - l)*I + l*J exactly over the integers.

        k is the vertex degree and l the number of hyperplanes through a
        line; the identity certifies the symmetric 2-design structure and
        pins the bipartite second eigenvalue at sqrt(k - l) without any
        floating-point eigensolver. Returns (k, l); a mismatch means the
        graph construction is broken.
        """
        lambda_design = 1 if self.d == 2 else containing_count(self.d, 1, self.d - 1, 2)
        N = self.incidence_matrix
        M = N @ N.T
        n = self.n_side
        expected = (self.degree - lambda_design) * np.eye(n, dtype=np.int64)
        expected += lambda_design * np.ones((n, n), dtype=np.int64)
        if not np.array_equal(M, expected):
            raise RuntimeError("incidence Gram matrix violates the design identity")
        return self.degree, lambda_design

    def second_eigenvalue(self) -> float:
        """Second-largest eigenvalue of the 2n x 2n bipartite adjacency matrix.

        Equals sqrt(k - l) by the design identity; exact for the d=5 graph
        where k - l = 16.
        """
        k, lambda_design = self.gram_check()
        return math.sqrt(k - lambda_design)


def build_graph(d: int = 5) -> TannerGraph:
    """Tanner graph of the points and hyperplanes of PG(d, GF(2))."""
    return TannerGraph(ProjectiveSpace(d))

