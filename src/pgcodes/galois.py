"""Arithmetic over GF(2^m) and polynomials with coefficients in the field.

Field elements are plain ints in [0, 2^m - 1]: bit i is the coefficient of
x^i in the polynomial basis, so addition is XOR. Polynomials over the field
are lists of ints, lowest-degree coefficient first; the zero polynomial is
the empty list.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Primitive reduction polynomials (x^m term included), one per supported m.
# The element 2 (the polynomial x) is a primitive root for each of these;
# construction validates that and rejects non-primitive choices.
DEFAULT_REDUCTION_POLY = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11D,
}


class GF:
    """GF(2^m) for m <= 8, with numpy lookup tables, generated by alpha = 2.

    The powers of alpha are built once by repeated doubling under the
    reduction polynomial and validated: they must enumerate every nonzero
    element exactly once. From them __init__ builds every table as a numpy
    array: exp (alpha^i for i < q - 1), log, the dense (q, q) mul_table and
    inv_table (with inv_table[0] = 0, so that masked zero entries can be
    looked up too). Symbols are bytes, so m > 8 is rejected. Instances are
    immutable after construction and safe for unrestricted concurrent reads.
    """

    def __init__(self, m: int = 8, reduction_poly: int | None = None):
        if not 2 <= m <= 8:
            raise ValueError(f"field degree must be in [2, 8], got {m}")
        if reduction_poly is None:
            reduction_poly = DEFAULT_REDUCTION_POLY[m]
        if reduction_poly >> m != 1:
            raise ValueError(
                f"reduction polynomial 0x{reduction_poly:X} does not have degree {m}"
            )
        self.m = m
        self.q = 1 << m
        self.order = self.q - 1
        self.reduction_poly = reduction_poly

        powers = []
        x = 1
        for _ in range(self.order):
            powers.append(x)
            x <<= 1
            if x & self.q:
                x ^= reduction_poly
        if x != 1 or sorted(powers) != list(range(1, self.q)):
            raise ValueError(
                f"alpha=2 is not primitive for reduction polynomial 0x{reduction_poly:X}"
            )
        exp = np.array(powers, dtype=np.uint8)
        log = np.zeros(self.q, dtype=np.int64)
        log[exp] = np.arange(self.order)
        mul_table = np.zeros((self.q, self.q), dtype=np.uint8)
        mul_table[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % self.order]
        inv_table = exp[-log % self.order]
        inv_table[0] = 0
        self.exp, self.log, self.mul_table, self.inv_table = exp, log, mul_table, inv_table

    def __repr__(self) -> str:
        return f"GF(2^{self.m}, poly=0x{self.reduction_poly:X})"

    # ------------------------------------------------------------------
    # element arithmetic

    def mul(self, a: int, b: int) -> int:
        return self.mul_table.item(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.inv_table.item(a)

    def exp_alpha(self, i: int) -> int:
        """alpha**i for any integer i."""
        return self.exp.item(i % self.order)

    def symbols(self, values: Sequence[int] | np.ndarray, what: str) -> np.ndarray:
        """values as a new uint8 array; ValueError unless every entry
        is an integer in [0, q). Floats and bools are rejected, not truncated."""
        arr = np.asarray(values)
        if arr.size and (
            not np.issubdtype(arr.dtype, np.integer) or arr.min() < 0 or arr.max() >= self.q
        ):
            raise ValueError(f"{what} symbols must be integers in [0, {self.q})")
        return arr.astype(np.uint8)

    # ------------------------------------------------------------------
    # linear algebra

    def row_reduce(self, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form over GF(2^m), row updates by bit planes.

        At pivot (r, c) the pivot row is zero left of c, so only columns c: move.
        A row with coefficient v there takes the XOR of x^b times the pivot row
        over the bits b of v: m products per pivot instead of one per entry.
        """
        A = M.copy()
        mt = self.mul_table
        x_b = 1 << np.arange(self.m)
        n_rows, n_cols = A.shape
        pivots: list[int] = []
        r = 0
        for c in range(n_cols):
            nz = np.nonzero(A[r:, c])[0]
            if nz.size == 0:
                continue
            p = r + nz[0]
            if p != r:
                A[[r, p]] = A[[p, r]]
            A[r, c:] = mt[self.inv_table[A[r, c]], A[r, c:]]
            coef = A[:, c].copy()
            coef[r] = 0
            planes = mt[x_b[:, None], A[r, c:]]
            for b in range(self.m):
                rows = np.nonzero(coef & x_b[b])[0]
                if rows.size:
                    A[rows, c:] ^= planes[b]
            pivots.append(c)
            r += 1
            if r == n_rows:
                break
        return A, pivots

    # ------------------------------------------------------------------
    # polynomial arithmetic (lowest-degree coefficient first), for the oracles
    # in tests/; bench/run.py counts calls of mul, poly_mul and poly_eval.

    def poly_mul(self, p: Sequence[int], q: Sequence[int]) -> list[int]:
        if not p or not q:
            return []
        mt = self.mul_table
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            row = mt[a]
            for j, b in enumerate(q):
                out[i + j] ^= row.item(b)
        return out

    def poly_eval(self, p: Sequence[int], x: int) -> int:
        """Evaluate at x by Horner's rule."""
        y = 0
        for c in reversed(p):
            y = self.mul(y, x) ^ c
        return y
