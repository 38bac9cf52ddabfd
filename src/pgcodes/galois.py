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
    """GF(2^m) with log/antilog multiplication tables, generated by alpha = 2.

    Tables are built once by repeated doubling under the reduction polynomial
    and validated at construction: the powers of alpha must enumerate every
    nonzero element exactly once. Instances are immutable after construction
    and safe for unrestricted concurrent reads.
    """

    def __init__(self, m: int = 8, reduction_poly: int | None = None):
        if m < 2:
            raise ValueError(f"field degree must be >= 2, got {m}")
        if reduction_poly is None:
            try:
                reduction_poly = DEFAULT_REDUCTION_POLY[m]
            except KeyError:
                raise ValueError(
                    f"no built-in reduction polynomial for m={m}; pass one explicitly"
                ) from None
        if reduction_poly >> m != 1:
            raise ValueError(
                f"reduction polynomial 0x{reduction_poly:X} does not have degree {m}"
            )
        self.m = m
        self.q = 1 << m
        self.order = self.q - 1
        self.reduction_poly = reduction_poly
        self.alpha = 2

        exp = [0] * (2 * self.order)
        log = [0] * self.q
        x = 1
        for i in range(self.order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.q:
                x ^= reduction_poly
        if x != 1 or sorted(exp[: self.order]) != list(range(1, self.q)):
            raise ValueError(
                f"alpha=2 is not primitive for reduction polynomial 0x{reduction_poly:X}"
            )
        # Doubled antilog table avoids a modulo in the mul() hot path.
        exp[self.order :] = exp[: self.order]
        self._exp = exp
        self._log = log
        self._mul_table: np.ndarray | None = None
        self._inv_table: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"GF(2^{self.m}, poly=0x{self.reduction_poly:X})"

    # ------------------------------------------------------------------
    # element arithmetic

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[self.order - self._log[a]]

    def exp_alpha(self, i: int) -> int:
        """alpha**i for any integer i."""
        return self._exp[i % self.order]

    @property
    def mul_table(self) -> np.ndarray:
        """Dense (q, q) product lookup table for vectorized row operations.

        Only materialized for m <= 8 (64 KiB at m=8); larger fields should use
        the scalar routines.
        """
        if self._mul_table is None:
            self._build_tables()
        return self._mul_table

    @property
    def inv_table(self) -> np.ndarray:
        """(q,) inverse lookup table, with inv_table[0] = 0 so that masked
        zero entries can be looked up too. Same m <= 8 limit as mul_table."""
        if self._inv_table is None:
            self._build_tables()
        return self._inv_table

    def _build_tables(self) -> None:
        if self.q > 256:
            raise ValueError("dense multiplication table limited to m <= 8")
        logs = np.array(self._log, dtype=np.int64)
        exps = np.array(self._exp[: self.order], dtype=np.uint8)
        table = np.zeros((self.q, self.q), dtype=np.uint8)
        table[1:, 1:] = exps[(logs[1:, None] + logs[None, 1:]) % self.order]
        inv = exps[-logs % self.order]
        inv[0] = 0
        self._mul_table, self._inv_table = table, inv

    def symbols(self, values: Sequence[int] | np.ndarray, what: str) -> np.ndarray:
        """values as a new uint8 array (m <= 8); ValueError unless every entry
        is an integer in [0, q). Floats and bools are rejected, not truncated."""
        arr = np.asarray(values)
        if arr.size and (
            not np.issubdtype(arr.dtype, np.integer) or arr.min() < 0 or arr.max() >= self.q
        ):
            raise ValueError(f"{what} symbols must be integers in [0, {self.q})")
        return arr.astype(np.uint8)

    # ------------------------------------------------------------------
    # linear algebra (m <= 8)

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
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a == 0:
                continue
            la = self._log[a]
            for j, b in enumerate(q):
                if b:
                    out[i + j] ^= self._exp[la + self._log[b]]
        return out

    def poly_eval(self, p: Sequence[int], x: int) -> int:
        """Evaluate at x by Horner's rule."""
        y = 0
        for c in reversed(p):
            y = self.mul(y, x) ^ c
        return y
