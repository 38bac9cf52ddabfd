"""The gather-formula GF(256) linear algebra, the oracle for the bit-plane code.

These are encode and the row reduction as the library computed them before
both became XORs of rows selected by bit planes (pgcodes.expcode): every
product goes through one mul_table gather over a whole rows x columns block.
test_expcode checks the bit-plane versions against them.
"""

from __future__ import annotations

import numpy as np

from pgcodes.galois import GF


def encode(field: GF, message: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Codeword = message * G, one gather of every message symbol times its row."""
    mt = field.mul_table
    return np.bitwise_xor.reduce(mt[message[:, None], G], axis=0)


def row_reduce(field: GF, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2^m) by table-driven elimination."""
    A = M.copy()
    mt = field.mul_table
    inv = np.array([0] + [field.inv(v) for v in range(1, field.q)], dtype=np.uint8)
    n_rows, n_cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        col = A[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        p = r + nz[0]
        if p != r:
            A[[r, p]] = A[[p, r]]
        A[r] = mt[inv[A[r, c]], A[r]]
        col_all = A[:, c].copy()
        col_all[r] = 0
        rows = np.nonzero(col_all)[0]
        if rows.size:
            A[rows] ^= mt[col_all[rows][:, None], A[r][None, :]]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return A, pivots
