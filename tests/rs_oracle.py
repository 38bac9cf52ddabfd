"""The scalar Reed-Solomon decoder, the oracle for the batched kernel.

This is the component decoder the library used before its decoding moved
to one lockstep numpy kernel (pgcodes.rscodec.decode_batch): one word at a
time, Massey's LFSR synthesis on Python lists, a Chien search over all
parent-code positions and a per-root Forney loop. test_rscodec checks the
kernel against it row by row.

batch_syndromes and locator_roots are the kernel's syndromes and Chien
search as it computed them before both read packed uint64 tables: one
mul_table gather of every (row, coefficient, position) product.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from pgcodes.galois import GF
from pgcodes.rscodec import RsOutcome, RsParams, RsStatus
from poly_oracle import poly_add, poly_norm


def syndromes(params: RsParams, word: Sequence[int]) -> list[int]:
    """S_i = sum_j word[j] * alpha^(i*j) for i = 1..epsilon-1."""
    f = params.field
    out = []
    for i in range(1, params.two_t + 1):
        acc = 0
        for j, c in enumerate(word):
            acc ^= f.mul(c, f.exp_alpha(i * j))
        out.append(acc)
    return out


def batch_syndromes(params: RsParams, words: np.ndarray) -> np.ndarray:
    """(B, n) uint8 words -> (B, 2t) syndromes, by one (B, 2t, n) gather."""
    mt = params.field.mul_table
    prod = mt[params._power_matrix[None, :, :], words[:, None, :]]
    return np.bitwise_xor.reduce(prod, axis=2)


def locator_roots(params: RsParams, locators: np.ndarray) -> np.ndarray:
    """(B, 2t+1) locators -> (B, n) mask of roots at alpha^(-j), by one (B, n, 2t+1) gather."""
    mt = params.field.mul_table
    vals = mt[params._chien_matrix[None, :, :], locators[:, None, :]]
    return np.bitwise_xor.reduce(vals, axis=2) == 0


def rs_decode(
    params: RsParams, received: Sequence[int], erasures: Iterable[int] = ()
) -> RsOutcome:
    """Bounded-distance errors-and-erasures decoding via Berlekamp-Massey."""
    f_ = params.field
    n = params.n
    two_t = params.two_t
    received = [int(c) for c in received]
    erasures = sorted(set(erasures))
    n_erased = len(erasures)
    if n_erased > two_t:
        raise ValueError(f"at most {two_t} erasures are usable, got {n_erased}")

    work = list(received)
    for j in erasures:
        work[j] = 0
    synd = syndromes(params, work)
    if not any(synd):
        return RsOutcome(RsStatus.CORRECTED, work, 0, n_erased)

    # Erasure locator gamma(x) = prod (1 - alpha^j x) seeds the key equation.
    gamma = [1]
    for j in erasures:
        gamma = f_.poly_mul(gamma, [1, f_.exp_alpha(j)])
    locator = _berlekamp_massey(f_, synd, two_t, gamma, n_erased)

    deg = len(locator) - 1
    n_errors = deg - n_erased
    if locator[0] != 1 or n_errors < 0 or 2 * n_errors + n_erased > two_t:
        return _failed(received, n_erased)
    roots = [
        j for j in range(params.parent_n) if f_.poly_eval(locator, f_.exp_alpha(-j)) == 0
    ]
    if len(roots) != deg:
        return _failed(received, n_erased)
    if roots and roots[-1] >= n:
        # A locator root in the shortened virtual region is a sure failure.
        return _failed(received, n_erased)

    # Forney: error value at position j is omega(X^-1) / locator'(X^-1) with
    # X = alpha^j and omega = synd(x) * locator(x) mod x^(2t).
    omega = f_.poly_mul(synd, locator)[:two_t]
    deriv = [0] * max(1, deg)
    for i in range(1, deg + 1, 2):
        deriv[i - 1] = locator[i]
    candidate = list(work)
    for j in roots:
        x_inv = f_.exp_alpha(-j)
        denom = f_.poly_eval(deriv, x_inv)
        if denom == 0:
            return _failed(received, n_erased)
        candidate[j] ^= f_.mul(f_.poly_eval(omega, x_inv), f_.inv(denom))

    if any(syndromes(params, candidate)):
        return _failed(received, n_erased)
    erased = set(erasures)
    n_corrected = sum(
        1 for j in range(n) if j not in erased and candidate[j] != received[j]
    )
    return RsOutcome(RsStatus.CORRECTED, candidate, n_corrected, n_erased)


def _failed(received: Sequence[int], n_erased: int) -> RsOutcome:
    return RsOutcome(RsStatus.FAILED, list(received), 0, n_erased)


def _scale(field: GF, p: Sequence[int], c: int) -> list[int]:
    return [field.mul(coef, c) for coef in p]


def _berlekamp_massey(
    field: GF, synd: Sequence[int], two_t: int, gamma: Sequence[int], n_erased: int
) -> list[int]:
    """Errata locator from syndromes, seeded with the erasure locator.

    Massey's LFSR synthesis in its structural form: the shift register and
    the correction register both start at gamma, and the first n_erased
    syndromes are skipped because the erasures already explain them.
    """
    cur = list(gamma)
    prev = list(gamma)
    for i in range(two_t - n_erased):
        k = i + n_erased
        delta = synd[k]
        for j in range(1, len(cur)):
            if j > k:
                break
            if cur[j] and synd[k - j]:
                delta ^= field.mul(cur[j], synd[k - j])
        prev = [0] + prev
        if delta:
            if len(prev) > len(cur):
                swapped = _scale(field, prev, delta)
                prev = _scale(field, cur, field.inv(delta))
                cur = swapped
            cur = poly_add(cur, _scale(field, prev, delta))
    cur = poly_norm(cur)
    return cur if cur else [0]
