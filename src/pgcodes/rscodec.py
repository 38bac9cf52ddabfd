"""Shortened Reed-Solomon codecs over GF(2^m) with explicit failure detection.

The component code of the graph code is the (255, 255-(epsilon-1)) parent
code over GF(256) shortened to its first n symbols: word position j carries
the coefficient of x^j, positions n..254 are virtual zeros, and a word is a
codeword iff its syndromes S_i = sum_j c_j * alpha^(i*j) vanish for
i = 1..epsilon-1 (consecutive roots starting at alpha^1). Those syndrome
functionals are the only description of the code: rs_encode reads its
systematic parity off their reduced row echelon form.

There is one decoder, decode_batch, which runs errors-and-erasures decoding
on a batch of words in lockstep: every step (erasure locator, a fixed 2t
steps of Berlekamp-Massey, Chien search over the n real positions, Forney,
and the closing syndrome check) is a numpy table lookup over all rows at
once, with a per-row mask where rows differ. rs_decode is its batch-of-1
wrapper.

The decoder never hides trouble: any detected inconsistency (locator degree
over budget, fewer locator roots among the n real positions than its degree,
a zero Forney denominator, or nonzero syndromes after correction) returns
the input verbatim with a FAILED status. That skip semantics is what the
outer iterative decoder relies on to leave hopeless component blocks
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from pgcodes.galois import GF


class RsStatus(Enum):
    CORRECTED = "corrected"
    FAILED = "failed"


@dataclass
class RsOutcome:
    """Result of one component decode.

    status CORRECTED guarantees the word is a valid codeword (its syndromes
    were re-verified); status FAILED guarantees the word equals the decoder
    input bit for bit.
    """

    status: RsStatus
    word: list[int]
    errors_corrected: int
    erasures_used: int

    @property
    def ok(self) -> bool:
        return self.status is RsStatus.CORRECTED


class RsParams:
    """Parameters and precomputed tables of one shortened RS code.

    Syndromes and the Chien search are GF(2)-linear in their inputs, so each
    is an XOR of per-symbol table rows, packed 8 bytes to a uint64 word:
    _syndrome_table[j, v] holds the 2t bytes v * alpha^(i*j), and
    _chien_table[t, v] the n bytes v * alpha^(-j*t), each zero-padded to
    whole words.

    Immutable after construction except for the encoder's table, which the
    first encode builds (racing encodes build equal tables); decoding touches
    no shared mutable state, so decodes may run concurrently on one instance.
    """

    def __init__(self, n: int = 31, epsilon: int = 7, field: GF | None = None):
        if epsilon < 3 or epsilon % 2 == 0:
            raise ValueError(f"design distance must be odd and >= 3, got {epsilon}")
        self.field = field if field is not None else GF(8)
        self.parent_n = self.field.order
        if not 1 <= n <= self.parent_n:
            raise ValueError(f"block length must be in [1, {self.parent_n}], got {n}")
        if n - (epsilon - 1) < 1:
            raise ValueError(f"no message symbols left: n={n}, epsilon={epsilon}")
        self.n = n
        self.epsilon = epsilon
        self.k = n - (epsilon - 1)
        self.t = epsilon // 2
        self.two_t = epsilon - 1

        exp, order = self.field.exp, self.field.order
        j = np.arange(n)
        # power_matrix[i-1, j] = alpha^(i*j): the syndrome functionals.
        self._power_matrix = exp[np.arange(1, self.two_t + 1)[:, None] * j % order]
        # chien_matrix[j, t] = alpha^(-j*t): evaluation at alpha^(-j), the
        # inverse locator of position j.
        self._chien_matrix = exp[-j[:, None] * np.arange(self.two_t + 1) % order]
        # mul_table is symmetric, so mul_table[c] is the row of products c * v.
        mt = self.field.mul_table
        self._syndrome_table = _packed(mt[self._power_matrix].transpose(1, 2, 0))
        self._chien_table = _packed(mt[self._chien_matrix].transpose(1, 2, 0))

    def __repr__(self) -> str:
        return f"RsParams(n={self.n}, k={self.k}, epsilon={self.epsilon})"

    @cached_property
    def _unit_parity(self) -> np.ndarray:
        """(k, 2t) parities of the unit messages, built on the first encode.

        The syndrome functionals' first 2t columns form a Vandermonde block
        A, so their RRE form is [I | A^-1 B] and a codeword (parity, message)
        has parity = A^-1 B message: row i here is column i of A^-1 B.
        """
        rre, _ = self.field.row_reduce(self._power_matrix)
        return rre[:, self.two_t :].T.copy()

    def syndromes(self, word: Sequence[int]) -> list[int]:
        """S_i = sum_j word[j] * alpha^(i*j) for i = 1..epsilon-1."""
        return self.batch_syndromes(np.asarray(word, dtype=np.uint8)[None])[0].tolist()

    def batch_syndromes(self, words: np.ndarray) -> np.ndarray:
        """Syndromes of many words at once: (v, n) uint8 -> (v, 2t) uint8."""
        rows = self._syndrome_table[np.arange(self.n), words]
        return np.bitwise_xor.reduce(rows, axis=1).view(np.uint8)[:, : self.two_t]

    def locator_roots(self, locators: np.ndarray) -> np.ndarray:
        """Chien search: (B, 2t+1) locators -> (B, n) mask of locator(alpha^(-j)) = 0."""
        rows = self._chien_table[np.arange(self.two_t + 1), locators]
        return np.bitwise_xor.reduce(rows, axis=1).view(np.uint8)[:, : self.n] == 0


def _packed(rows: np.ndarray) -> np.ndarray:
    """(..., L) uint8 -> (..., ceil(L/8)) uint64 holding the same bytes, zero-padded."""
    buf = np.zeros(rows.shape[:-1] + (-(-rows.shape[-1] // 8) * 8,), dtype=np.uint8)
    buf[..., : rows.shape[-1]] = rows
    return buf.view(np.uint64)


def rs_encode(params: RsParams, message: Sequence[int]) -> list[int]:
    """Systematic encoding: parity in positions 0..epsilon-2, message above.

    The parity is the XOR over message symbols m_i of m_i times the parity
    of unit message i, so every codeword has zero syndromes.
    """
    msg = _check_symbols(params, message, params.k, "message")
    prods = params.field.mul_table[msg[:, None], params._unit_parity]
    return np.bitwise_xor.reduce(prods, axis=0).tolist() + msg.tolist()


def rs_decode(
    params: RsParams, received: Sequence[int], erasures: Iterable[int] = ()
) -> RsOutcome:
    """Bounded-distance errors-and-erasures decoding of one word.

    Corrects any pattern of e symbol errors and f declared erasures with
    2e + f <= epsilon - 1. Erasures are integer positions in [0, n).

    Calling with more than epsilon - 1 erasures is a domain error; every
    detected failure returns the input unchanged.
    """
    received = _check_symbols(params, received, params.n, "received word")
    erasures = np.unique(integer_indices(erasures, 0, params.n - 1, "erasure positions"))
    if len(erasures) > params.two_t:
        raise ValueError(f"at most {params.two_t} erasures are usable, got {len(erasures)}")
    word = received[None]
    erased = np.zeros(word.shape, dtype=bool)
    erased[0, erasures] = True
    out, ok = decode_batch(params, word, erased)
    if not ok[0]:
        return RsOutcome(RsStatus.FAILED, received.tolist(), 0, len(erasures))
    corrected = int(np.count_nonzero((out[0] != word[0]) & ~erased[0]))
    return RsOutcome(RsStatus.CORRECTED, out[0].tolist(), corrected, len(erasures))


def decode_batch(
    params: RsParams,
    words: np.ndarray,
    erased: np.ndarray | None = None,
    syndromes: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Errors-and-erasures decoding of B words in lockstep.

    words is (B, n) uint8 and erased an optional (B, n) bool mask of at most
    2t declared erasures per row. syndromes, when given, are the (B, 2t)
    syndromes of words; they stand in for a recomputation on rows without
    erasures. Returns (out, ok): where ok, out holds the decoded codeword;
    elsewhere out equals words.
    """
    if erased is None:
        erased = np.zeros(words.shape, dtype=bool)
    n_erased = erased.sum(axis=1)
    if n_erased.max(initial=0) > params.two_t:
        raise ValueError(f"at most {params.two_t} erasures per word are usable")
    out = np.where(erased, np.uint8(0), words)
    if syndromes is None:
        synd = params.batch_syndromes(out)
    else:
        synd = syndromes.copy()
        rows = np.nonzero(n_erased)[0]
        if rows.size:
            synd[rows] = params.batch_syndromes(out[rows])
    ok = ~synd.any(axis=1)
    todo = np.nonzero(~ok)[0]
    if todo.size:
        fixed, good = _correct(params, out[todo], erased[todo], n_erased[todo], synd[todo])
        out[todo] = np.where(good[:, None], fixed, words[todo])
        ok[todo] = good
    return out, ok


def _correct(
    params: RsParams,
    work: np.ndarray,
    erased: np.ndarray,
    n_erased: np.ndarray,
    synd: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The decoding steps proper, for rows with nonzero syndromes.

    work has its erased symbols zeroed. Returns the corrected rows and the
    mask of rows that passed every check.
    """
    mt = params.field.mul_table
    inv = params.field.inv_table
    two_t = params.two_t
    B = work.shape[0]

    # Erasure locator gamma(x) = prod (1 + alpha^j x), one slot at a time
    # over each row's sorted erasure positions.
    gamma = np.zeros((B, two_t + 1), dtype=np.uint8)
    gamma[:, 0] = 1
    er_row, er_pos = np.nonzero(erased)
    slot = np.arange(er_row.size) - (np.cumsum(n_erased) - n_erased)[er_row]
    x_er = params._power_matrix[0, er_pos]
    for s in range(int(n_erased.max(initial=0))):
        at = slot == s
        r = er_row[at]
        gamma[r, 1:] ^= mt[x_er[at][:, None], gamma[r, :-1]]

    # Berlekamp-Massey (Massey's LFSR synthesis), seeded with gamma: a fixed
    # 2t steps, row r joining at step n_erased[r] because its erasures
    # already explain the syndromes before that. Both registers start at
    # gamma, which keeps them multiples of it. The correction register sits
    # in columns 1.. of buf, whose column 0 stays zero, so buf[:, :-1] is
    # x times it. length is the register length of Berlekamp's rule: the
    # registers swap when delta != 0 and 2 * length <= n_erased + k.
    cur = gamma
    buf = np.zeros((B, two_t + 2), dtype=np.uint8)
    buf[:, 1:] = gamma
    length = n_erased
    # windows[r, k, j] = S_(k+1-j) of row r, zero for j > k; BM reads it
    # masked to zero before row r joins.
    steps = np.arange(two_t)
    padded = np.zeros((B, 2 * two_t), dtype=np.uint8)
    padded[:, :two_t] = synd[:, ::-1]
    windows = padded[:, two_t - 1 - steps[:, None] + np.arange(two_t + 1)]
    active = n_erased[:, None] <= steps
    masked = windows * active[:, :, None]
    for k in steps:
        delta = np.bitwise_xor.reduce(mt[cur, masked[:, k]], axis=1)
        prev = np.where(active[:, k, None], buf[:, :-1], buf[:, 1:])
        swap = (delta != 0) & (2 * length <= n_erased + k)
        buf[:, 1:] = np.where(swap[:, None], mt[cur, inv[delta][:, None]], prev)
        cur = cur ^ mt[delta[:, None], prev]
        length = np.where(swap, n_erased + k + 1 - length, length)

    deg = two_t - np.argmax(cur[:, ::-1] != 0, axis=1)
    ok = 2 * deg - n_erased <= two_t

    # Chien: a locator with constant term 1 has at most deg distinct roots
    # among the alpha^(-j), so deg roots in [0, n) rules out both a short
    # count and a root in the shortened region.
    roots = np.zeros(work.shape, dtype=bool)
    live = np.nonzero(ok)[0]
    roots[live] = params.locator_roots(cur[live])
    ok &= roots.sum(axis=1) == deg

    # Forney: the error value at position j is omega(X^-1) / locator'(X^-1)
    # with X = alpha^j and omega = synd(x) * locator(x) mod x^(2t).
    omega = np.bitwise_xor.reduce(mt[cur[:, None, :], windows], axis=2)
    deriv = np.zeros((B, two_t), dtype=np.uint8)
    deriv[:, 0::2] = cur[:, 1::2]
    root_row, root_pos = np.nonzero(roots & ok[:, None])
    x_inv = params._chien_matrix[root_pos, :two_t]
    num = np.bitwise_xor.reduce(mt[x_inv, omega[root_row]], axis=1)
    denom = np.bitwise_xor.reduce(mt[x_inv, deriv[root_row]], axis=1)
    ok[root_row[denom == 0]] = False
    fixed = work.copy()
    fixed[root_row, root_pos] ^= mt[num, inv[denom]]

    live = np.nonzero(ok)[0]
    ok[live] = ~params.batch_syndromes(fixed[live]).any(axis=1)
    return fixed, ok


def integer_indices(values: Iterable[int], low: int, high: int, what: str) -> np.ndarray:
    """values as a flat intp array; ValueError unless every entry is an
    integer in [low, high]. Floats, bools and strings are rejected."""
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    if arr.size and (
        not np.issubdtype(arr.dtype, np.integer) or arr.min() < low or arr.max() > high
    ):
        raise ValueError(f"{what} must be integers in [{low}, {high}]")
    return arr.astype(np.intp).reshape(-1)


def _check_symbols(
    params: RsParams, word: Sequence[int], expected_len: int, what: str
) -> np.ndarray:
    arr = params.field.symbols(word, what)
    if arr.shape != (expected_len,):
        raise ValueError(f"{what} must have {expected_len} symbols, got {arr.shape}")
    return arr
