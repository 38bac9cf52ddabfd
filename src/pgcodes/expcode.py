"""The overall graph code: parity/generator matrices, encoding, iterative decoding.

Symbols sit on the 1953 labeled edges of the point-hyperplane Tanner graph,
and every vertex constrains its 31 ordered edge symbols to be a codeword of
the shortened Reed-Solomon component code. Decoding alternates sides: each
pass decodes all 63 components of one side from the same snapshot and writes
corrections back (the components of a side touch disjoint symbol sets, so a
parallel round and a sequential sweep are identical). A component decoder
that detects an uncorrectable block skips it, leaving the symbols for the
other side to repair.

That disjointness is what the decoder exploits: decode_words runs many
received words in lockstep, and each side pass hands every dirty component
of that side, in every word still running, to one call of the batched
component kernel rscodec.decode_batch. iterative_decode is decode_words on
one word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np

from pgcodes.projgeom import Flat
# Decoding here goes through decode_batch. rs_decode is imported only because
# the benchmark's tracer (bench/run.py) wraps expcode.rs_decode by name.
from pgcodes.rscodec import RsParams, decode_batch, integer_indices, rs_decode  # noqa: F401
from pgcodes.tanner import TannerGraph, build_graph

POINT_SIDE = "points"
HYPERPLANE_SIDE = "hyperplanes"


@dataclass
class SideReport:
    """One side of one iteration: how many components failed, how many symbols moved."""

    side: str
    component_failures: int
    symbols_changed: int


@dataclass
class DecodeReport:
    """Outcome of iterative decoding.

    success means every component on both sides had zero syndromes when the
    decoder stopped; it does not compare against any transmitted word, which
    is exactly the information a receiver has. per_iteration holds two
    entries per executed iteration, point side first.
    """

    success: bool
    iterations_used: int
    per_iteration: list[SideReport]
    final_word: np.ndarray

    def failure_counts(self) -> list[tuple[int, int]]:
        """(point failures, hyperplane failures) per iteration."""
        pairs = []
        for i in range(0, len(self.per_iteration), 2):
            pairs.append(
                (
                    self.per_iteration[i].component_failures,
                    self.per_iteration[i + 1].component_failures,
                )
            )
        return pairs


class CodeSpec:
    """Parameters and cached generator matrix of one overall code instance.

    The Tanner graph and RS tables are built eagerly (cheap); the generator
    matrix is built on first use (one Gaussian elimination over GF(256)),
    and build_parity builds H. Instances are safe to share between threads
    once the generator has been materialized.
    """

    def __init__(self, epsilon: int, d: int = 5):
        self.graph: TannerGraph = build_graph(d)
        self.rs = RsParams(n=self.graph.degree, epsilon=epsilon)
        self.field = self.rs.field
        self.n_symbols = self.graph.n_edges

    def __repr__(self) -> str:
        return (
            f"CodeSpec(epsilon={self.rs.epsilon}, d={self.graph.d}, "
            f"n={self.n_symbols})"
        )

    @property
    def epsilon(self) -> int:
        return self.rs.epsilon

    @cached_property
    def generator_matrix(self) -> np.ndarray:
        return derive_generator(self)

    @property
    def k_overall(self) -> int:
        return self.generator_matrix.shape[0]

    @property
    def rank(self) -> int:
        """rank(H), the number of independent parity checks."""
        return self.n_symbols - self.k_overall


def build_parity(spec: CodeSpec) -> np.ndarray:
    """Overall parity-check matrix over GF(256).

    One block of epsilon-1 rows per vertex (63 point vertices first, then 63
    hyperplane vertices). Row i of vertex u has alpha^(i*j) in the column of
    u's j-th ordered edge, j = 0..degree-1: exactly the component syndrome
    functionals, so word * row^T = 0 iff syndrome S_i of that component is 0.
    """
    graph = spec.graph
    two_t = spec.rs.two_t
    n_side = graph.n_side
    H = np.zeros((2 * n_side * two_t, spec.n_symbols), dtype=np.uint8)
    powers = spec.rs._power_matrix
    for v in range(n_side):
        H[v * two_t : (v + 1) * two_t, graph.point_edge_idx[v]] = powers
    base = n_side * two_t
    for h in range(n_side):
        H[base + h * two_t : base + (h + 1) * two_t, graph.hpl_edge_idx[h]] = powers
    return H


def derive_generator(spec: CodeSpec) -> np.ndarray:
    """Systematic generator: reduce H to RRE form and read off the null space.

    For each non-pivot column f the generator gets a row with 1 at f and the
    RRE entries of column f at the pivot columns; rows are independent by the
    unit coordinates and orthogonal to H by construction.
    """
    H = build_parity(spec)
    rre, pivots = spec.field.row_reduce(H)
    is_free = np.ones(H.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    G = np.zeros((free.size, H.shape[1]), dtype=np.uint8)
    G[np.arange(free.size), free] = 1
    G[:, pivots] = rre[: len(pivots), free].T
    return G


def encode(
    spec: CodeSpec, message: Sequence[int], generator: np.ndarray | None = None
) -> np.ndarray:
    """Codeword = message * G over GF(256), symbols indexed by label - 1.

    Computed by bit planes: plane b is the XOR of the rows of G whose message
    symbol has bit b set, and the codeword is the XOR of x^b times plane b.
    """
    G = spec.generator_matrix if generator is None else generator
    msg = spec.field.symbols(message, "message")
    if msg.ndim != 1 or msg.shape[0] != G.shape[0]:
        raise ValueError(f"message must have {G.shape[0]} symbols, got {msg.shape}")
    mt = spec.field.mul_table
    word = np.zeros(G.shape[1], dtype=np.uint8)
    for b in range(spec.field.m):
        word ^= mt[1 << b, np.bitwise_xor.reduce(G[(msg >> b) & 1 == 1], axis=0)]
    return word


def side_words(spec: CodeSpec, word: np.ndarray, side: str) -> np.ndarray:
    """Component words of one side: (..., N) -> (..., 63, 31), vertex id order."""
    idx = spec.graph.point_edge_idx if side == POINT_SIDE else spec.graph.hpl_edge_idx
    return word[..., idx]


def component_syndromes(spec: CodeSpec, word: np.ndarray, side: str) -> np.ndarray:
    """Syndromes of one side's components: (..., N) -> (..., 63, 2t)."""
    comp = side_words(spec, word, side)
    synd = spec.rs.batch_syndromes(comp.reshape(-1, comp.shape[-1]))
    return synd.reshape(*comp.shape[:-1], spec.rs.two_t)


def all_components_valid(spec: CodeSpec, word: np.ndarray) -> bool:
    """True iff every vertex on both sides sees zero syndromes."""
    return not (
        component_syndromes(spec, word, POINT_SIDE).any()
        or component_syndromes(spec, word, HYPERPLANE_SIDE).any()
    )


def iterative_decode(
    spec: CodeSpec,
    received: Sequence[int] | np.ndarray,
    erasures: Iterable[int] = (),
    max_iterations: int = 4,
) -> DecodeReport:
    """Alternating per-vertex decoding with skip-on-failure.

    Each iteration decodes the point side, then the hyperplane side. A
    component whose decoder reports failure is left untouched. The decoder
    stops early as soon as all components on both sides have zero syndromes
    (a clean state is a fixed point of skip-on-failure decoding, so early
    exit cannot change the outcome) and otherwise runs the full iteration
    budget; success is judged by the state at exit.

    Erasures are given as 1-based integer symbol labels. They are forwarded
    to the component decoders until some component containing them decodes
    successfully, which resolves them; a component with more usable erasures
    than the code can absorb is treated as a failed (skipped) component.
    Decoding never raises on bad data: failure is a report state. This is
    decode_words on a batch of one word.
    """
    labels = integer_indices(erasures, 1, spec.n_symbols, "erasure labels")
    erased = np.zeros((1, spec.n_symbols), dtype=bool)
    erased[0, labels - 1] = True
    return decode_words(spec, np.reshape(received, (1, -1)), erased, max_iterations)[0]


def decode_words(
    spec: CodeSpec,
    words: np.ndarray,
    erased: np.ndarray | None = None,
    max_iterations: int = 4,
) -> list[DecodeReport]:
    """iterative_decode of R words in lockstep, one report per word.

    words is an (R, N) array of symbols and erased an optional (R, N) bool
    mask of declared erasures. Each side pass decodes the dirty components
    of that side in every word still running with one decode_batch call,
    and a word stops at the iteration where both of its sides are clean, so
    every report equals that of iterative_decode on the word alone.
    """
    if max_iterations < 1:
        raise ValueError(f"need at least one iteration, got {max_iterations}")
    word = spec.field.symbols(words, "received word")
    if word.ndim != 2 or word.shape[1] != spec.n_symbols:
        raise ValueError(f"received words must have {spec.n_symbols} symbols each")
    if erased is not None and np.shape(erased) != word.shape:
        raise ValueError(f"erasure mask has shape {np.shape(erased)}, words {word.shape}")
    n_words = word.shape[0]
    pending = np.zeros(word.shape, dtype=bool) if erased is None else erased.astype(bool)
    reports: list[list[SideReport]] = [[] for _ in range(n_words)]
    success = np.zeros(n_words, dtype=bool)
    iterations_used = np.full(n_words, max_iterations)
    live = np.arange(n_words)
    point_synd = None

    for iteration in range(1, max_iterations + 1):
        p_fail, p_changed, _ = _side_pass(spec, word, pending, live, POINT_SIDE, point_synd)
        h_fail, h_changed, hpl_synd = _side_pass(spec, word, pending, live, HYPERPLANE_SIDE)
        for i, w in enumerate(live.tolist()):
            reports[w].append(SideReport(POINT_SIDE, int(p_fail[i]), int(p_changed[i])))
            reports[w].append(SideReport(HYPERPLANE_SIDE, int(h_fail[i]), int(h_changed[i])))
        # The hyperplane pass returned its side's syndromes; only the point
        # side is recomputed, and handed on to the next point pass.
        point_synd = component_syndromes(spec, word[live], POINT_SIDE)
        clean = ~(point_synd.any(axis=(1, 2)) | hpl_synd.any(axis=(1, 2)))
        success[live[clean]] = True
        iterations_used[live[clean]] = iteration
        live, point_synd = live[~clean], point_synd[~clean]
        if not live.size:
            break

    return [
        DecodeReport(bool(success[w]), int(iterations_used[w]), reports[w], word[w])
        for w in range(n_words)
    ]


def _side_pass(
    spec: CodeSpec,
    word: np.ndarray,
    pending: np.ndarray,
    live: np.ndarray,
    side: str,
    synd: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode the dirty components of one side of the live words, in place.

    synd holds the (L, 63, 2t) syndromes of the side's components in the
    live words, and is computed here when None. A clean component resolves
    its pending erasures; one with more than 2t pending erasures fails
    without a decode. Returns per live word the component failures and the
    symbols changed, and the side's syndromes after the pass: zero where a
    component decoded, unchanged where it was skipped.
    """
    if synd is None:
        synd = component_syndromes(spec, word[live], side)
    idx = spec.graph.point_edge_idx if side == POINT_SIDE else spec.graph.hpl_edge_idx
    at = (live[:, None, None], idx)
    comp = word[at]
    pend = pending[at]
    dirty = synd.any(axis=2)
    pend[~dirty] = False
    overloaded = dirty & (pend.sum(axis=2) > spec.rs.two_t)
    w_i, v_i = np.nonzero(dirty & ~overloaded)
    before = comp[w_i, v_i]
    out, ok = decode_batch(spec.rs, before, pend[w_i, v_i], synd[w_i, v_i])
    comp[w_i, v_i] = out
    pend[w_i[ok], v_i[ok]] = False
    synd[w_i[ok], v_i[ok]] = 0
    word[at] = comp
    pending[at] = pend
    failures = overloaded.sum(axis=1) + np.bincount(w_i[~ok], minlength=live.size)
    moved = (out != before).sum(axis=1)
    changed = np.bincount(w_i, weights=moved, minlength=live.size).astype(np.int64)
    return failures, changed, synd


def plant_failure_config(spec: CodeSpec, plane: Flat, rng) -> tuple[tuple[int, int], ...]:
    """Minimal locked error pattern built on a plane.

    Picks (epsilon+1)/2 points of the plane and (epsilon+1)/2 hyperplanes
    through it and corrupts every edge between them with a random nonzero
    value: each chosen vertex then sees one error more than its component
    can correct, so all of them skip and the errors oscillate between the
    sides forever. Valid for epsilon <= 13, where (epsilon+1)/2 <= 7 fits
    inside a single plane. rng must provide sample(n, k) and
    nonzero_symbol(q) (see pgcodes.prng.SplitMix64).
    """
    t_plus = (spec.rs.epsilon + 1) // 2
    if t_plus > 7:
        raise ValueError(
            f"plane-based construction needs (epsilon+1)/2 <= 7, got {t_plus}"
        )
    if plane.dimension != 2:
        raise ValueError(f"need a plane (dimension 2), got dimension {plane.dimension}")
    space = spec.graph.space
    hyperplanes = space.hyperplanes_through(plane)
    if len(hyperplanes) != 7:
        raise ValueError("flat is not a plane of this graph's geometry")
    pts = [plane.points[i] for i in sorted(rng.sample(7, t_plus))]
    hps = [hyperplanes[i] for i in sorted(rng.sample(7, t_plus))]
    pattern = []
    for p in pts:
        for h in hps:
            label = spec.graph.label_of_pair(p, h)
            pattern.append((label, rng.nonzero_symbol(spec.field.q)))
    return tuple(sorted(pattern))


def apply_pattern(
    spec: CodeSpec, word: np.ndarray, pattern: Iterable[tuple[int, int]]
) -> np.ndarray:
    """Add an error pattern of (label, value) pairs to a word."""
    out = np.array(word, dtype=np.uint8).copy()
    for label, value in pattern:
        out[label - 1] ^= value
    return out


# ----------------------------------------------------------------------
# serialization: hex words and matrix export

def word_to_hex(word: Sequence[int] | np.ndarray) -> str:
    """Two lowercase hex chars per symbol, label order 1..N."""
    return bytes(int(c) for c in word).hex()


def word_from_hex(text: str, n_symbols: int) -> np.ndarray:
    text = text.strip()
    if len(text) != 2 * n_symbols:
        raise ValueError(f"expected {2 * n_symbols} hex chars, got {len(text)}")
    return np.frombuffer(bytes.fromhex(text), dtype=np.uint8).copy()


def write_matrix_hex(fh: IO[str], matrix: np.ndarray, epsilon: int) -> None:
    """Row-major hex matrix with a 'rows cols epsilon' header line."""
    rows, cols = matrix.shape
    fh.write(f"{rows} {cols} {epsilon}\n")
    for row in matrix:
        fh.write(word_to_hex(row) + "\n")


def read_matrix_hex(fh: IO[str]) -> tuple[np.ndarray, int]:
    header = fh.readline().split()
    if len(header) != 3:
        raise ValueError("matrix header must be 'rows cols epsilon'")
    rows, cols, epsilon = (int(x) for x in header)
    data = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        data[i] = word_from_hex(fh.readline(), cols)
    return data, epsilon
