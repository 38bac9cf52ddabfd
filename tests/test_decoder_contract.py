"""Property tests of the iterative decoder's contract at epsilon 5 and 7.

Received words run from clean codewords to words with every symbol in error,
with erasure sets that are empty, spread over the word, or packed onto a few
vertices so that some components get more erasures than they can absorb. A
counterexample to any of these properties is a decoder fault.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from pgcodes.expcode import all_components_valid, encode, iterative_decode


@st.composite
def corruptions(draw, spec):
    """(error word e, erasure labels): e is nonzero at the errors and holds
    arbitrary values at the erased symbols."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = spec.n_symbols
    # few errors, near the decoder's cliff (about w = 170 at epsilon 5 and
    # 280 at epsilon 7), or far past it
    cliff = st.integers(100, 40 * spec.epsilon + 20)
    weight = draw(st.integers(0, 100) | cliff | st.integers(300, n))
    e = np.zeros(n, dtype=np.uint8)
    e[rng.choice(n, weight, replace=False)] = rng.integers(1, 256, weight)
    spread = draw(st.sampled_from(["none", "spread", "packed"]))
    if spread == "none":
        erased = np.zeros(0, dtype=np.intp)
    elif spread == "spread":
        erased = rng.choice(n, draw(st.integers(1, 200)), replace=False)
    else:
        vertices = rng.choice(spec.graph.n_side, draw(st.integers(1, 4)), replace=False)
        edges = spec.graph.point_edge_idx[vertices].reshape(-1)
        erased = rng.choice(edges, draw(st.integers(1, edges.size)), replace=False)
    e[erased] = rng.integers(0, 256, erased.size)
    return e, (erased + 1).tolist()


def _codeword(spec, seed):
    rng = np.random.default_rng(seed)
    return encode(spec, rng.integers(0, 256, spec.k_overall, dtype=np.uint8))


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_success_iff_all_components_valid(specs, data):
    # Also: decoding never raises on an in-range word, whatever the erasures.
    spec = specs[data.draw(st.sampled_from([5, 7]))]
    e, labels = data.draw(corruptions(spec))
    for word in (e, _codeword(spec, data.draw(st.integers(0, 2**32 - 1))) ^ e):
        report = iterative_decode(spec, word, erasures=labels)
        assert report.success == all_components_valid(spec, report.final_word)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_adding_a_codeword_adds_it_to_the_output(specs, data):
    # Every decision of the decoder depends on syndromes and erasure
    # positions only, so decode(c + e) = c + decode(e), report and all.
    spec = specs[data.draw(st.sampled_from([5, 7]))]
    e, labels = data.draw(corruptions(spec))
    c = _codeword(spec, data.draw(st.integers(0, 2**32 - 1)))
    plain = iterative_decode(spec, e, erasures=labels)
    shifted = iterative_decode(spec, c ^ e, erasures=labels)
    assert np.array_equal(shifted.final_word, c ^ plain.final_word)
    assert shifted.success == plain.success
    assert shifted.iterations_used == plain.iterations_used
    assert shifted.per_iteration == plain.per_iteration


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_decoding_a_success_again_is_a_no_op(specs, data):
    spec = specs[data.draw(st.sampled_from([5, 7]))]
    e, labels = data.draw(corruptions(spec))
    c = _codeword(spec, data.draw(st.integers(0, 2**32 - 1)))
    first = iterative_decode(spec, c ^ e, erasures=labels)
    if not first.success:
        return
    for erasures in ((), labels):
        again = iterative_decode(spec, first.final_word, erasures=erasures)
        assert again.success and again.iterations_used == 1
        assert [r.symbols_changed for r in again.per_iteration] == [0, 0]
        assert np.array_equal(again.final_word, first.final_word)
