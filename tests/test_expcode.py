import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gf_oracle
from pgcodes.expcode import (
    CodeSpec,
    all_components_valid,
    apply_pattern,
    build_parity,
    component_syndromes,
    decode_words,
    encode,
    iterative_decode,
    plant_failure_config,
    read_matrix_hex,
    word_from_hex,
    word_to_hex,
    write_matrix_hex,
)
from pgcodes.galois import GF
from pgcodes.prng import SplitMix64, substream


def _random_word(spec, rng, weight):
    word = np.zeros(spec.n_symbols, dtype=np.uint8)
    for pos in rng.sample(spec.n_symbols, weight):
        word[pos] = rng.nonzero_symbol(spec.field.q)
    return word


def test_parity_shape_eps5(spec5):
    H = build_parity(spec5)
    assert H.shape == (504, 1953)
    # every column is touched by exactly one point block and one hyperplane block
    col_nonzeros = (H != 0).sum(axis=0)
    assert np.all(col_nonzeros == 2 * 4)


def test_parity_block_entries(spec5):
    H = build_parity(spec5)
    g = spec5.graph
    f = spec5.field
    v = 17  # point vertex, 1-based
    for i in range(1, 5):
        row = H[(v - 1) * 4 + (i - 1)]
        for j in range(31):
            col = g.point_edge_idx[v - 1, j]
            assert row[col] == f.exp_alpha(i * j)


def test_parity_shape_and_rank_eps7(spec7):
    assert build_parity(spec7).shape == (756, 1953)
    assert spec7.rank == 756
    assert spec7.k_overall == 1197


def test_rank_matches_transposed_elimination(field8):
    # independent elimination route over H^T must agree on the rank
    spec3 = CodeSpec(3)
    H = build_parity(spec3)
    _, pivots = field8.row_reduce(H)
    _, pivots_t = field8.row_reduce(H.T.copy())
    assert len(pivots) == len(pivots_t)
    assert spec3.rank == len(pivots)


def test_generator_orthogonal_and_systematic(spec5):
    G = spec5.generator_matrix
    assert G.shape == (spec5.k_overall, 1953)
    # each generator row satisfies every component constraint
    pt = spec5.rs.batch_syndromes(G[:, spec5.graph.point_edge_idx].reshape(-1, 31))
    hp = spec5.rs.batch_syndromes(G[:, spec5.graph.hpl_edge_idx].reshape(-1, 31))
    assert not pt.any() and not hp.any()
    # systematic: an identity sits on the message (non-pivot) columns
    single = np.nonzero((G != 0).sum(axis=0) == 1)[0]
    unit_cols = [c for c in single if G[:, c].max() == 1]
    owners = {int(np.nonzero(G[:, c])[0][0]) for c in unit_cols}
    assert owners == set(range(G.shape[0]))


def test_rate_meets_lower_bound(spec5, spec7):
    # k >= N(2r - 1) with r the component rate
    for spec in (spec5, spec7):
        n = spec.rs.n
        bound = spec.n_symbols * (2 * spec.rs.k - n)
        assert spec.k_overall * n >= bound


def test_encode_zero_and_linearity(spec5):
    rng = SplitMix64(41)
    zero = encode(spec5, np.zeros(spec5.k_overall, dtype=np.uint8))
    assert not zero.any()
    m1 = np.array([rng.below(256) for _ in range(spec5.k_overall)], dtype=np.uint8)
    m2 = np.array([rng.below(256) for _ in range(spec5.k_overall)], dtype=np.uint8)
    assert np.array_equal(encode(spec5, m1 ^ m2), encode(spec5, m1) ^ encode(spec5, m2))


def test_encode_outputs_satisfy_all_components(spec5):
    rng = SplitMix64(43)
    msg = np.array([rng.below(256) for _ in range(spec5.k_overall)], dtype=np.uint8)
    cw = encode(spec5, msg)
    assert all_components_valid(spec5, cw)
    assert not component_syndromes(spec5, cw, "points").any()


def test_encode_wrong_length(spec5):
    with pytest.raises(ValueError):
        encode(spec5, np.zeros(10, dtype=np.uint8))


def test_decode_clean_word(spec5):
    report = iterative_decode(spec5, np.zeros(1953, dtype=np.uint8))
    assert report.success
    assert report.iterations_used == 1
    assert report.per_iteration[0].symbols_changed == 0
    assert report.per_iteration[0].component_failures == 0


def test_decode_eight_errors_and_roundtrip(spec5):
    rng = SplitMix64(47)
    msg = np.array([rng.below(256) for _ in range(spec5.k_overall)], dtype=np.uint8)
    cw = encode(spec5, msg)
    rec = cw.copy()
    for pos in rng.sample(1953, 8):
        rec[pos] ^= rng.nonzero_symbol(256)
    report = iterative_decode(spec5, rec)
    assert report.success
    assert np.array_equal(report.final_word, cw)


def test_decode_deterministic(spec5):
    rng = SplitMix64(53)
    word = _random_word(spec5, rng, 40)
    a = iterative_decode(spec5, word)
    b = iterative_decode(spec5, word)
    assert a.success == b.success
    assert a.iterations_used == b.iterations_used
    assert np.array_equal(a.final_word, b.final_word)
    assert a.per_iteration == b.per_iteration


def test_decode_respects_max_iterations(spec5):
    planes = spec5.graph.space.planes()
    pat = plant_failure_config(spec5, planes[0], SplitMix64(3))
    word = apply_pattern(spec5, np.zeros(1953, dtype=np.uint8), pat)
    report = iterative_decode(spec5, word, max_iterations=2)
    assert not report.success
    assert report.iterations_used == 2
    assert len(report.per_iteration) == 4


def test_planted_config_shape_and_oscillation(spec5):
    planes = spec5.graph.space.planes()
    plane = planes[0]
    pat = plant_failure_config(spec5, plane, SplitMix64(3))
    assert len(pat) == 9
    labels = [lab for lab, _ in pat]
    assert len(set(labels)) == 9
    pts = {spec5.graph.edge_endpoints(lab)[0] for lab in labels}
    hps = {spec5.graph.edge_endpoints(lab)[1] for lab in labels}
    assert len(pts) == 3 and len(hps) == 3
    assert pts <= set(plane.points)
    word = apply_pattern(spec5, np.zeros(1953, dtype=np.uint8), pat)
    report = iterative_decode(spec5, word)
    assert not report.success
    assert report.failure_counts() == [(3, 3)] * 4
    # skip semantics: nothing ever changes
    assert all(r.symbols_changed == 0 for r in report.per_iteration)
    assert np.array_equal(report.final_word, word)


def test_planted_config_eps7_is_4x4(spec7):
    plane = spec7.graph.space.planes()[100]
    pat = plant_failure_config(spec7, plane, SplitMix64(9))
    assert len(pat) == 16
    word = apply_pattern(spec7, np.zeros(1953, dtype=np.uint8), pat)
    assert not iterative_decode(spec7, word).success


def test_planted_config_rejects_eps15():
    spec15 = CodeSpec(15)
    plane = spec15.graph.space.planes()[0]
    with pytest.raises(ValueError):
        plant_failure_config(spec15, plane, SplitMix64(1))


def test_plant_rejects_non_plane(spec5):
    from pgcodes.projgeom import span

    with pytest.raises(ValueError):
        plant_failure_config(spec5, span([1, 2]), SplitMix64(1))


def test_burst_of_126_decodes_in_one_iteration(spec5):
    for start, seed in ((0, 1), (911, 2), (1827, 3)):
        rng = SplitMix64(seed)
        word = np.zeros(1953, dtype=np.uint8)
        for off in range(126):
            word[start + off] = rng.nonzero_symbol(256)
        report = iterative_decode(spec5, word)
        assert report.success and report.iterations_used == 1
        assert not report.final_word.any()


def test_erasure_decoding(spec5):
    rng = SplitMix64(61)
    msg = np.array([rng.below(256) for _ in range(spec5.k_overall)], dtype=np.uint8)
    cw = encode(spec5, msg)
    labels = [i + 1 for i in rng.sample(1953, 50)]
    rec = cw.copy()
    for lab in labels:
        rec[lab - 1] = rng.below(256)
    report = iterative_decode(spec5, rec, erasures=labels)
    assert report.success
    assert np.array_equal(report.final_word, cw)
    with pytest.raises(ValueError):
        iterative_decode(spec5, rec, erasures=[0])


@pytest.mark.parametrize("labels", [[1.5], [True], np.array([1.0])])
def test_non_integer_erasure_labels_rejected(spec5, labels):
    # A float or bool label must not be read as the integer it truncates to.
    word = np.zeros(spec5.n_symbols, dtype=np.uint8)
    word[0] = 5
    with pytest.raises(ValueError, match="erasure labels"):
        iterative_decode(spec5, word, erasures=labels)


@pytest.mark.parametrize(
    "shape", [(3, 1953), (1953,), (2, 5), (1, 1953)], ids=["extra-row", "flat", "short", "one-row"]
)
def test_decode_words_rejects_erasure_mask_of_another_shape(spec5, shape):
    # Every other shape is refused, an extra row that indexing would ignore too.
    words = np.zeros((2, spec5.n_symbols), dtype=np.uint8)
    with pytest.raises(ValueError, match="erasure mask"):
        decode_words(spec5, words, np.zeros(shape, dtype=bool))


@pytest.mark.parametrize("with_erasures", [False, True])
@pytest.mark.parametrize("max_iterations", [4, 2])
def test_decode_words_matches_single_word_decodes(spec5, with_erasures, max_iterations):
    # Lockstep decoding of R words gives each word the report it gets alone;
    # the weights mix one-pass successes, later successes and failures, and
    # the erasure case also overloads point vertex 1.
    n = spec5.n_symbols
    words = np.zeros((8, n), dtype=np.uint8)
    erased = np.zeros((8, n), dtype=bool)
    for r, weight in enumerate((0, 8, 60, 120, 160, 180, 200, 260)):
        rng = substream(4242, r)
        pos = rng.sample(n, weight + 24)
        for p in pos[:weight]:
            words[r, p] = rng.nonzero_symbol(256)
        if with_erasures:
            erased[r, pos[weight:]] = True
            words[r, pos[weight::2]] = 7
    if with_erasures:
        erased[5, spec5.graph.point_edge_idx[0, :5]] = True
    reports = decode_words(spec5, words, erased, max_iterations)
    for r, got in enumerate(reports):
        labels = (np.nonzero(erased[r])[0] + 1).tolist()
        alone = iterative_decode(spec5, words[r], labels, max_iterations)
        assert (got.success, got.iterations_used, got.per_iteration) == (
            alone.success,
            alone.iterations_used,
            alone.per_iteration,
        )
        assert np.array_equal(got.final_word, alone.final_word)
    assert {rep.success for rep in reports} == {True, False}


def test_decode_words_accepts_zero_words(spec5):
    words = np.zeros((0, spec5.n_symbols), dtype=np.uint8)
    assert decode_words(spec5, words) == []
    assert decode_words(spec5, words, np.zeros(words.shape, dtype=bool), 2) == []


def test_decode_input_validation(spec5):
    with pytest.raises(ValueError):
        iterative_decode(spec5, np.zeros(100, dtype=np.uint8))
    with pytest.raises(ValueError):
        iterative_decode(spec5, np.zeros(1953, dtype=np.uint8), max_iterations=0)


def _with_symbol(n, value, as_list):
    word = np.zeros(n, dtype=np.int64)
    word[7] = value
    return word.tolist() if as_list else word


@pytest.mark.parametrize("value", [-1, 256, 257, 300])
@pytest.mark.parametrize("as_list", [False, True])
def test_symbols_outside_field_rejected(spec5, value, as_list):
    # Out-of-range symbols must not wrap modulo 256 or leak OverflowError.
    with pytest.raises(ValueError, match="symbols"):
        iterative_decode(spec5, _with_symbol(spec5.n_symbols, value, as_list))
    with pytest.raises(ValueError, match="symbols"):
        encode(spec5, _with_symbol(spec5.k_overall, value, as_list))


def test_word_hex_round_trip(spec5):
    rng = SplitMix64(67)
    word = _random_word(spec5, rng, 100)
    text = word_to_hex(word)
    assert len(text) == 3906
    assert np.array_equal(word_from_hex(text, 1953), word)
    with pytest.raises(ValueError):
        word_from_hex(text[:-2], 1953)


def test_matrix_hex_round_trip(spec5):
    H = build_parity(spec5)
    buf = io.StringIO()
    write_matrix_hex(buf, H[:8], spec5.epsilon)
    buf.seek(0)
    M, eps = read_matrix_hex(buf)
    assert eps == 5
    assert np.array_equal(M, H[:8])
    assert buf.getvalue().splitlines()[0] == "8 1953 5"


def test_successful_decode_is_orthogonal_to_parity(spec5):
    # recheck success against H itself, not the decoder's own syndrome view
    rng = SplitMix64(73)
    word = _random_word(spec5, rng, 30)
    report = iterative_decode(spec5, word)
    assert report.success
    H = build_parity(spec5)
    mt = spec5.field.mul_table
    syndrome = np.bitwise_xor.reduce(mt[H, report.final_word[None, :]], axis=1)
    assert not syndrome.any()


@pytest.mark.parametrize("epsilon", [3, 7, 9, 11, 13])
def test_guaranteed_weight_always_decodes(epsilon):
    # 1000 random patterns at the guaranteed weight for every other epsilon
    # (epsilon=5 is exercised at this scale by the acceptance suite)
    from pgcodes.bounds import guaranteed_errors

    spec = CodeSpec(epsilon)
    weight = guaranteed_errors(epsilon)
    for rnd in range(1000):
        rng = substream(86000 + epsilon, rnd)
        word = np.zeros(spec.n_symbols, dtype=np.uint8)
        for pos in rng.sample(spec.n_symbols, weight):
            word[pos] = rng.nonzero_symbol(256)
        report = iterative_decode(spec, word)
        assert report.success and not report.final_word.any(), (epsilon, rnd)


def test_higher_dimension_variant_burst_guarantee():
    # PG(8, GF(2)) with the full-length (255, 239, 17) component code:
    # a burst of floor(17/2) * 511 symbols is corrected in one iteration
    spec = CodeSpec(17, d=8)
    assert spec.graph.n_side == 511
    assert spec.rs.n == 255 and spec.rs.k == 239
    assert spec.n_symbols == 130305
    rng = SplitMix64(83)
    word = np.zeros(spec.n_symbols, dtype=np.uint8)
    start = 12000
    for off in range(8 * 511):
        word[start + off] = rng.nonzero_symbol(256)
    report = iterative_decode(spec, word)
    assert report.success and report.iterations_used == 1
    assert not report.final_word.any()


def test_component_constraint_equals_parity_row(spec5):
    # codeword restricted to any vertex's ordered edges is a component codeword
    rng = SplitMix64(71)
    msg = np.array([rng.below(256) for _ in range(spec5.k_overall)], dtype=np.uint8)
    cw = encode(spec5, msg)
    for v in (0, 30, 62):
        w = cw[spec5.graph.point_edge_idx[v]].tolist()
        assert spec5.rs.syndromes(w) == [0] * 4


@st.composite
def messages(draw, k):
    """k symbols: uniform, one constant value, or a mix of two or three values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "constant", "few"]))
    if kind == "uniform":
        return rng.integers(0, 256, k, dtype=np.uint8)
    if kind == "constant":
        return np.full(k, draw(st.sampled_from([0, 1, 255]) | st.integers(0, 255)), np.uint8)
    value = st.sampled_from([0, 255]) | st.integers(0, 255)
    values = draw(st.lists(value, min_size=2, max_size=3))
    return np.array(values, dtype=np.uint8)[rng.integers(0, len(values), k)]


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_encode_matches_gather_oracle(specs, data):
    spec = specs[data.draw(st.sampled_from([3, 5, 7, 9]))]
    msg = data.draw(messages(spec.k_overall))
    expected = gf_oracle.encode(spec.field, msg, spec.generator_matrix)
    assert np.array_equal(encode(spec, msg), expected)


@settings(deadline=None, max_examples=60)
@given(
    rows=st.integers(0, 40),
    cols=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_encode_explicit_generator_matches_gather_oracle(spec5, rows, cols, seed, data):
    G = np.random.default_rng(seed).integers(0, 256, (rows, cols), dtype=np.uint8)
    msg = data.draw(messages(rows))
    expected = gf_oracle.encode(spec5.field, msg, G)
    assert np.array_equal(encode(spec5, msg, generator=G), expected)


@st.composite
def reducible_matrices(draw):
    """(field, matrix) over GF(8) or GF(256), often rank-deficient."""
    field = GF(draw(st.sampled_from([3, 8])))
    n_rows, n_cols = draw(st.integers(1, 10)), draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.15, 0.5, 1.0]))
    A = rng.integers(0, field.q, (n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < density)
    A = A.astype(np.uint8)
    row, col = st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["repeat", "combine", "zero column"]))
        i, j, k = draw(row), draw(row), draw(row)
        if kind == "repeat":
            A[i] = A[j]
        elif kind == "combine":
            A[i] = field.mul_table[draw(st.integers(1, field.q - 1)), A[j]] ^ A[k]
        else:
            A[:, draw(col)] = 0
    return field, A


@settings(deadline=None, max_examples=200)
@given(case=reducible_matrices())
def test_row_reduce_matches_gather_oracle(case):
    field, A = case
    rre, pivots = field.row_reduce(A)
    expected_rre, expected_pivots = gf_oracle.row_reduce(field, A)
    assert pivots == expected_pivots
    assert np.array_equal(rre, expected_rre)
