import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rs_oracle
from pgcodes.galois import GF
from pgcodes.prng import SplitMix64
from pgcodes.rscodec import RsParams, RsStatus, decode_batch, rs_decode, rs_encode
from poly_oracle import generator_poly, poly_divmod

EPSILONS = [3, 5, 7, 9, 11, 13, 15]


@pytest.fixture(scope="module")
def rs7(field8):
    return RsParams(31, 7, field=field8)


def test_params():
    p = RsParams(31, 7)
    assert (p.n, p.k, p.t, p.two_t, p.parent_n) == (31, 25, 3, 6, 255)
    with pytest.raises(ValueError):
        RsParams(31, 6)
    with pytest.raises(ValueError):
        RsParams(31, 1)
    with pytest.raises(ValueError):
        RsParams(300, 7)
    with pytest.raises(ValueError):
        RsParams(5, 7)  # k would be < 1


def test_generator_poly_has_consecutive_roots(rs7):
    f = rs7.field
    g = generator_poly(f, rs7.two_t)
    for i in range(1, 7):
        assert f.poly_eval(g, f.exp_alpha(i)) == 0
    assert f.poly_eval(g, f.exp_alpha(7)) != 0


def test_encode_zero_message(rs7):
    assert rs_encode(rs7, [0] * 25) == [0] * 31


def test_encode_is_systematic_with_zero_syndromes(rs7):
    rng = SplitMix64(5)
    msg = [rng.below(256) for _ in range(25)]
    cw = rs_encode(rs7, msg)
    assert cw[6:] == msg
    assert rs7.syndromes(cw) == [0] * 6


def test_encode_wrong_length(rs7):
    with pytest.raises(ValueError):
        rs_encode(rs7, [0] * 24)
    with pytest.raises(ValueError):
        rs_encode(rs7, [256] + [0] * 24)


@pytest.mark.parametrize(
    "call, word",
    [
        ("decode", [1.5] + [0] * 30),
        ("decode", np.array([1.0] * 31)),
        ("decode", np.zeros(31, dtype=bool)),
        ("decode", [True] * 31),
        ("encode", [2.7] + [0] * 24),
        ("encode", np.zeros(25, dtype=np.float32)),
        ("encode", np.ones(25, dtype=bool)),
    ],
    ids=[
        "decode-float-list",
        "decode-float-array",
        "decode-bool-array",
        "decode-bool-list",
        "encode-float-list",
        "encode-float32-array",
        "encode-bool-array",
    ],
)
def test_non_integer_symbols_rejected(rs7, call, word):
    # Floats and bools used to be truncated by int(): [1.5] + [0] * 30
    # decoded as CORRECTED with one error, and 2.7 was encoded as 2.
    with pytest.raises(ValueError):
        if call == "decode":
            rs_decode(rs7, word)
        else:
            rs_encode(rs7, word)


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_parity_matches_polynomial_division_oracle(data):
    # The parity symbols are m(x) x^(2t) mod g(x), at every design distance,
    # for uniform messages and for messages of two or three values.
    p = RsParams(31, data.draw(st.sampled_from(EPSILONS)))
    few = [st.sampled_from([0, 255]), st.sampled_from([0, 1, 0x8E])]
    values = data.draw(st.sampled_from([st.integers(0, 255), *few]))
    msg = data.draw(st.lists(values, min_size=p.k, max_size=p.k))
    cw = rs_encode(p, msg)
    _, rem = poly_divmod(p.field, [0] * p.two_t + msg, generator_poly(p.field, p.two_t))
    assert cw == rem + [0] * (p.two_t - len(rem)) + msg


def test_three_error_correction(rs7):
    rng = SplitMix64(23)
    msg = [rng.below(256) for _ in range(25)]
    cw = rs_encode(rs7, msg)
    rec = list(cw)
    for pos in rng.sample(31, 3):
        rec[pos] ^= rng.nonzero_symbol(256)
    out = rs_decode(rs7, rec)
    assert out.status is RsStatus.CORRECTED
    assert out.word == cw
    assert out.errors_corrected == 3
    assert out.erasures_used == 0


def test_zero_error_short_circuit(rs7):
    cw = rs_encode(rs7, list(range(25)))
    out = rs_decode(rs7, cw)
    assert out.status is RsStatus.CORRECTED
    assert out.errors_corrected == 0
    assert out.word == cw


def test_six_erasures_no_errors(rs7):
    rng = SplitMix64(31)
    cw = rs_encode(rs7, [rng.below(256) for _ in range(25)])
    erasures = rng.sample(31, 6)
    rec = list(cw)
    for pos in erasures:
        rec[pos] = rng.below(256)
    out = rs_decode(rs7, rec, erasures=erasures)
    assert out.status is RsStatus.CORRECTED
    assert out.word == cw
    assert out.erasures_used == 6


def test_too_many_erasures_rejected(rs7):
    cw = rs_encode(rs7, [0] * 25)
    with pytest.raises(ValueError):
        rs_decode(rs7, cw, erasures=list(range(7)))
    with pytest.raises(ValueError):
        rs_decode(rs7, cw, erasures=[31])


@pytest.mark.parametrize(
    "erasures",
    [[1.5], np.array([1.0]), [True], np.array([True, False]), ["1"], [-1], [[1], [2, 3]]],
    ids=["float", "float-array", "bool", "bool-array", "str", "negative", "ragged"],
)
def test_erasure_positions_must_be_integers_in_range(rs7, erasures):
    # A float, bool or string position is refused like an out-of-range one,
    # not truncated, used as a mask or left to fail inside numpy indexing.
    with pytest.raises(ValueError):
        rs_decode(rs7, rs_encode(rs7, [0] * 25), erasures=erasures)


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_round_trip_random_errors(field8, epsilon):
    p = RsParams(31, epsilon, field=field8)
    rng = SplitMix64(1000 + epsilon)
    for trial in range(300):
        msg = [rng.below(256) for _ in range(p.k)]
        cw = rs_encode(p, msg)
        e = rng.below(p.t + 1)
        rec = list(cw)
        for pos in rng.sample(31, e):
            rec[pos] ^= rng.nonzero_symbol(256)
        out = rs_decode(p, rec)
        assert out.status is RsStatus.CORRECTED
        assert out.word == cw
        assert out.errors_corrected == e


@pytest.mark.parametrize("epsilon", [5, 9, 15])
def test_errors_and_erasures_grid(field8, epsilon):
    p = RsParams(31, epsilon, field=field8)
    rng = SplitMix64(2000 + epsilon)
    for f in range(p.two_t + 1):
        for e in range((p.two_t - f) // 2 + 1):
            for _ in range(8):
                msg = [rng.below(256) for _ in range(p.k)]
                cw = rs_encode(p, msg)
                pos = rng.sample(31, f + e)
                rec = list(cw)
                for j in pos[:f]:
                    rec[j] = rng.below(256)
                for j in pos[f:]:
                    rec[j] ^= rng.nonzero_symbol(256)
                out = rs_decode(p, rec, erasures=pos[:f])
                assert out.status is RsStatus.CORRECTED
                assert out.word == cw


def test_failure_keeps_input_and_corrected_is_valid(rs7):
    rng = SplitMix64(77)
    statuses = {RsStatus.CORRECTED: 0, RsStatus.FAILED: 0}
    for _ in range(400):
        msg = [rng.below(256) for _ in range(25)]
        cw = rs_encode(rs7, msg)
        rec = list(cw)
        for pos in rng.sample(31, 4 + rng.below(6)):
            rec[pos] ^= rng.nonzero_symbol(256)
        out = rs_decode(rs7, rec)
        statuses[out.status] += 1
        if out.status is RsStatus.FAILED:
            assert out.word == rec
        else:
            assert rs7.syndromes(out.word) == [0] * 6
    # overload patterns are overwhelmingly detected
    assert statuses[RsStatus.FAILED] > 350


def test_syndromes_passed_in_match_computed(rs7):
    # decode_batch takes the caller's syndromes for rows without erasures
    # and recomputes them for rows with erasures.
    rng = SplitMix64(99)
    cw = rs_encode(rs7, [rng.below(256) for _ in range(25)])
    rec = np.array([cw, cw], dtype=np.uint8)
    rec[:, 4] ^= 0x3C
    erased = np.zeros(rec.shape, dtype=bool)
    erased[1, 9] = True
    synd = rs7.batch_syndromes(rec)
    out, ok = decode_batch(rs7, rec, erased, synd)
    assert ok.all() and (out == np.array(cw, dtype=np.uint8)).all()


def test_batch_syndromes_match_scalar(rs7):
    rng = SplitMix64(123)
    words = np.array(
        [[rng.below(256) for _ in range(31)] for _ in range(8)], dtype=np.uint8
    )
    batch = rs7.batch_syndromes(words)
    for i in range(8):
        assert batch[i].tolist() == rs_oracle.syndromes(rs7, words[i].tolist())
        assert rs7.syndromes(words[i].tolist()) == batch[i].tolist()


# (n, epsilon, m) of the codes whose packed tables are checked: every design
# distance at n = 31, where 2t fills one uint64 word (epsilon <= 9) or two;
# the GF(2^3) code of test_tracer_contract; the full-length code with 2t = 16.
PACKED_CODES = [(31, e, 8) for e in EPSILONS] + [(7, 3, 3), (255, 17, 8)]


@functools.cache
def _packed_code(n, epsilon, m):
    return RsParams(n, epsilon, field=GF(m))


def _symbol_rows(p, kind, rows, cols, seed=0):
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.uint8)
    if kind == "full":
        return np.full((rows, cols), p.field.q - 1, dtype=np.uint8)
    return np.random.default_rng(seed).integers(0, p.field.q, (rows, cols), dtype=np.uint8)


def _assert_packed_match_oracle(p, words, locators):
    synd = p.batch_syndromes(words)
    assert synd.dtype == np.uint8 and synd.shape == (words.shape[0], p.two_t)
    assert np.array_equal(synd, rs_oracle.batch_syndromes(p, words))
    roots = p.locator_roots(locators)
    assert roots.dtype == bool and roots.shape == (locators.shape[0], p.n)
    assert np.array_equal(roots, rs_oracle.locator_roots(p, locators))


@pytest.mark.parametrize("code", PACKED_CODES, ids="n{0[0]}-e{0[1]}-m{0[2]}".format)
def test_packed_tables_match_gather_oracle(code):
    # Syndromes and Chien search from the packed tables equal the gather
    # formulas on 0, 1 and 1000 rows of all-zero, all-(q-1) and random symbols.
    p = _packed_code(*code)
    for rows in (0, 1, 1000):
        for kind in ("zero", "full", "random"):
            _assert_packed_match_oracle(
                p,
                _symbol_rows(p, kind, rows, p.n, seed=rows),
                _symbol_rows(p, kind, rows, p.two_t + 1, seed=rows + 1),
            )


@pytest.mark.parametrize(
    "code", [c for c in PACKED_CODES if c[0] < 255], ids="n{0[0]}-e{0[1]}-m{0[2]}".format
)
def test_chien_table_finds_every_two_term_root(code):
    # v x^t + v alpha^(-j t) has a root at alpha^(-j). Over every t >= 1,
    # nonzero v and position j, each Chien table entry outside the v = 0
    # rows (which all-zero locators check) decides one of these roots.
    p = _packed_code(*code)
    f = p.field
    v, j = (a.ravel() for a in np.meshgrid(np.arange(1, f.q), np.arange(p.n), indexing="ij"))
    for t in range(1, p.two_t + 1):
        locators = np.zeros((v.size, p.two_t + 1), dtype=np.uint8)
        locators[:, t] = v
        locators[:, 0] = f.mul_table[v, f.exp[-j * t % f.order]]
        roots = p.locator_roots(locators)
        assert roots[np.arange(v.size), j].all()
        assert np.array_equal(roots, rs_oracle.locator_roots(p, locators))


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_packed_tables_match_gather_oracle_hypothesis(data):
    p = _packed_code(*data.draw(st.sampled_from(PACKED_CODES)))
    symbol = st.integers(0, p.field.q - 1)
    rows = data.draw(st.integers(0, 6))
    words = data.draw(
        st.lists(st.lists(symbol, min_size=p.n, max_size=p.n), min_size=rows, max_size=rows)
    )
    locators = data.draw(
        st.lists(
            st.lists(symbol, min_size=p.two_t + 1, max_size=p.two_t + 1),
            min_size=rows,
            max_size=rows,
        )
    )
    _assert_packed_match_oracle(
        p,
        np.array(words, dtype=np.uint8).reshape(rows, p.n),
        np.array(locators, dtype=np.uint8).reshape(rows, p.two_t + 1),
    )


def test_dvd_style_parent_code(field8):
    # full-length (255, 239, 17) variant stays constructible and correct
    p = RsParams(255, 17, field=field8)
    assert (p.k, p.t) == (239, 8)
    rng = SplitMix64(321)
    msg = [rng.below(256) for _ in range(239)]
    cw = rs_encode(p, msg)
    rec = list(cw)
    for pos in rng.sample(255, 8):
        rec[pos] ^= rng.nonzero_symbol(256)
    out = rs_decode(p, rec)
    assert out.status is RsStatus.CORRECTED and out.word == cw


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_round_trip_hypothesis(data):
    p = RsParams(31, 7)
    msg = data.draw(st.lists(st.integers(0, 255), min_size=25, max_size=25))
    e = data.draw(st.integers(0, 3))
    positions = data.draw(
        st.lists(st.integers(0, 30), min_size=e, max_size=e, unique=True)
    )
    values = data.draw(st.lists(st.integers(1, 255), min_size=e, max_size=e))
    cw = rs_encode(p, msg)
    rec = list(cw)
    for pos, val in zip(positions, values):
        rec[pos] ^= val
    out = rs_decode(p, rec)
    assert out.status is RsStatus.CORRECTED
    assert out.word == cw


def _oracle_rows(p, draws):
    """Received words and erasure positions from (seed, erasures, errors) draws."""
    words, erasures = [], []
    for seed, n_erased, weight in draws:
        rng = SplitMix64(seed)
        cw = rs_encode(p, [rng.below(256) for _ in range(p.k)])
        pos = rng.sample(p.n, min(p.n, n_erased + weight))
        rec = list(cw)
        for j in pos[:n_erased]:
            rec[j] = rng.below(256)
        for j in pos[n_erased:]:
            rec[j] ^= rng.nonzero_symbol(256)
        words.append(rec)
        erasures.append(pos[:n_erased])
    return words, erasures


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_decode_batch_matches_scalar_oracle(data):
    # Row by row, the lockstep kernel gives the scalar decoder's status and
    # word, and rs_decode its whole outcome, from clean words to words with
    # every symbol in error; 2t + 1 erasures are refused by both.
    p = RsParams(31, data.draw(st.sampled_from(EPSILONS)))
    draws = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, 2**32),
                st.integers(0, p.two_t + 1),
                st.integers(0, p.n) | st.integers(0, p.t + 2),
            ),
            min_size=1,
            max_size=8,
        )
    )
    words, erasures = _oracle_rows(p, draws)
    usable = [i for i, e in enumerate(erasures) if len(e) <= p.two_t]
    batch = np.array([words[i] for i in usable], dtype=np.uint8).reshape(-1, p.n)
    erased = np.zeros(batch.shape, dtype=bool)
    for row, i in enumerate(usable):
        erased[row, erasures[i]] = True
    out, ok = decode_batch(p, batch, erased)
    for row, i in enumerate(usable):
        expected = rs_oracle.rs_decode(p, words[i], erasures[i])
        assert (bool(ok[row]), out[row].tolist()) == (expected.ok, expected.word)
        assert rs_decode(p, words[i], erasures=erasures[i]) == expected
    for i in set(range(len(words))) - set(usable):
        with pytest.raises(ValueError):
            rs_oracle.rs_decode(p, words[i], erasures[i])
        with pytest.raises(ValueError):
            rs_decode(p, words[i], erasures=erasures[i])
