import numpy as np
import pytest
from hypothesis import given, strategies as st

from pgcodes.galois import GF
from poly_oracle import poly_add, poly_divmod, poly_norm


def slow_mul(a: int, b: int, poly: int = 0x11D, m: int = 8) -> int:
    """Shift-and-reduce oracle, independent of the log/antilog tables."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & (1 << m):
            a ^= poly
    return r


def test_mul_examples(field8):
    assert field8.mul(0x02, 0x02) == 0x04
    assert field8.mul(0xC3, 0x01) == 0xC3
    assert field8.mul(0x80, 0x02) == 0x1D


def test_mul_matches_shift_reduce_oracle_exhaustively(field8):
    for a in range(256):
        for b in range(256):
            assert field8.mul(a, b) == slow_mul(a, b)


def test_pow_and_group_order(field8):
    # alpha = 2 generates the multiplicative group: its powers, by repeated
    # mul, run through every nonzero element once and return to 1 at 255.
    powers = [1]
    for _ in range(255):
        powers.append(field8.mul(powers[-1], 0x02))
    assert powers[255] == 0x01
    assert sorted(powers[:255]) == list(range(1, 256))
    assert powers == [field8.exp_alpha(k) for k in range(256)]


def test_inverse(field8):
    assert field8.inv(0x01) == 0x01
    # exhaustive-search oracle for the expected value
    wanted = next(b for b in range(1, 256) if slow_mul(0x02, b) == 1)
    assert field8.inv(0x02) == wanted == 0x8E
    for a in range(1, 256):
        assert field8.mul(a, field8.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        field8.inv(0)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_field_axioms_exhaustive_small(m):
    f = GF(m)
    q = f.q
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


@given(
    a=st.integers(0, 255),
    b=st.integers(0, 255),
    c=st.integers(0, 255),
)
def test_field_axioms_sampled_gf256(a, b, c):
    f = GF(8)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_rejects_non_primitive_polynomial():
    # x^8+x^4+x^3+x+1 is irreducible but 2 is not a primitive root for it
    with pytest.raises(ValueError):
        GF(8, reduction_poly=0x11B)
    with pytest.raises(ValueError):
        GF(8, reduction_poly=0x1D)  # wrong degree
    with pytest.raises(ValueError):
        GF(9)  # no built-in polynomial


def test_mul_table_matches_scalar(field8):
    t = field8.mul_table
    assert t.shape == (256, 256)
    for a in (0, 1, 2, 0x53, 0xFF):
        for b in (0, 7, 0x80, 0xFF):
            assert int(t[a, b]) == field8.mul(a, b)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_inv_table_inverts_every_nonzero_element(m):
    f = GF(m)
    inv = f.inv_table
    assert inv.shape == (f.q,) and inv[0] == 0
    a = np.arange(1, f.q)
    assert (f.mul_table[a, inv[a]] == 1).all()
    assert inv[1:].tolist() == [f.inv(int(v)) for v in a]


def test_poly_eval(field8):
    assert field8.poly_eval([0x42], 0x99) == 0x42
    assert field8.poly_eval([0, 1], 0x99) == 0x99
    assert field8.poly_eval([], 0x17) == 0
    # Horner against naive power sum
    p = [3, 0, 7, 255]
    x = 0xB5
    naive, x_i = 0, 1
    for c in p:
        naive ^= field8.mul(c, x_i)
        x_i = field8.mul(x_i, x)
    assert field8.poly_eval(p, x) == naive


def test_poly_mul_examples_and_convolution_oracle(field8):
    assert field8.poly_mul([1, 1], [1, 1]) == [1, 0, 1]
    p = [5, 0, 11]
    q = [9, 3]
    out = field8.poly_mul(p, q)
    expect = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            expect[i + j] ^= field8.mul(a, b)
    assert out == expect
    assert field8.poly_mul([], p) == []


@given(
    p=st.lists(st.integers(0, 255), min_size=0, max_size=12),
    d=st.lists(st.integers(0, 255), min_size=1, max_size=6),
)
def test_poly_divmod_property(p, d):
    f = GF(8)
    d = poly_norm(d)
    if not d:
        return
    q, r = poly_divmod(f, p, d)
    assert len(r) < len(d)
    assert poly_norm(poly_add(f.poly_mul(q, d), r)) == poly_norm(p)


def test_poly_divmod_by_zero(field8):
    with pytest.raises(ZeroDivisionError):
        poly_divmod(field8, [1, 2, 3], [0, 0])
