"""Polynomial helpers over GF(2^m) that only the tests need.

Polynomials are lists of field elements, lowest-degree coefficient first,
as in pgcodes.galois. The library itself never divides, adds or normalises
polynomials and builds no generator polynomial: its RS encoder reads the
parity off the row-reduced syndrome functionals, and its decoder is a numpy
kernel. test_rscodec checks the encoder's parity symbols against the
remainder of division by generator_poly computed here, and rs_oracle's
scalar decoder builds on poly_add and poly_norm.
"""

from __future__ import annotations

from typing import Sequence

from pgcodes.galois import GF


def poly_norm(p: Sequence[int]) -> list[int]:
    """Strip high-order zero coefficients; the zero polynomial becomes []."""
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(p: Sequence[int], q: Sequence[int]) -> list[int]:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] ^= c
    return out


def poly_divmod(
    field: GF, p: Sequence[int], d: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Quotient and remainder with deg(remainder) < deg(divisor)."""
    d = poly_norm(d)
    if not d:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    r = poly_norm(p)
    dn = len(d) - 1
    lead_inv = field.inv(d[-1])
    quot = [0] * max(0, len(r) - dn)
    while r and len(r) - 1 >= dn:
        shift = len(r) - 1 - dn
        c = field.mul(r[-1], lead_inv)
        quot[shift] = c
        for i, dc in enumerate(d):
            if dc:
                r[shift + i] ^= field.mul(dc, c)
        r = poly_norm(r)
    return quot, r


def generator_poly(field: GF, two_t: int) -> list[int]:
    """g(x) = prod_{i=1..2t} (x - alpha^i), monic, lowest-degree coefficient first."""
    g = [1]
    for i in range(1, two_t + 1):
        g = field.poly_mul(g, [field.exp_alpha(i), 1])
    return g
