"""Polynomial long division over GF(2^m), the oracle for the RS encoder.

Polynomials are lists of field elements, lowest-degree coefficient first,
as in pgcodes.galois. The library itself never divides polynomials: its RS
encoder is an LFSR, and test_rscodec checks its parity symbols against the
remainder computed here.
"""

from __future__ import annotations

from typing import Sequence

from pgcodes.galois import GF


def poly_divmod(
    field: GF, p: Sequence[int], d: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Quotient and remainder with deg(remainder) < deg(divisor)."""
    d = field.poly_norm(d)
    if not d:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    r = field.poly_norm(p)
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
        r = field.poly_norm(r)
    return quot, r
