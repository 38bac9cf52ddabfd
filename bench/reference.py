"""A fixed reference kernel, timed beside the program to measure the machine's speed.

A shared virtual machine can run at a speed that drifts by up to 1.6x over
tens of seconds (measured on a 2-vCPU KVM guest), so a wall-clock rate
measured in one run says as much about the moment as about the program.
Each operation is therefore followed by one slice of this kernel, and
timings are reported in ref_ms: one ref_ms is the time the kernel takes for
one unit of its work at the moment the operation ran. A change to pgcodes
cannot change the kernel's speed, so a program that gets twice as fast
reports twice the rate in these units.

The work is the same mix as the decoder's, done with tables of its own:
GF(256) syndromes of short words by numpy table lookups, and Berlekamp-Massey
over those syndromes in pure Python. Nothing here imports pgcodes. One unit
takes 1.1 to 1.5 ms on a 2.1 GHz Xeon vCPU.
"""

from __future__ import annotations

import time

import numpy as np

N = 31  # symbols per word, as in the component code
TWO_T = 6  # syndromes per word
WORDS = 128  # words per unit
UNITS_PER_SLICE = 3

_EXP = [0] * 510
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _EXP[_i + 255] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
_log = np.array(_LOG)
_MUL = np.array(_EXP, dtype=np.uint8)[_log[:, None] + _log[None, :]]
_MUL[0, :] = _MUL[:, 0] = 0
_POW = np.array([[_EXP[(i * j) % 255] for j in range(N)] for i in range(1, TWO_T + 1)], np.uint8)
# Fixed input words, from a multiplicative hash of the symbol index.
_INPUT = np.array([(i * 2654435761 >> 7) & 0xFF for i in range(WORDS * N)], np.uint8).reshape(WORDS, N)


def _mul(a: int, b: int) -> int:
    return _EXP[_LOG[a] + _LOG[b]] if a and b else 0


def _inv(a: int) -> int:
    return _EXP[255 - _LOG[a]]


def _berlekamp_massey(s: list[int]) -> list[int]:
    c, b = [1], [1]
    length, shift, last = 0, 1, 1
    for n in range(len(s)):
        d = s[n]
        for i in range(1, length + 1):
            if i < len(c):
                d ^= _mul(c[i], s[n - i])
        if d == 0:
            shift += 1
            continue
        coef = _mul(d, _inv(last))
        t = c[:]
        c = c + [0] * (len(b) + shift - len(c))
        for i, bi in enumerate(b):
            c[i + shift] ^= _mul(coef, bi)
        if 2 * length <= n:
            length, b, last, shift = n + 1 - length, t, d, 1
        else:
            shift += 1
    return c


def unit() -> int:
    """One unit of reference work; returns a checksum that never changes."""
    syn = np.bitwise_xor.reduce(_MUL[_POW[None, :, :], _INPUT[:, None, :]], axis=2)
    check = 0
    for row in syn.tolist():
        for coef in _berlekamp_massey(row):
            check = (check * 31 + coef) % 1_000_003
    return check


CHECKSUM = unit()


def unit_s() -> float:
    """Seconds per unit of reference work now, from one slice of UNITS_PER_SLICE units."""
    t0 = time.perf_counter()
    for _ in range(UNITS_PER_SLICE):
        if unit() != CHECKSUM:
            raise RuntimeError("reference kernel gave a different checksum")
    return (time.perf_counter() - t0) / UNITS_PER_SLICE
