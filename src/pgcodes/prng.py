"""Deterministic, portable 64-bit PRNG for reproducible experiments.

Implements splitmix64 (Steele, Lea, Flood: "Fast splittable pseudorandom
number generators", OOPSLA 2014). State advances by the golden-gamma constant
and each output is the mix of the new state, so identical seeds reproduce
identical streams on every platform and in any implementation language.
Output i of a stream is the mix of state + i * gamma, so below_each draws
many outputs at once as one numpy uint64 expression.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
# The same constants as numpy scalars, so that uint64 arithmetic stays uint64
# under every numpy casting rule.
_GAMMA_U64 = np.uint64(_GAMMA)
_MIX_1_U64 = np.uint64(_MIX_1)
_MIX_2_U64 = np.uint64(_MIX_2)


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """_mix of every entry of a uint64 array, in place; array arithmetic wraps mod 2^64."""
    z ^= z >> np.uint64(30)
    z *= _MIX_1_U64
    z ^= z >> np.uint64(27)
    z *= _MIX_2_U64
    z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """splitmix64 stream with rejection-free-of-bias integer helpers."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias removed by rejection; 1 <= n <= 2^64."""
        if not 1 <= n <= 1 << 64:
            raise ValueError(f"need a bound in [1, 2^64], got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def below_each(self, bounds: Sequence[int] | np.ndarray) -> np.ndarray:
        """[below(b) for b in bounds] as a uint64 array, in one numpy expression.

        The stream and the final state are those of the repeated below calls.
        When a draw would be rejected (probability under b / 2^64 each), or a
        bound is not an integer in [1, 2^64), the draws are redone by below.
        """
        b = np.asarray(bounds)
        if b.size == 0:
            return np.zeros(0, dtype=np.uint64)
        if b.dtype.kind not in "iu":
            # Python ints that fit no numpy integer type: keep them exact.
            b = np.asarray(bounds, dtype=object)
        elif b.min() >= 1:
            b = b.astype(np.uint64)
            steps = np.arange(1, b.size + 1, dtype=np.uint64)
            r = _mix_array(np.uint64(self.state) + steps * _GAMMA_U64)
            # below accepts r < 2^64 - (2^64 mod b), that is r <= ~(2^64 mod b).
            if not (r > ~((np.uint64(0) - b) % b)).any():
                self.state = (self.state + b.size * _GAMMA) & _MASK
                return r % b
        return np.array([self.below(x) for x in b.tolist()], dtype=np.uint64)

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct integers from range(n): first k steps of a Fisher-Yates shuffle."""
        if not 0 <= k <= n or n > 1 << 64:
            raise ValueError(f"cannot sample {k} distinct values from range({n})")
        swapped: dict[int, int] = {}
        out = []
        # The bounds n - i, as uint64 unless n = 2^64 does not fit.
        if n > _MASK:
            bounds = range(n, n - k, -1)
        else:
            bounds = np.uint64(n) - np.arange(k, dtype=np.uint64)
        for i, j in enumerate(self.below_each(bounds).tolist()):
            j += i
            vj = swapped.get(j, j)
            swapped[j] = swapped.get(i, i)
            out.append(vj)
        return out

    def nonzero_symbol(self, q: int) -> int:
        """Uniform value in [1, q-1]: a uniformly random nonzero field element."""
        return 1 + self.below(q - 1)


def substream(seed: int, index: int) -> SplitMix64:
    """Independent per-round stream derived from (seed, index).

    The derivation is a fixed function of both inputs, so round i of a run is
    reproducible in isolation and rounds may execute in any order or in
    parallel without changing results.
    """
    return SplitMix64(_mix((seed ^ _mix(_STREAM_SALT ^ (index * _GAMMA))) & _MASK))
