"""SplitMix64: a tiny, fully specified generator.

Chosen so observation layouts are reproducible bit-for-bit from the seed in
any language, independent of numpy's RNG evolution. Constants are the
published ones (golden-gamma increment, two 64-bit finalizer rounds).
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BELOW_ONE = math.nextafter(1.0, 0.0)


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform float in [0, 1): next 64-bit word scaled by 2^-64. The
        top 1024 words round to 1.0 in that product; they give the largest
        double below 1 instead."""
        return min(self.next_u64() * 2.0**-64, _BELOW_ONE)
