"""Deterministic counter-based random numbers (splitmix64).

All randomness in the library (random time meshes, random initial data)
flows through this generator so that runs are reproducible bit-for-bit
across platforms for a fixed 64-bit seed.  The algorithm is the standard
splitmix64 mixer: the state advances by the golden-gamma constant and each
output is finalized with two xor-shift-multiply rounds.  Since the k-th state
is seed + k * gamma (mod 2^64), a block of draws is one numpy ``uint64`` pass.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit splitmix generator with uniform float output."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform draw in the open interval (0, 1)."""
        return ((self.next_u64() >> 11) + 0.5) * 2.0**-53

    def uniform_sym(self) -> float:
        """Uniform draw in (-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def uniform_block(self, n: int) -> np.ndarray:
        """n ``uniform`` draws in one array, bit for bit, and the state n draws on.

        Every constant is a ``uint64`` scalar, so under NEP 50 promotion the
        arithmetic stays ``uint64`` and wraps modulo 2^64.
        """
        z = np.uint64(self.state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(mix)
        z ^= z >> np.uint64(31)
        self.state = (self.state + n * _GAMMA) & _MASK
        return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def uniform_sym_block(self, n: int) -> np.ndarray:
        """n ``uniform_sym`` draws in one array, bit for bit, and the state n draws on."""
        return 2.0 * self.uniform_block(n) - 1.0
