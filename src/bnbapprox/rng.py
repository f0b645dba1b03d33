"""Deterministic 64-bit random generator for instance generation.

SplitMix64: a counter-based generator with a 64-bit state, documented here
so runs are reproducible within this implementation (cross-implementation
bit-exactness is not a goal). Each instance draws from one stream seeded
by its seed, which keeps generation a pure function of (parameters, seed).
"""
from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic stream of 64-bit words with rejection-free-ish ints."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], by rejection sampling (exact)."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        limit = ((1 << 64) // span) * span
        while True:
            draw = self.next_u64()
            if draw < limit:
                return lo + draw % span
