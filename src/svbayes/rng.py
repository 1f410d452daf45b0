"""Deterministic pseudo-random numbers for reproducible experiments.

The generator is pinned per release so that a seed identifies one exact
stream on every platform:

* state seeding: one round of splitmix64 over the 64-bit seed,
* uniforms: xorshift64* with the high 53 bits mapped into [0, 1),
* normals: basic Box-Muller transform; each draw consumes exactly two
  uniforms and keeps only the cosine branch, so the stream position is a
  pure function of the number of draws.

`standard_normals(n)` returns the next n normals as one vector, bit for
bit what n calls of `standard_normal` would; the fit draws each epoch's
noise with one such call.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_TWO53 = float(1 << 53)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Rng:
    """xorshift64* stream with Box-Muller normal deviates."""

    def __init__(self, seed: int) -> None:
        self._state = _splitmix64(int(seed) & _MASK64)
        if self._state == 0:  # xorshift requires nonzero state
            self._state = 0x9E3779B97F4A7C15

    def _next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12) & _MASK64
        x = (x ^ (x << 25)) & _MASK64
        x ^= (x >> 27) & _MASK64
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits."""
        return (self._next_u64() >> 11) / _TWO53

    def standard_normal(self) -> float:
        """One N(0, 1) draw; consumes two uniforms."""
        u1 = ((self._next_u64() >> 11) + 1) / _TWO53  # (0, 1], keeps log finite
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def standard_normals(self, n: int) -> np.ndarray:
        """`n` independent N(0, 1) draws as a float64 vector."""
        if n < 1:
            raise ValueError(f"need at least one draw, got n={n}")
        return np.array([self.standard_normal() for _ in range(n)])

    def shuffle(self, values: np.ndarray) -> np.ndarray:
        """Fisher-Yates permutation of a copy of `values`."""
        out = np.array(values, copy=True)
        for i in range(len(out) - 1, 0, -1):
            j = int(self.uniform() * (i + 1))
            out[i], out[j] = out[j], out[i]
        return out
