"""Deterministic pseudo-random numbers for reproducible experiments.

The generator is pinned per release so that a seed identifies one exact
stream on every platform:

* state seeding: one round of splitmix64 over the seed, in [0, 2^64),
* uniforms: xorshift64* with the high 53 bits mapped into [0, 1),
* normals: basic Box-Muller transform; each draw consumes exactly two
  uniforms and keeps only the cosine branch, so the stream position is a
  pure function of the number of draws.

The stream is produced in blocks, bit for bit what one state step per
number would give.  The xorshift step T is linear over GF(2), so the
state k steps on is T^k x, the XOR of the columns T^k e_b over the set
bits b of x: with a table of those columns for k = 1..BLOCK_STATES, one
numpy reduction yields a block of states.  The logs and cosines of
Box-Muller are taken with `math` (numpy's may differ in the last bit);
the other operations are exact or correctly rounded in both.  Every draw
method takes this one path.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_TWO53 = float(1 << 53)
_TWO_PI = 2.0 * math.pi
_MULTIPLIER = np.uint64(0x2545F4914F6CDD1D)

# states per table reduction, and normals per Box-Muller chunk (a bounded
# working set however many are drawn)
BLOCK_STATES = 1024
_NORMALS_CHUNK = 32_768


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@functools.cache
def _jump_table() -> np.ndarray:
    """(64, BLOCK_STATES) uint64: entry [b, i] is T^(i+1) e_b.

    Built on the first draw, not at import; all wrap-around stays in array
    operations, which never raise under a numpy error state."""
    table = np.empty((64, BLOCK_STATES), dtype=np.uint64)
    x = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    for i in range(BLOCK_STATES):
        x ^= x >> 12
        x ^= x << 25
        x ^= x >> 27
        table[:, i] = x
    table.setflags(write=False)  # shared by every generator in the process
    return table


def check_seed(seed) -> int:
    """`seed` as a plain int, or ValueError unless it is an integer in [0, 2**64)."""
    try:  # any integer type; int() would give a float or a string an integer's stream
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


class Rng:
    """xorshift64* stream with Box-Muller normal deviates."""

    def __init__(self, seed: int) -> None:
        self._state = _splitmix64(check_seed(seed))
        if self._state == 0:  # xorshift requires nonzero state
            self._state = 0x9E3779B97F4A7C15

    def _bits53(self, n: int) -> np.ndarray:
        """The next n outputs' high 53 bits, as exact float64 integers."""
        table = _jump_table()
        out = np.empty(n)
        for lo in range(0, n, BLOCK_STATES):
            k = min(BLOCK_STATES, n - lo)
            x = self._state
            rows = table[[b for b in range(64) if x >> b & 1], :k]
            states = np.bitwise_xor.reduce(rows, axis=0)
            self._state = int(states[-1])
            out[lo : lo + k] = (states * _MULTIPLIER) >> 11
        return out

    def _uniforms(self, n: int) -> np.ndarray:
        return self._bits53(n) / _TWO53

    def standard_normals(self, n: int) -> np.ndarray:
        """`n` independent N(0, 1) draws as a float64 vector.

        Draw i uses u1 = (x + 1) / 2^53 in (0, 1], which keeps the log
        finite, and u2 = x' / 2^53 from the next state."""
        if n < 1:
            raise ValueError(f"need at least one draw, got n={n}")
        out = np.empty(n)
        for lo in range(0, n, _NORMALS_CHUNK):
            k = min(_NORMALS_CHUNK, n - lo)
            bits = self._bits53(2 * k)
            u1 = (bits[0::2] + 1.0) / _TWO53
            angle = _TWO_PI * (bits[1::2] / _TWO53)
            log_u1 = np.fromiter(map(math.log, u1.tolist()), float, k)
            cos = np.fromiter(map(math.cos, angle.tolist()), float, k)
            out[lo : lo + k] = np.sqrt(-2.0 * log_u1) * cos
        return out

    def shuffle(self, values: np.ndarray) -> np.ndarray:
        """Fisher-Yates permutation of a copy of `values` (along axis 0)."""
        values = np.asarray(values)
        n = len(values)
        if n < 2:
            return values.copy()
        # step i = n-1, ..., 1 swaps i with j = floor(u * (i + 1))
        picks = (self._uniforms(n - 1) * np.arange(n, 1, -1)).astype(np.int64).tolist()
        order = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), picks):
            order[i], order[j] = order[j], order[i]
        return values[order]
