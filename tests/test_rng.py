"""The pinned random stream: golden bits, split invariance of bulk draws, and
the block generator against a one-number-at-a-time reference."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svbayes
from svbayes import engine
from svbayes.rng import BLOCK_STATES, Rng

_MASK64 = (1 << 64) - 1


class ScalarRng:
    """The stream written out plainly: splitmix64 seeding, one xorshift64*
    step per number, Box-Muller per normal and Fisher-Yates per swap."""

    def __init__(self, seed):
        x = ((int(seed) & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        self._state = (x ^ (x >> 31)) or 0x9E3779B97F4A7C15

    def _next_u64(self):
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self):
        return (self._next_u64() >> 11) / float(1 << 53)

    def standard_normal(self):
        u1 = ((self._next_u64() >> 11) + 1) / float(1 << 53)
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def standard_normals(self, n):
        return np.array([self.standard_normal() for _ in range(n)])

    def shuffle(self, values):
        out = np.array(values, copy=True)
        for i in range(len(out) - 1, 0, -1):
            j = int(self.uniform() * (i + 1))
            out[i], out[j] = out[j], out[i]
        return out


# float.hex of the first 8 draws of a fresh generator, one list per method
GOLDEN = {
    (0, "uniform"): [
        "0x1.eef2d035541a0p-2", "0x1.bcffc827a0199p-1", "0x1.678c706a78cd1p-1",
        "0x1.c0e75f8129232p-1", "0x1.fcbe78bacd24cp-2", "0x1.bbe1815311cc6p-2",
        "0x1.04249b5eed040p-2", "0x1.9eeaa81093b30p-5",
    ],
    (0, "standard_normal"): [
        "0x1.a43087870689cp-1", "0x1.33c2c62743f59p-1", "-0x1.14bbd7dde1230p+0",
        "0x1.9283684a51236p+0", "-0x1.4fb646a2da0b0p-1", "-0x1.16a7cab764ec4p-3",
        "-0x1.30d08f4735d93p+0", "0x1.310b61c25d599p-4",
    ],
    (42, "uniform"): [
        "0x1.8d87673e27b48p-3", "0x1.2011476396d0dp-1", "0x1.f1c5ceaf65ef8p-2",
        "0x1.159cb23235ae2p-2", "0x1.9b7a59be69b4ep-1", "0x1.29feb94412f6fp-1",
        "0x1.35492f89c9e20p-2", "0x1.973a0e18662cap-1",
    ],
    (42, "standard_normal"): [
        "-0x1.ac1c9b99391a9p+0", "-0x1.453f79af30de1p-3", "-0x1.268c7ba79f92fp-1",
        "0x1.bd8e1fe5a57f9p-2", "-0x1.5236af2bce9c1p-3", "-0x1.7e36657da0955p+0",
        "-0x1.345bb543c3e07p+0", "-0x1.3c335d0d253d8p+1",
    ],
}


def one_at_a_time(rng, method, n):
    """`n` draws of one number per call, as Python floats: `method` names the
    reference's scalar draw, and the generator draws it in a block of one."""
    draw = {"uniform": rng._uniforms, "standard_normal": rng.standard_normals}[method]
    return [float(draw(1)[0]) for _ in range(n)]


@pytest.mark.parametrize("seed,method", sorted(GOLDEN))
def test_golden_draws(seed, method):
    draws = one_at_a_time(Rng(seed), method, 8)
    assert [d.hex() for d in draws] == GOLDEN[seed, method]


@pytest.mark.parametrize("seed", [0, 42])
def test_bulk_normals_match_golden(seed):
    draws = Rng(seed).standard_normals(8)
    assert [float(d).hex() for d in draws] == GOLDEN[seed, "standard_normal"]


@pytest.mark.parametrize("seed", [0, 7, 42, 2**64 - 1])
@pytest.mark.parametrize("a,b", [(1, 1), (3, 17), (20, 1), (64, 100)])
def test_split_invariance(seed, a, b):
    """standard_normals(a + b) equals standard_normals(a) then (b), and a loop
    of one draw a call, bit for bit; the stream continues identically."""
    whole_rng, split_rng, loop_rng = Rng(seed), Rng(seed), Rng(seed)
    whole = whole_rng.standard_normals(a + b)
    split = np.concatenate([split_rng.standard_normals(a), split_rng.standard_normals(b)])
    loop = np.array(one_at_a_time(loop_rng, "standard_normal", a + b))
    assert whole.tobytes() == split.tobytes() == loop.tobytes()
    next_draws = [r._uniforms(1).tolist() for r in (whole_rng, split_rng, loop_rng)]
    assert next_draws[0] == next_draws[1] == next_draws[2]


SEEDS = [0, 7, 42, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_draws_match_the_scalar_reference(seed):
    rng, ref = Rng(seed), ScalarRng(seed)
    assert rng.standard_normals(100_000).tobytes() == ref.standard_normals(100_000).tobytes()
    assert rng._state == ref._state
    assert one_at_a_time(rng, "uniform", 10_000) == [ref.uniform() for _ in range(10_000)]
    assert rng._state == ref._state


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_straddling_the_blocks_match_the_reference(seed):
    """Normal counts around half a table block (two states per normal) and
    around the fit's noise block, one after another from one generator."""
    half = BLOCK_STATES // 2
    sizes = [half - 1, half, half + 1, 1, BLOCK_STATES - 1, BLOCK_STATES, BLOCK_STATES + 1,
             engine.NOISE_BLOCK_DRAWS + 1]
    rng, ref = Rng(seed), ScalarRng(seed)
    for n in sizes:
        assert rng.standard_normals(n).tobytes() == ref.standard_normals(n).tobytes(), n
        assert rng._state == ref._state, n
    assert rng._uniforms(1)[0] == ref.uniform()


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffle_matches_the_reference(seed):
    """Lengths 1, 2, 101 and 1,000, then n - 1 = block - 1, block, block + 1
    uniforms; the permutation and the stream after it are the reference's."""
    rng, ref = Rng(seed), ScalarRng(seed)
    for n in [1, 2, 101, 1000, BLOCK_STATES, BLOCK_STATES + 1, BLOCK_STATES + 2]:
        values = np.arange(n, dtype=float) * 0.5
        got = rng.shuffle(values)
        assert got.tobytes() == ref.shuffle(values).tobytes(), n
        assert got.dtype == values.dtype
        assert rng._state == ref._state, n
    assert rng.standard_normals(1)[0] == ref.standard_normal()


def test_draws_never_trip_a_raising_error_state():
    """The uint64 wrap-around of the output multiply stays in array
    operations, so a fit's raising error state cannot turn it into a fault."""
    with np.errstate(all="raise"):
        Rng(2**64 - 1).standard_normals(3 * BLOCK_STATES)
        Rng(3).shuffle(np.arange(50.0))


def test_import_builds_no_table():
    code = (
        "import svbayes.cli, svbayes.rng as r; "
        "assert r._jump_table.cache_info().currsize == 0; "
        "r.Rng(1).standard_normals(1); assert r._jump_table.cache_info().currsize == 1"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(svbayes.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**64) + 5])
def test_seed_outside_64_bits_is_rejected(seed):
    """Masking to 64 bits would give each of these the stream of an in-range
    seed (-1 that of 2^64 - 1); the generator refuses them instead."""
    with pytest.raises(ValueError, match="seed"):
        Rng(seed)


@pytest.mark.parametrize("seed", [1.7, "1", np.float64(1.0)], ids=["float", "str", "np-float"])
def test_non_integer_seed_is_rejected(seed):
    """int() would give each of these seed 1's stream."""
    with pytest.raises(ValueError, match="seed must be an integer"):
        Rng(seed)


def test_numpy_integer_seed_draws_the_int_seeds_stream():
    assert Rng(np.uint64(5)).standard_normals(8).tobytes() == Rng(5).standard_normals(8).tobytes()
