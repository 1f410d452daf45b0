"""The pinned random stream: golden bits and split invariance of bulk draws."""

import numpy as np
import pytest

from svbayes.rng import Rng

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


@pytest.mark.parametrize("seed,method", sorted(GOLDEN))
def test_golden_draws(seed, method):
    rng = Rng(seed)
    draws = [getattr(rng, method)() for _ in range(8)]
    assert [d.hex() for d in draws] == GOLDEN[seed, method]


@pytest.mark.parametrize("seed", [0, 42])
def test_bulk_normals_match_golden(seed):
    draws = Rng(seed).standard_normals(8)
    assert [float(d).hex() for d in draws] == GOLDEN[seed, "standard_normal"]


@pytest.mark.parametrize("seed", [0, 7, 42, 2**64 - 1])
@pytest.mark.parametrize("a,b", [(1, 1), (3, 17), (20, 1), (64, 100)])
def test_split_invariance(seed, a, b):
    """standard_normals(a + b) equals standard_normals(a) then (b), and a loop
    of standard_normal(), bit for bit; the stream continues identically."""
    whole_rng, split_rng, loop_rng = Rng(seed), Rng(seed), Rng(seed)
    whole = whole_rng.standard_normals(a + b)
    split = np.concatenate([split_rng.standard_normals(a), split_rng.standard_normals(b)])
    loop = np.array([loop_rng.standard_normal() for _ in range(a + b)])
    assert whole.tobytes() == split.tobytes() == loop.tobytes()
    assert whole_rng.uniform() == split_rng.uniform() == loop_rng.uniform()
