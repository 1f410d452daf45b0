"""One integer rule for every count: `rng.check_count`.

Each count is refused unless it is an integer (`operator.index`) in its
range, where its record is built or its function is called, and a numpy
integer is kept as a plain int.
"""

import json
import re

import numpy as np
import pytest

from svbayes import rng
from svbayes.distributions import Dataset, ModelKind, NaturalParams, sample_data
from svbayes.engine import TrainConfig, fit, make_batches
from svbayes.grid_oracle import GridSpec
from svbayes.posterior import PriorSpec
from svbayes.rng import Rng

DATA = Dataset(np.linspace(-1.0, 3.0, 10))
PARAMS = NaturalParams.from_mean_variance(1.0, 4.0)

# the name a refusal gives, the least value taken, and a call that takes the
# count and returns what holds it
COUNTS = {
    "epochs": ("epochs", 1, lambda k: TrainConfig(epochs=k).epochs),
    "mc_samples": ("mc_samples", 1, lambda k: TrainConfig(mc_samples=k).mc_samples),
    "final_fe_samples": (
        "final_fe_samples", 2, lambda k: TrainConfig(final_fe_samples=k).final_fe_samples
    ),
    "batch_size": ("batch_size", 1, lambda k: TrainConfig(batch_size=k).batch_size),
    "seed": ("seed", 0, lambda k: TrainConfig(seed=k).seed),
    "make_batches": ("batch_size", 1, lambda k: len(make_batches(DATA, k)[0])),
    "resolution": ("resolution", 2, lambda k: GridSpec(resolution=k).resolution),
    "sample_data": ("n", 1, lambda k: len(sample_data(ModelKind.GAUSSIAN, PARAMS, k, 0))),
    "standard_normals": ("n", 1, lambda k: len(Rng(0).standard_normals(k))),
}
count_cases = pytest.mark.parametrize("name, lo, build", COUNTS.values(), ids=list(COUNTS))


@count_cases
@pytest.mark.parametrize("value", [2.5, "3", np.float64(3.0)], ids=["float", "str", "np-float"])
def test_a_non_integer_is_refused(name, lo, build, value):
    message = re.escape(f"{name} must be an integer, got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(value)


@count_cases
def test_a_numpy_integer_is_kept_as_an_int(name, lo, build):
    count = build(np.int64(3))
    assert type(count) is int and count == 3


@count_cases
def test_a_value_below_the_minimum_is_refused(name, lo, build):
    bounds = rf"(>= {lo}|in \[{lo}, \d+\])"
    with pytest.raises(ValueError, match=rf"^{name} must be {bounds}, got {lo - 1}$"):
        build(lo - 1)
    assert build(lo) == lo


def test_make_batches_refuses_more_than_the_data():
    with pytest.raises(ValueError, match=r"^batch_size must be in \[1, 10\], got 11$"):
        make_batches(DATA, 11)


def test_check_count_bounds_are_inclusive():
    assert rng.check_count(rng.SEED_MAX, "seed", 0, rng.SEED_MAX) == 2**64 - 1
    with pytest.raises(ValueError, match=rf"^seed must be in \[0, {2**64 - 1}\], got {2**64}$"):
        rng.check_count(2**64, "seed", 0, rng.SEED_MAX)


def test_a_fit_of_numpy_integer_counts_writes_the_json_of_plain_ints():
    """The fit JSON records the counts it ran as JSON integers, the bytes of
    the same fit from plain ints; a bool count is the int it stands for."""
    prior = PriorSpec.diagonal(0.0, 100.0)
    counts = {"epochs": 3, "batch_size": 4, "mc_samples": 3, "final_fe_samples": 5, "seed": 7}
    plain = json.dumps(fit(ModelKind.GAUSSIAN, DATA, prior, TrainConfig(**counts)).to_json_dict())
    as_numpy = TrainConfig(**{k: np.int64(v) for k, v in counts.items()})
    assert json.dumps(fit(ModelKind.GAUSSIAN, DATA, prior, as_numpy).to_json_dict()) == plain
    config = TrainConfig(epochs=True, mc_samples=np.uint8(1)).to_json_dict()
    assert json.dumps(config).startswith('{"epochs": 1, "batch_size": null, "mc_samples": 1,')


def test_the_per_module_count_checks_are_gone():
    assert not hasattr(rng, "check_seed")
    assert not hasattr(GridSpec, "axis_counts")
