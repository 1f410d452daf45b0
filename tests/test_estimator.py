"""The fit step is an unbiased estimator of the free-energy gradient.

Stochastic ascent reaches the optimum only if each step's gradient is
unbiased (Robbins & Monro 1951; Hoffman, Blei, Wang & Paisley, "Stochastic
Variational Inference", JMLR 2013).  Each case takes K steps at a fixed
zeta off the optimum on batches and noise made by `fit`'s own helpers
(`distributions.make_batches`, `Rng.shuffle` each epoch, `engine._noise`),
so their bugs show.  The mean of the K step gradients is z-tested against
the exact expected gradient: the full-data step averaged over a
20 x 20 probabilists' Gauss-Hermite grid of noise pairs.  K is a multiple of
the batch count B, so every point counts K / B times, once an epoch.
"""

import functools

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from svbayes.distributions import ModelKind, make_batches, sample_data
from svbayes.engine import _noise, free_energy_and_grad
from svbayes.posterior import PriorSpec
from svbayes.rng import Rng

PRIOR = PriorSpec(m0=[0.0, 0.0], C0=np.diag([100.0, 100.0]))
DATA = {
    ModelKind.GAUSSIAN: sample_data(ModelKind.GAUSSIAN, 1.0, 4.0, 100, seed=7),
    ModelKind.FOLDED_NORMAL: sample_data(ModelKind.FOLDED_NORMAL, 1.0, 4.0, 100, seed=201),
}
# off the optimum of both data sets (mu near 1, log variance near 1.4)
ZETA = (0.4, 0.9, -1.2, -1.5, 0.2)
# K steps at L samples a step: a multiple of B = 1, 4 (batch 30 of 100) and 10
STEPS = {1: 20_000, 3: 6_000}
Z_BOUND = 4.0


@functools.cache
def exact_gradient(model: ModelKind, n_params: int) -> np.ndarray:
    """E_eps of the full-data step's gradient, by 20 x 20 Gauss-Hermite nodes."""
    nodes, weights = hermegauss(20)
    weights = weights / weights.sum()  # the sum is sqrt(2 pi)
    data = DATA[model]
    (whole,) = make_batches(model, data.values, len(data))
    zeta = list(ZETA[:n_params])
    total = np.zeros(n_params)
    for e0, w0 in zip(nodes.tolist(), weights.tolist()):
        for e1, w1 in zip(nodes.tolist(), weights.tolist()):
            grad = free_energy_and_grad(whole, zeta, (e0, e1), PRIOR)[3]
            total += (w0 * w1) * np.array(grad)
    return total


def step_gradients(model, batch_size, shuffle, n_samples, n_params, seed):
    """The gradients of K fit steps at the fixed zeta, batches and noise made
    as `fit` makes them: each epoch's B batches once, in order or shuffled."""
    zeta, data, rng = list(ZETA[:n_params]), DATA[model], Rng(seed)
    size = len(data) if batch_size is None else batch_size
    batches = make_batches(model, data.values, size)
    steps = STEPS[n_samples]
    assert steps % len(batches) == 0
    noise, grads = _noise(rng, steps, n_samples), []
    for _ in range(steps // len(batches)):
        if shuffle:
            batches = make_batches(model, rng.shuffle(data.values), size)
            noise = _noise(rng, len(batches), n_samples)
        for batch, eps in zip(batches, noise):
            grads.append(free_energy_and_grad(batch, zeta, eps, PRIOR)[3])
    assert len(grads) == steps
    return np.array(grads)


CASES = [
    pytest.param(batch_size, shuffle, n_samples, 5, id=f"{name}-L{n_samples}")
    for batch_size, shuffle, name in (
        (None, False, "full"), (10, False, "batch10"), (30, False, "batch30"),
        (30, True, "batch30-shuffled"),
    )
    for n_samples in (1, 3)
] + [pytest.param(30, False, 1, 4, id="batch30-L1-nocorr")]


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("batch_size, shuffle, n_samples, n_params", CASES)
def test_mean_step_gradient_is_the_expected_gradient(
    model, batch_size, shuffle, n_samples, n_params
):
    """Every entry of the mean of K step gradients lies within Z_BOUND
    standard errors of the exact expected gradient."""
    grads = step_gradients(model, batch_size, shuffle, n_samples, n_params, seed=5)
    se = grads.std(axis=0, ddof=1) / np.sqrt(len(grads))
    z = (grads.mean(axis=0) - exact_gradient(model, n_params)) / se
    assert np.abs(z).max() <= Z_BOUND, z
