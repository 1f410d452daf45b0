"""Free-energy objective assembly and the stochastic training loop.

Each optimizer step maps L noise vectors through the Cholesky transform
theta = m + S eps and evaluates the stochastic free energy
F = (1/L) sum_l loglik(theta_l) - KL with its exact gradient in closed
form: the batch log-likelihood partials are pulled back through the
transform (the reparameterization estimator) and the analytic KL gradient
is subtracted.  Adam ascends along that gradient.

The step (:func:`free_energy_and_grad`) is fused for the two-parameter
posterior around one likelihood call; S, the KL, the chain rule and Adam
are plain floats on zeta = (m0, m1, v0, v1[, u]), the one field of the
`PosteriorParams` record a fit starts from and returns.  It takes the
noise in one of two forms and branches only from the samples to the
pull-back: at one sample per step (the paper's estimator and the default)
`fit` hands it the sample's float pair, so the whole step is float
arithmetic from the noise draw to the Adam update; at L > 1 it gets the
noise widened to [1 | eps], and the samples and the pull-back are one
matmul each.
`fit` checks the data once and has `distributions.make_batches` make its
batches once (every epoch when shuffling).  Each step's value is checked once:
F by `fit`, the gradient by the finiteness check Adam makes after its update
anyway.  Adam is the function `optimizer.adam_step` over state that `fit`
keeps as locals, the step count and the two moment lists it updates in place,
so a step copies nothing but zeta.  One generator, `_noise`, owns the draw
order: `fit` opens one stream for the whole fit, or one per epoch right after
its shuffle, and the stream draws lazily in blocks of up to NOISE_BLOCK_DRAWS
normals, in the stream order of per-step draws, so everything downstream of
the seed is deterministic.
A step keeps nothing for the garbage collector to track: its noise pair is
made as it is taken, and its five trace numbers go onto the `Trace` columns.
The final free-energy re-estimate runs on `distributions.loglik_at`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import distributions, posterior
from .distributions import Dataset, ModelKind, make_batches
from .optimizer import adam_step, check_learning_rate
from .posterior import PosteriorParams, PriorSpec
from .rng import SEED_MAX, Rng, check_count

# Normal draws per `Rng.standard_normals` call in `_noise`: a whole fit's
# noise at the usual sizes, a bounded buffer at any step count and L.
NOISE_BLOCK_DRAWS = 16_384
# Trace steps a DivergenceError keeps from before the failed step.
DIVERGENCE_RECENT = 5


class Trace(NamedTuple):
    """A fit's per-step record, five columns of plain numbers: step i's epoch,
    batch index in the epoch, stochastic F and its two parts are entry i of
    each (not a record a step, which the garbage collector would track)."""

    epoch: tuple[int, ...]
    step: tuple[int, ...]
    free_energy: tuple[float, ...]
    kl: tuple[float, ...]
    mc_loglik: tuple[float, ...]


class DivergenceError(RuntimeError):
    """The objective or its gradient became non-finite during a fit: at step
    index `step`, from parameters `zeta`, after the steps whose `Trace`
    `recent` holds (up to DIVERGENCE_RECENT, oldest first)."""

    def __init__(self, message: str, trace: Trace, zeta: Sequence[float]) -> None:
        self.step = len(trace.step)
        self.zeta = np.array(zeta)
        self.recent = Trace(*(tuple(c[-DIVERGENCE_RECENT:]) for c in trace))
        super().__init__(f"{message} (step {self.step}, zeta={self.zeta.tolist()})")


@dataclass(frozen=True)
class TrainConfig:
    """Settings for one fit, the one home of their defaults and checks: each
    count passes `rng.check_count` and is kept as a plain int (epochs and
    mc_samples >= 1, final_fe_samples >= 2, batch_size >= 1 unless None for
    full-data steps, checked against N by `make_batches`, and a seed in
    [0, rng.SEED_MAX]); the learning rate passes `optimizer.check_learning_rate`."""

    epochs: int = 400
    batch_size: int | None = None
    mc_samples: int = 1
    learning_rate: float = 0.1
    seed: int = 0
    correlation_enabled: bool = True
    final_fe_samples: int = 1000
    shuffle: bool = False

    def __post_init__(self) -> None:
        counts = [("epochs", 1), ("mc_samples", 1), ("final_fe_samples", 2), ("seed", 0, SEED_MAX)]
        if self.batch_size is not None:  # None: full-data steps
            counts.append(("batch_size", 1))
        for name, *bounds in counts:
            object.__setattr__(self, name, check_count(getattr(self, name), name, *bounds))
        check_learning_rate(self.learning_rate)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class FitResult:
    """The fitted posterior record (its mean, cov and rho are views of the
    fitted zeta) plus the full optimization record."""

    posterior: PosteriorParams
    trace: Trace = field(repr=False)
    final_free_energy: tuple[float, float]  # (mean, standard error)
    config: TrainConfig

    @property
    def steps(self) -> int:
        return len(self.trace.step)

    def to_json_dict(self) -> dict:
        mean, se = self.final_free_energy
        return {"posterior": self.posterior.to_json_dict(), "config": self.config.to_json_dict(),
                "final_free_energy": {"mean": mean, "se": se}, "steps": self.steps}


# A fit step's result: (F, mc_loglik, KL, dF/dzeta packed like zeta).
StepResult = tuple[float, float, float, list[float]]


def free_energy_and_grad(
    batch: distributions.Batch, zeta: Sequence[float], noise, prior: PriorSpec
) -> StepResult:
    """Stochastic free energy and its exact gradient: the fit step.

    `zeta` packs (m0, m1, v0, v1[, u]) as `PosteriorParams.zeta` does,
    with u (and its gradient entry) only when it has five entries, and
    `batch` is one of `make_batches`' batches of the data.  `noise` is the
    float pair (e0, e1) of one sample, as a list or tuple, or the (L, 3)
    array [1 | eps] of L samples.  Only the samples and the pull-back depend
    on the form.  One sample gives theta = m + S eps as three float products
    and the pull-back to S as D = g eps; L samples give
    theta = [1 | eps] [m; S^T] and [ll | d_mu | d_theta2]^T [1 | eps] / L,
    which holds the Monte Carlo log-likelihood, the mean partials g (the
    pull-back to m) and D = (1/L) g eps.  Through S_ii = exp(v_i) the v_i
    partial is D_ii exp(v_i), the u partial is D_10; the KL and its gradient
    come from `posterior.kl_and_grad` on zeta and the step's S.  The batch
    is not checked (`fit` checks the whole dataset once).  Raises
    OverflowError or, under a raising numpy error state, FloatingPointError;
    a plain-float overflow shows as a non-finite value or gradient.
    """
    m0, m1 = zeta[0], zeta[1]
    s = s00, s10, s11 = posterior.factor(zeta)
    if isinstance(noise, (list, tuple)):
        e0, e1 = noise
        mc, g0, g1 = distributions.loglik_terms(batch, m0 + s00 * e0, m1 + s10 * e0 + s11 * e1)
        d00, d10, d11 = g0 * e0, g1 * e0, g1 * e1
    else:
        n = len(noise)
        theta = noise @ np.array((m0, m1, s00, s10, 0.0, s11)).reshape(3, 2)
        parts = distributions.loglik_terms(batch, theta[:, 0], theta[:, 1])
        # L times [mc | g | D]: row 0 sums ll, rows 1-2 are [sum_l g_l | g eps]
        (mc, _, _), (g0, d00, _), (g1, d10, d11) = (np.array(parts) @ noise).tolist()
        # divided as floats, not as an array: the same bits, about 1 us a step less
        mc, g0, g1, d00, d10, d11 = mc / n, g0 / n, g1 / n, d00 / n, d10 / n, d11 / n
    kl, dkl_dm0, dkl_dm1, dkl_dv0, dkl_dv1, dkl_du = posterior.kl_and_grad(zeta, s, prior)
    grad = [g0 - dkl_dm0, g1 - dkl_dm1, d00 * s00 - dkl_dv0, d11 * s11 - dkl_dv1]
    if len(zeta) == 5:  # u, as `posterior.factor` reads it
        grad.append(d10 - dkl_du)
    return mc - kl, mc, kl, grad


def fit(
    model: ModelKind, data: Dataset, prior: PriorSpec, config: TrainConfig
) -> FitResult:
    """Optimize the approximate posterior by stochastic free-energy ascent.

    Full-data mode takes one step per epoch on all points; mini-batch mode
    takes one step per batch, passing through the data once per epoch.  The
    data are checked once, here.  Each step's F is checked here and its
    gradient by Adam's post-update check; a non-finite value, a numpy fault
    or an Adam overflow raises DivergenceError with the step's index, its
    pre-step zeta and the last trace steps before it (Adam's moments, which
    a failed step may have half updated, are dropped).  The returned final
    free energy re-estimates the objective on the full data with
    `final_fe_samples` fresh draws, since single-sample step values are noisy.
    """
    distributions.check_support(model, data.values)
    rng = Rng(config.seed)
    zeta = PosteriorParams.initial(prior, config.correlation_enabled).zeta
    first, second, t = [0.0] * len(zeta), [0.0] * len(zeta), 0  # Adam's moments and step count
    batch_size = len(data) if config.batch_size is None else config.batch_size
    n_samples, learning_rate = config.mc_samples, config.learning_rate

    trace = epochs, steps, fes, kls, mcs = Trace([], [], [], [], [])  # lists, tuples at the end
    # an overflow or invalid operation anywhere in a step or in the final
    # estimate makes its numbers meaningless: report it as a divergence
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            batches = make_batches(model, data.values, batch_size)
            noise = _noise(rng, config.epochs * len(batches), n_samples)
            for epoch in range(config.epochs):
                if config.shuffle:
                    batches = make_batches(model, rng.shuffle(data.values), batch_size)
                    noise = _noise(rng, len(batches), n_samples)
                for step, (batch, eps) in enumerate(zip(batches, noise)):
                    fe, mc, kl, grad = free_energy_and_grad(batch, zeta, eps, prior)
                    # plain-float F = mc - KL can overflow without a numpy fault
                    if not math.isfinite(fe):
                        raise DivergenceError("non-finite objective", trace, zeta)
                    # raises OverflowError on a non-finite gradient, moment or update
                    t += 1
                    zeta = adam_step(zeta, grad, first, second, t, learning_rate)
                    epochs.append(epoch)
                    steps.append(step)
                    fes.append(fe)
                    kls.append(kl)
                    mcs.append(mc)
        except (FloatingPointError, OverflowError) as err:
            raise DivergenceError(f"step failed: {err}", trace, zeta) from err

        params = PosteriorParams(zeta)
        try:
            final_fe = _final_free_energy(model, data, params, prior, config.final_fe_samples, rng)
        except (FloatingPointError, OverflowError) as err:
            raise DivergenceError(f"final free energy failed: {err}", trace, zeta) from err
    return FitResult(params, Trace(*map(tuple, trace)), final_fe, config)


def _noise(rng: Rng, steps: int, n_samples: int) -> Iterator[tuple[float, float] | np.ndarray]:
    """The noise of `steps` fit steps: a float pair a step at one sample, else
    one [1 | eps] array of shape (n_samples, 3).  Drawn lazily, at most
    NOISE_BLOCK_DRAWS normals per `standard_normals` call (the last block is
    short), so `rng` moves on exactly as per-step draws would move it."""
    block_steps = max(1, NOISE_BLOCK_DRAWS // (n_samples * 2))
    for lo in range(0, steps, block_steps):
        k = min(block_steps, steps - lo)
        draws = rng.standard_normals(k * n_samples * 2)
        # one sample: each pair made as it is taken, `zip` reading the flat list twice
        yield from zip(*[iter(draws.tolist())] * 2) if n_samples == 1 else np.concatenate(
            (np.ones((k, n_samples, 1)), draws.reshape(k, n_samples, 2)), axis=2
        )


def _final_free_energy(
    model: ModelKind, data: Dataset, params: PosteriorParams, prior: PriorSpec,
    n_samples: int, rng: Rng,
) -> tuple[float, float]:
    """Multi-sample estimate of F on the full data: (mean, standard error)."""
    kl = posterior.kl_value(params, prior)
    epsilons = rng.standard_normals(n_samples * 2).reshape(n_samples, 2)
    thetas = params.mean + epsilons @ posterior.cholesky_factor(params).T
    (whole,) = make_batches(model, data.values, len(data))
    values = distributions.loglik_at(whole, thetas) - kl
    se = float(np.std(values, ddof=1) / math.sqrt(n_samples))
    return float(np.mean(values)), se
