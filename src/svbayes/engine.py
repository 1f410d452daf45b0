"""Free-energy objective assembly and the stochastic training loop.

Each optimizer step maps L noise vectors through the Cholesky transform
theta = m + S eps and evaluates the stochastic free energy
F = (1/L) sum_l loglik(theta_l) - KL with its exact gradient in closed
form: the batch log-likelihood partials are pulled back through the
transform (the reparameterization estimator) and the analytic KL gradient
is subtracted.  Maximization runs as Adam descent on the negated objective.

The step (:func:`free_energy_and_grad`) is fused for the two-parameter
posterior around one likelihood call; S, the KL, the chain rule and Adam
are plain floats on (m0, m1, v0, v1[, u]).  At one sample per step (the
paper's estimator and the default) theta and the pull-back of the partials
are float products too, and the likelihood gets the sample as two floats;
at L > 1 the samples and the pull-back are one matmul each on the noise
widened to [1 | eps].
`fit` checks the data once and summarizes each batch once (every epoch
when shuffling).  Each step's value is checked once: F by `fit`, the
gradient by the finiteness check Adam makes after its update anyway.  The
noise comes in blocks of up to NOISE_BLOCK_DRAWS normals that span epochs
(a whole fit is one block at the usual sizes) and stop only at a shuffle,
in the stream order of per-step draws, so everything downstream of the
seed is deterministic.
The final free-energy re-estimate runs on `distributions.loglik_at`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import distributions, posterior
from .distributions import Dataset, DomainError, ModelKind
from .optimizer import Adam
from .posterior import PosteriorParams, PriorSpec
from .rng import Rng

# Normal draws per `Rng.standard_normals` call in `fit`: a whole fit's
# noise at the usual sizes, a bounded buffer at any step count and L.
NOISE_BLOCK_DRAWS = 16_384


class DivergenceError(RuntimeError):
    """The objective or its gradient became non-finite during a fit."""

    def __init__(self, message: str, step: int, zeta: np.ndarray) -> None:
        super().__init__(f"{message} (step {step}, zeta={zeta.tolist()})")
        self.step = step
        self.zeta = zeta


@dataclass(frozen=True)
class TrainConfig:
    """Settings for one fit; `batch_size=None` means full-data steps."""

    epochs: int = 400
    batch_size: int | None = None
    mc_samples: int = 1
    learning_rate: float = 0.1
    seed: int = 0
    correlation_enabled: bool = True
    final_fe_samples: int = 1000
    shuffle: bool = False
    init: PosteriorParams | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.final_fe_samples < 2:
            raise ValueError("final_fe_samples must be >= 2")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")

    def to_json_dict(self) -> dict:
        out = {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "mc_samples": self.mc_samples,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
            "correlation_enabled": self.correlation_enabled,
            "final_fe_samples": self.final_fe_samples,
            "shuffle": self.shuffle,
        }
        if self.init is not None:
            out["init"] = {
                "m": self.init.m.tolist(),
                "v": self.init.v.tolist(),
                "u": self.init.u.tolist(),
            }
        return out


class TraceRecord(NamedTuple):
    """One optimizer step: stochastic objective value and its two parts."""

    epoch: int
    step: int
    free_energy: float
    kl: float
    mc_loglik: float


TRACE_CSV_HEADER = "epoch,step,F,kl,mc_loglik"


def write_trace_csv(trace: Sequence[TraceRecord], path) -> None:
    lines = [TRACE_CSV_HEADER]
    for r in trace:
        lines.append(
            f"{r.epoch},{r.step},{r.free_energy!r},{r.kl!r},{r.mc_loglik!r}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class FitResult:
    """Converged posterior plus the full optimization record."""

    posterior: posterior.PosteriorSummary
    params: PosteriorParams = field(repr=False)
    trace: tuple[TraceRecord, ...] = field(repr=False)
    final_free_energy: tuple[float, float]  # (mean, standard error)
    config: TrainConfig
    steps: int

    def to_json_dict(self) -> dict:
        return {
            "posterior": self.posterior.to_json_dict(),
            "final_free_energy": {
                "mean": self.final_free_energy[0],
                "se": self.final_free_energy[1],
            },
            "config": self.config.to_json_dict(),
            "steps": self.steps,
        }


class Objective(NamedTuple):
    """Free energy, its two parts, and dF/dzeta packed like zeta."""

    free_energy: float
    mc_loglik: float
    kl: float
    grad: list[float]


def free_energy_and_grad(
    model: ModelKind,
    batch: distributions.Batch,
    n_total: int,
    zeta: Sequence[float],
    epsilons: np.ndarray,
    prior: PriorSpec,
    correlation_enabled: bool,
) -> Objective:
    """Stochastic free energy and its exact gradient: the fused fit step.

    `zeta` packs (m0, m1, v0, v1[, u]) in the order `fit` optimizes them,
    `batch` is the `distributions.summarize` of the batch and `epsilons` the
    (L, 3) noise [1 | eps].  theta = [1 | eps] [m; S^T], and
    [ll | d_mu | d_theta2]^T [1 | eps] / L holds the Monte Carlo
    log-likelihood, the mean partials g (the pull-back to m) and
    D = (1/L) g eps (the pull-back to S).  At L = 1 these are float
    products on the noise row and `distributions.loglik_terms` gets scalar
    coordinates: the same formulas, which can differ from the matmuls only
    in the last bit of theta.  Through S_ii = exp(v_i) the v_i partial is
    D_ii exp(v_i), the u partial is D_10; the KL and its gradient come from
    `posterior.kl_and_grad` on the step's S.  The batch is not checked (`fit`
    checks the whole dataset once).  Raises OverflowError or, under a
    raising numpy error state, FloatingPointError; a plain-float overflow
    shows as a non-finite value or gradient.
    """
    m0, m1, v0, v1 = zeta[0], zeta[1], zeta[2], zeta[3]
    u = zeta[4] if correlation_enabled else 0.0
    s = s00, s10, s11 = posterior.factor(v0, v1, u)
    n = len(epsilons)
    if n == 1:  # one sample: theta, the likelihood and g, D = g eps on floats
        ((_, e0, e1),) = epsilons.tolist()
        mc, g0, g1 = map(float, distributions.loglik_terms(
            model, batch, m0 + s00 * e0, m1 + s10 * e0 + s11 * e1, n_total
        ))
        d00, d10, d11 = g0 * e0, g1 * e0, g1 * e1
    else:
        theta = epsilons @ np.array((m0, m1, s00, s10, 0.0, s11)).reshape(3, 2)
        parts = distributions.loglik_terms(model, batch, theta[:, 0], theta[:, 1], n_total)
        # L times [mc | g | D]: row 0 sums ll, rows 1-2 are [sum_l g_l | g eps]
        (mc, _, _), (g0, d00, _), (g1, d10, d11) = (np.array(parts) @ epsilons).tolist()
    kl, dkl_dm0, dkl_dm1, dkl_dv0, dkl_dv1, dkl_du = posterior.kl_and_grad(
        m0, m1, v0, v1, s, prior
    )
    grad = [g0 / n - dkl_dm0, g1 / n - dkl_dm1, d00 / n * s00 - dkl_dv0, d11 / n * s11 - dkl_dv1]
    if correlation_enabled:
        grad.append(d10 / n - dkl_du)
    return Objective(mc / n - kl, mc / n, kl, grad)


def make_batches(data: Dataset, batch_size: int) -> list[np.ndarray]:
    """Contiguous disjoint batches covering the data in order.

    A shorter remainder batch is allowed; its own length enters the N/M
    rescaling so the expected scaled log-likelihood stays unbiased.
    """
    n = len(data)
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in [1, {n}], got {batch_size}")
    return _cut(data.values, batch_size)


def _cut(values: np.ndarray, batch_size: int) -> list[np.ndarray]:
    return [values[i : i + batch_size] for i in range(0, len(values), batch_size)]


def _pack(params: PosteriorParams) -> list[float]:
    parts = [params.m, params.v]
    if params.correlation_enabled:
        parts.append(params.u)
    return np.concatenate(parts).tolist()


def _unpack(zeta: list[float], template: PosteriorParams) -> PosteriorParams:
    u = zeta[4:] if template.correlation_enabled else template.u
    return PosteriorParams(
        m=zeta[:2], v=zeta[2:4], u=u, correlation_enabled=template.correlation_enabled
    )


def fit(
    model: ModelKind, data: Dataset, prior: PriorSpec, config: TrainConfig
) -> FitResult:
    """Optimize the approximate posterior by stochastic free-energy ascent.

    Full-data mode takes one step per epoch on all points; mini-batch mode
    takes one step per batch, passing through the data once per epoch.  The
    data are checked once, here, and the noise drawn in blocks (see the
    module docstring).  Each step's F is checked here and its gradient by
    Adam's post-update check; a non-finite value, a numpy fault or an Adam
    overflow raises DivergenceError with the step's index and its pre-step
    zeta.  The returned final free energy re-estimates the objective on the
    full data with `final_fe_samples` fresh draws, since single-sample step
    values are noisy.
    """
    if model is ModelKind.FOLDED_NORMAL and np.any(data.values <= 0.0):
        raise DomainError("folded normal data must be strictly positive")
    params = config.init if config.init is not None else PosteriorParams.initial(
        prior, config.correlation_enabled
    )
    if params.correlation_enabled != config.correlation_enabled:
        raise ValueError("init and config disagree on correlation_enabled")

    rng = Rng(config.seed)
    zeta = _pack(params)
    optimizer = Adam(len(zeta), learning_rate=config.learning_rate)
    n_total = len(data)
    batch_size = n_total if config.batch_size is None else config.batch_size
    n_samples = config.mc_samples
    correlation = config.correlation_enabled

    # the steps whose noise one `standard_normals` call draws; a block never
    # spans a shuffle, so the stream order is that of per-step draws
    block_steps = max(1, NOISE_BLOCK_DRAWS // (n_samples * 2))
    noise, used = [], 0  # the drawn block and how many of its steps have run
    trace: list[TraceRecord] = []
    # an overflow or invalid operation anywhere in a step or in the final
    # estimate makes its numbers meaningless: report it as a divergence
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            batches = [distributions.summarize(model, b) for b in make_batches(data, batch_size)]
            for epoch in range(config.epochs):
                if config.shuffle:
                    shuffled = _cut(rng.shuffle(data.values), batch_size)
                    batches = [distributions.summarize(model, b) for b in shuffled]
                for step, batch in enumerate(batches):
                    if used == len(noise):
                        # the steps left before the next shuffle, or in the fit
                        epochs_left = 1 if config.shuffle else config.epochs - epoch
                        k = min(block_steps, epochs_left * len(batches) - step)
                        draws = rng.standard_normals(k * n_samples * 2).reshape(k, n_samples, 2)
                        noise = np.concatenate((np.ones((k, n_samples, 1)), draws), axis=2)
                        used = 0
                    fe, mc, kl, grad = free_energy_and_grad(
                        model, batch, n_total, zeta, noise[used], prior, correlation
                    )
                    used += 1
                    # plain-float F = mc - KL can overflow without a numpy fault
                    if not math.isfinite(fe):
                        raise DivergenceError("non-finite objective", len(trace), np.array(zeta))
                    # raises OverflowError on a non-finite gradient, moment or update
                    zeta = optimizer.step(zeta, [-g for g in grad])
                    trace.append(TraceRecord(epoch, step, fe, kl, mc))
        except (FloatingPointError, OverflowError) as err:
            raise DivergenceError(f"step failed: {err}", len(trace), np.array(zeta)) from err

        params = _unpack(zeta, params)
        try:
            final_fe = _final_free_energy(
                model, data, params, prior, config.final_fe_samples, rng
            )
        except (FloatingPointError, OverflowError) as err:
            raise DivergenceError(
                f"final free energy failed: {err}", len(trace), np.array(zeta)
            ) from err
    return FitResult(
        posterior=posterior.PosteriorSummary(params),
        params=params,
        trace=tuple(trace),
        final_free_energy=final_fe,
        config=config,
        steps=len(trace),
    )


def _final_free_energy(
    model: ModelKind,
    data: Dataset,
    params: PosteriorParams,
    prior: PriorSpec,
    n_samples: int,
    rng: Rng,
) -> tuple[float, float]:
    """Multi-sample estimate of F on the full data: (mean, standard error)."""
    kl = posterior.kl_value(params, prior)
    epsilons = rng.standard_normals(n_samples * 2).reshape(n_samples, 2)
    thetas = params.m + epsilons @ posterior.cholesky_factor(params).T
    values = distributions.loglik_at(model, data.values, thetas) - kl
    se = float(np.std(values, ddof=1) / math.sqrt(n_samples))
    return float(np.mean(values)), se
