"""Free-energy objective assembly and the stochastic training loop.

Each optimizer step draws L noise vectors, maps them through the Cholesky
transform theta = m + S eps, and evaluates the stochastic free energy
F = (1/L) sum_l loglik(theta_l) - KL together with its exact gradient in
closed form: the batch log-likelihood partials are pulled back through the
transform (the reparameterization estimator) and the analytic KL gradient
is subtracted.  Maximization runs as Adam descent on the negated objective.
Everything downstream of the seed is deterministic.

`estimate_free_energy` builds the same objective on an autodiff tape; it is
the reference the closed-form gradient is tested against and is not used by
`fit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from . import distributions, posterior
from .autodiff import DomainError
from .distributions import Dataset, ModelKind
from .optimizer import AdamState, adam_step
from .posterior import PosteriorParams, PriorSpec
from .rng import Rng

if TYPE_CHECKING:
    from .autodiff import NodeId, Tape
    from .posterior import PosteriorNodes

# Terms (data point x sample) per chunk of the final free-energy re-estimate;
# bounds its working memory whatever the data size.
FINAL_FE_CHUNK_TERMS = 16_384


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
        if self.learning_rate < 0.0:
            raise ValueError("learning rate must be nonnegative")

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


@dataclass(frozen=True)
class TraceRecord:
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
            "trace": [
                {
                    "epoch": r.epoch,
                    "step": r.step,
                    "F": r.free_energy,
                    "kl": r.kl,
                    "mc_loglik": r.mc_loglik,
                }
                for r in self.trace
            ],
            "final_free_energy": {
                "mean": self.final_free_energy[0],
                "se": self.final_free_energy[1],
            },
            "config": self.config.to_json_dict(),
            "steps": self.steps,
        }


class FreeEnergyParts(NamedTuple):
    """Tape nodes of the objective and its two components."""

    free_energy: NodeId
    mc_loglik: NodeId
    kl: NodeId


def estimate_free_energy(
    tape: Tape,
    model: ModelKind,
    data_batch,
    n_total: int,
    nodes: PosteriorNodes,
    prior: PriorSpec,
    epsilons: Sequence[np.ndarray],
) -> FreeEnergyParts:
    """Stochastic free-energy estimate F = (1/L) sum_l loglik(theta*_l) - KL.

    The noise vectors come in from the caller so tests can freeze them; each
    theta*_l = m + S eps_l flows through the model log-likelihood with
    mini-batch rescaling, while the KL term is analytic and shared.
    """
    if not epsilons:
        raise ValueError("need at least one noise vector")
    lls = []
    for eps in epsilons:
        theta = posterior.reparam_sample(tape, nodes, eps)
        lls.append(
            distributions.loglik_node(model, tape, (theta[0], theta[1]), data_batch, n_total)
        )
    mc = tape.mul(tape.constant(1.0 / len(lls)), tape.sum_many(lls))
    kl = posterior.kl_to_prior(tape, nodes, prior)
    return FreeEnergyParts(tape.sub(mc, kl), mc, kl)


class Objective(NamedTuple):
    """Free energy, its two parts, and dF/dzeta packed like zeta."""

    free_energy: float
    mc_loglik: float
    kl: float
    grad: np.ndarray


def free_energy_and_grad(
    model: ModelKind,
    data_batch,
    n_total: int,
    zeta: np.ndarray,
    epsilons: np.ndarray,
    prior: PriorSpec,
    correlation_enabled: bool,
) -> Objective:
    """Stochastic free energy and its exact gradient, in closed form.

    `zeta` packs (m, v[, u]) in the order the fit loop optimizes them and
    `epsilons` is the (L, P) noise matrix, so the samples are
    theta = m + eps S^T.  The batch log-likelihood partials g (L, P) reach
    m as their mean over samples and the entries of S as (1/L) g^T eps;
    through S_ii = exp(v_i) the v_i partial picks up eps_i exp(v_i).  The
    KL gradient comes from `posterior.kl_and_grad`.  Raises OverflowError
    or, under a raising numpy error state, FloatingPointError.
    """
    p = prior.dim
    m, v = zeta[:p], zeta[p : 2 * p]
    s = posterior.factor(v, zeta[2 * p :] if correlation_enabled else None)
    theta = m + epsilons @ s.T
    ll, g = distributions.loglik_and_grad(model, data_batch, theta, n_total)
    kl, dkl_dm, dkl_dv, dkl_ds = posterior.kl_and_grad(m, v, s, prior)
    n_samples = len(ll)
    dmc_ds = g.T @ epsilons / n_samples
    parts = [
        g.sum(axis=0) / n_samples - dkl_dm,
        dmc_ds.diagonal() * s.diagonal() - dkl_dv,
    ]
    if correlation_enabled:
        parts.append(posterior.lower_entries(dmc_ds - dkl_ds))
    mc = float(ll.sum() / n_samples)
    return Objective(mc - kl, mc, kl, np.concatenate(parts))


def make_batches(data: Dataset, batch_size: int) -> list[np.ndarray]:
    """Contiguous disjoint batches covering the data in order.

    A shorter remainder batch is allowed; its own length enters the N/M
    rescaling so the expected scaled log-likelihood stays unbiased.
    """
    n = len(data)
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in [1, {n}], got {batch_size}")
    return [data.values[i : i + batch_size] for i in range(0, n, batch_size)]


def _pack(params: PosteriorParams) -> np.ndarray:
    parts = [params.m, params.v]
    if params.correlation_enabled:
        parts.append(params.u)
    return np.concatenate(parts)


def _unpack(zeta: np.ndarray, template: PosteriorParams) -> PosteriorParams:
    p = template.dim
    u = zeta[2 * p :] if template.correlation_enabled else template.u
    return PosteriorParams(
        m=zeta[:p],
        v=zeta[p : 2 * p],
        u=u,
        correlation_enabled=template.correlation_enabled,
    )


def fit(
    model: ModelKind, data: Dataset, prior: PriorSpec, config: TrainConfig
) -> FitResult:
    """Optimize the approximate posterior by stochastic free-energy ascent.

    Full-data mode takes one step per epoch on all points; mini-batch mode
    takes one step per batch, passing through the data once per epoch.  The
    returned final free energy re-estimates the objective on the full data
    with `final_fe_samples` fresh draws, since single-sample step values are
    noisy.
    """
    if model is ModelKind.FOLDED_NORMAL and np.any(data.values <= 0.0):
        raise DomainError("folded normal data must be strictly positive")
    p = prior.dim
    if p != 2:
        raise ValueError("supported models infer exactly two parameters")

    params = config.init if config.init is not None else PosteriorParams.initial(
        prior, config.correlation_enabled
    )
    if params.correlation_enabled != config.correlation_enabled:
        raise ValueError("init and config disagree on correlation_enabled")
    if params.dim != p:
        raise ValueError("init dimension does not match the prior")

    rng = Rng(config.seed)
    state = AdamState(learning_rate=config.learning_rate)
    zeta = _pack(params)
    n_total = len(data)
    batch_size = n_total if config.batch_size is None else config.batch_size
    n_draws = config.mc_samples * p

    trace: list[TraceRecord] = []
    global_step = 0
    # an overflow or invalid operation anywhere in a step or in the final
    # estimate makes its numbers meaningless: report it as a divergence
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for epoch in range(config.epochs):
            values = rng.shuffle(data.values) if config.shuffle else data.values
            batches = make_batches(Dataset(values), batch_size)
            for step, batch in enumerate(batches):
                epsilons = rng.standard_normals(n_draws).reshape(config.mc_samples, p)
                try:
                    obj = free_energy_and_grad(
                        model, batch, n_total, zeta, epsilons, prior,
                        config.correlation_enabled,
                    )
                    # plain-float F = mc - KL can overflow without a numpy fault
                    if not (math.isfinite(obj.free_energy) and np.all(np.isfinite(obj.grad))):
                        raise DivergenceError("non-finite objective or gradient", global_step, zeta)
                    state, updated = adam_step(state, zeta, -obj.grad)
                except (FloatingPointError, OverflowError) as err:
                    raise DivergenceError(f"objective failed: {err}", global_step, zeta) from err
                if not np.all(np.isfinite(updated)):
                    raise DivergenceError("non-finite parameter update", global_step, zeta)
                trace.append(TraceRecord(epoch, step, obj.free_energy, obj.kl, obj.mc_loglik))
                zeta = updated
                global_step += 1

        params = _unpack(zeta, params)
        try:
            final_fe = _final_free_energy(
                model, data, params, prior, config.final_fe_samples, rng
            )
        except (FloatingPointError, OverflowError) as err:
            raise DivergenceError(f"final free energy failed: {err}", global_step, zeta) from err
    return FitResult(
        posterior=posterior.extract_posterior(params),
        params=params,
        trace=tuple(trace),
        final_free_energy=final_fe,
        config=config,
        steps=global_step,
    )


def _final_free_energy(
    model: ModelKind,
    data: Dataset,
    params: PosteriorParams,
    prior: PriorSpec,
    n_samples: int,
    rng: Rng,
) -> tuple[float, float]:
    """Multi-sample estimate of F on the full data: (mean, standard error).

    The samples are evaluated in chunks of at most FINAL_FE_CHUNK_TERMS
    likelihood terms (at least one sample per chunk).
    """
    kl = posterior.kl_value(params, prior)
    epsilons = rng.standard_normals(n_samples * params.dim).reshape(n_samples, params.dim)
    thetas = params.m + epsilons @ posterior.cholesky_factor(params).T
    n = len(data)
    rows = max(1, FINAL_FE_CHUNK_TERMS // n)
    loglik = np.concatenate([
        distributions.loglik_and_grad(model, data.values, thetas[i : i + rows], n)[0]
        for i in range(0, n_samples, rows)
    ])
    values = loglik - kl
    se = float(np.std(values, ddof=1) / math.sqrt(n_samples))
    return float(np.mean(values)), se
