"""Likelihood models: Gaussian and Folded Normal measurements.

Inference runs in theta space: theta1 is the measurement mean mu and
theta2 is the log variance, so the precision is beta = exp(-theta2).
Mini-batch evaluations keep the full-count normalizer N/2 * log(beta/2pi)
and rescale only the per-point data terms by N/M.

Three surfaces share that parameterization.  Elementwise numpy
(log-)densities serve the grid oracle and data generation.
:func:`loglik_and_grad` evaluates the rescaled batch log-likelihood at a
whole matrix of theta points together with its closed-form partials; the
fit loop and the final free-energy re-estimate run on it.  The
tape-expressed builders (:func:`loglik_node`) compute the same quantity as
autodiff nodes and are kept as the reference the tests check it against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import DomainError, NodeId, Tape
from .rng import Rng

LOG_TWO_PI = math.log(2.0 * math.pi)


class ModelKind(enum.Enum):
    """Supported measurement likelihoods."""

    GAUSSIAN = "gaussian"
    FOLDED_NORMAL = "folded-normal"


@dataclass(frozen=True)
class NaturalParams:
    """Mean and precision (1/variance) of the generating distribution."""

    mu: float
    beta: float

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise ValueError(f"precision must be positive, got beta={self.beta}")

    @property
    def variance(self) -> float:
        return 1.0 / self.beta

    @classmethod
    def from_mean_variance(cls, mu: float, variance: float) -> "NaturalParams":
        if not variance > 0.0:
            raise ValueError(f"variance must be positive, got {variance}")
        return cls(mu=mu, beta=1.0 / variance)


@dataclass(frozen=True)
class ThetaVector:
    """Inference-space parameters: (mu, log variance)."""

    theta1: float
    theta2: float

    def to_natural(self) -> NaturalParams:
        return NaturalParams(mu=self.theta1, beta=math.exp(-self.theta2))

    @classmethod
    def from_natural(cls, params: NaturalParams) -> "ThetaVector":
        return cls(theta1=params.mu, theta2=-math.log(params.beta))

    def as_array(self) -> np.ndarray:
        return np.array([self.theta1, self.theta2])


@dataclass(frozen=True)
class Dataset:
    """Ordered real-valued measurements."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("dataset must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)


# -- plain-number densities ----------------------------------------------


def gaussian_log_pdf(y, mu, beta):
    """Elementwise Gaussian log density; broadcasts over array arguments."""
    y, mu, beta = np.asarray(y), np.asarray(mu), np.asarray(beta)
    return 0.5 * np.log(beta) - 0.5 * LOG_TWO_PI - 0.5 * beta * (y - mu) ** 2


def folded_normal_log_pdf(y, mu, beta):
    """Elementwise Folded Normal log density, -inf outside y > 0.

    Evaluated through the exact factorization
        log p = 1/2 log(beta/2pi) - beta(y^2 + mu^2)/2 + |z| + log1p(e^{-2|z|}),
    z = beta*mu*y, which equals the two-reflected-Gaussians sum without the
    underflow that the direct sum hits at large beta.
    """
    y, mu, beta = np.asarray(y), np.asarray(mu), np.asarray(beta)
    az = np.abs(beta * mu * y)
    core = (
        0.5 * np.log(beta)
        - 0.5 * LOG_TWO_PI
        - 0.5 * beta * (y**2 + mu**2)
        + az
        + np.log1p(np.exp(-2.0 * az))
    )
    return np.where(y > 0.0, core, -np.inf)


def log_pdf(kind: ModelKind, y, mu, beta):
    if kind is ModelKind.GAUSSIAN:
        return gaussian_log_pdf(y, mu, beta)
    if kind is ModelKind.FOLDED_NORMAL:
        return folded_normal_log_pdf(y, mu, beta)
    raise ValueError(f"unknown model kind {kind!r}")


def pdf(kind: ModelKind, y, params: NaturalParams):
    """Density value(s) at `y`; zero outside the support."""
    out = np.exp(log_pdf(kind, y, params.mu, params.beta))
    return float(out) if np.isscalar(y) else out


def loglik_value(kind: ModelKind, data: np.ndarray, theta: np.ndarray) -> float:
    """Full-data log-likelihood at a plain theta = (mu, log variance)."""
    beta = math.exp(-float(theta[1]))
    return float(np.sum(log_pdf(kind, np.asarray(data), float(theta[0]), beta)))


# -- samplers --------------------------------------------------------------


def sample_data(kind: ModelKind, params: NaturalParams, n: int, seed: int) -> Dataset:
    """n i.i.d. draws from the model, deterministic given the seed.

    Gaussian draws transform standard normals; Folded Normal draws are the
    absolute value of the corresponding Gaussian draws.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sigma = math.sqrt(params.variance)
    values = params.mu + sigma * Rng(seed).standard_normals(n)
    if kind is ModelKind.FOLDED_NORMAL:
        values = np.abs(values)
    return Dataset(values)


# -- batch log-likelihood with closed-form partials --------------------------


def _check_batch(data, n_total: int, batch_size: int | None) -> int:
    m = len(data)
    if m == 0:
        raise ValueError("batch must be nonempty")
    if batch_size is None:
        batch_size = m
    if batch_size != m:
        raise ValueError(f"batch_size={batch_size} does not match batch length {m}")
    if n_total < batch_size:
        raise ValueError(f"n_total={n_total} smaller than batch_size={batch_size}")
    return batch_size


def loglik_and_grad(
    kind: ModelKind, y, theta, n_total: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled batch log-likelihood at L theta points, with its partials.

    `y` holds the M batch points and `theta` is an (L, 2) matrix of
    (mu, log variance) rows.  Returns the values, shape (L,), and their
    partials with respect to (mu, theta2), shape (L, 2), of

        N/2 log(beta/2pi) + (N/M) sum_m t(y_m; mu, beta),    N = n_total,

    so the normalizer enters once, at full count, whatever M is.  The
    Gaussian term is t = -beta (y - mu)^2 / 2.  The Folded Normal term is
    t = -beta (y^2 + mu^2) / 2 + log(2 cosh z) with z = beta mu y, written
    as |z| + log1p(e^{-2|z|}) so it cannot overflow; its derivative in z is
    tanh(z).  Overflow and invalid operations follow the caller's numpy
    error state.
    """
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != 2:
        raise ValueError(f"theta must have shape (L, 2), got {theta.shape}")
    m = _check_batch(y, n_total, None)
    mu, theta2 = theta[:, 0], theta[:, 1]
    beta = np.exp(-theta2)
    # partials of the data sum; beta = exp(-theta2) gives d/dtheta2 = -beta d/dbeta
    if kind is ModelKind.GAUSSIAN:
        r = y - mu[:, None]
        data = -0.5 * beta * np.einsum("lm,lm->l", r, r)
        d_mu = beta * r.sum(axis=1)
        d_theta2 = -data  # linear in beta
    elif kind is ModelKind.FOLDED_NORMAL:
        if not np.all(y > 0.0):
            raise DomainError("folded normal support is y > 0")
        z = (beta * mu)[:, None] * y
        az = np.abs(z)
        tanh_y = np.tanh(z) @ y
        sumsq = y @ y + m * mu * mu
        data = (az + np.log1p(np.exp(-2.0 * az))).sum(axis=1) - 0.5 * beta * sumsq
        d_mu = beta * (tanh_y - m * mu)
        d_theta2 = beta * (0.5 * sumsq - mu * tanh_y)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    scale = n_total / m
    value = 0.5 * n_total * (-theta2 - LOG_TWO_PI) + scale * data
    grad = np.empty_like(theta)
    grad[:, 0] = scale * d_mu
    grad[:, 1] = -0.5 * n_total + scale * d_theta2
    return value, grad


# -- tape-expressed log-likelihoods ----------------------------------------


def _normalizer(tape: Tape, theta2: NodeId, n_total: int) -> NodeId:
    # N/2 * log(beta / 2pi) with log(beta) written directly as -theta2
    return tape.mul(
        tape.constant(0.5 * n_total),
        tape.sub(tape.neg(theta2), tape.constant(LOG_TWO_PI)),
    )


def gaussian_loglik(
    tape: Tape,
    theta: tuple[NodeId, NodeId],
    data,
    n_total: int,
    batch_size: int | None = None,
) -> NodeId:
    """Tape node for the (mini-batch rescaled) Gaussian log-likelihood.

    Returns N/2 log(beta/2pi) - (N/M)(beta/2) sum_m (y_m - mu)^2 with
    N = n_total and M the batch length; M = N gives the full-data value.
    """
    m = _check_batch(data, n_total, batch_size)
    mu, theta2 = theta
    beta = tape.exp(tape.neg(theta2))
    quad = tape.sum_many(
        [tape.square(tape.sub(tape.constant(float(y)), mu)) for y in data]
    )
    penalty = tape.mul(
        tape.constant(0.5 * n_total / m), tape.mul(beta, quad)
    )
    return tape.sub(_normalizer(tape, theta2, n_total), penalty)


def folded_normal_loglik(
    tape: Tape,
    theta: tuple[NodeId, NodeId],
    data,
    n_total: int,
    batch_size: int | None = None,
) -> NodeId:
    """Tape node for the (mini-batch rescaled) Folded Normal log-likelihood.

    Same shape as the Gaussian case: the shared N/2 log(beta/2pi) normalizer
    stays at full count, the per-point reflected-sum terms are scaled by N/M.
    """
    m = _check_batch(data, n_total, batch_size)
    for y in data:
        if not y > 0.0:
            raise DomainError(f"folded normal support is y > 0, got {y!r}")
    mu, theta2 = theta
    beta = tape.exp(tape.neg(theta2))
    one = tape.constant(1.0)
    minus_two = tape.constant(-2.0)
    terms = []
    for y in data:
        y = float(y)
        sumsq = tape.add(tape.constant(y * y), tape.square(mu))
        quad = tape.mul(tape.constant(-0.5), tape.mul(beta, sumsq))
        z = tape.mul(beta, tape.mul(mu, tape.constant(y)))
        az = z if tape.value(z) >= 0.0 else tape.neg(z)
        soft = tape.log(tape.add(one, tape.exp(tape.mul(minus_two, az))))
        terms.append(tape.add(tape.add(quad, az), soft))
    scaled = tape.mul(tape.constant(n_total / m), tape.sum_many(terms))
    return tape.add(_normalizer(tape, theta2, n_total), scaled)


def loglik_node(
    kind: ModelKind,
    tape: Tape,
    theta: tuple[NodeId, NodeId],
    data,
    n_total: int,
    batch_size: int | None = None,
) -> NodeId:
    """Dispatch to the tape log-likelihood builder for `kind`."""
    if kind is ModelKind.GAUSSIAN:
        return gaussian_loglik(tape, theta, data, n_total, batch_size)
    if kind is ModelKind.FOLDED_NORMAL:
        return folded_normal_loglik(tape, theta, data, n_total, batch_size)
    raise ValueError(f"unknown model kind {kind!r}")
