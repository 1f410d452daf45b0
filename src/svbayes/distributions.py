"""Likelihood models: Gaussian and Folded Normal measurements.

Inference runs in theta space: theta1 is the measurement mean mu and
theta2 is the log variance, so the precision is beta = exp(-theta2).
Mini-batch evaluations keep the full-count normalizer N/2 * log(beta/2pi)
and rescale only the per-point data terms by N/M.

Three surfaces share that parameterization.  Elementwise numpy
(log-)densities serve the figure's true-density panel and the tests.
:func:`loglik_terms` evaluates the rescaled batch log-likelihood at many
theta points, with its closed-form partials or value only; the fit loop
runs on it directly, after checking the data once.
:func:`loglik_at` sums the full-data log-likelihood at many theta points
through the value-only path, in chunks of at most CHUNK_TERMS terms; the
final free-energy re-estimate and the grid oracle run on it.  The
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

# Likelihood terms (data point x theta row) per loglik_terms call in
# loglik_at; bounds its working memory (one 512 KB buffer) whatever the N.
CHUNK_TERMS = 65_536


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


def _checked_data(kind: ModelKind, y, n_total: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    _check_batch(y, n_total, None)
    if kind is ModelKind.FOLDED_NORMAL and not np.all(y > 0.0):
        raise DomainError("folded normal support is y > 0")
    return y


def loglik_terms(
    kind: ModelKind, y: np.ndarray, mu: np.ndarray, theta2: np.ndarray, n_total: int,
    partials: bool = True,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Rescaled batch log-likelihood at L theta points, optionally with partials.

    `y` holds the M batch points and `mu`, `theta2` the L (mu, log variance)
    coordinates.  Returns the values of

        N/2 log(beta/2pi) + (N/M) sum_m t(y_m; mu, beta),    N = n_total,

    shape (L,), and, when `partials` is true, their partials with respect to
    mu and theta2 (else None), so the normalizer enters once, at full count,
    whatever M is.  The Gaussian term is t = -beta (y - mu)^2 / 2.  The
    Folded Normal term is t = -beta (y^2 + mu^2) / 2 + log(2 cosh z) with
    z = beta mu y, written as |z| + log1p(e^{-2|z|}) so it cannot overflow;
    for y > 0 the |z| terms sum to beta |mu| sum_m y_m, and its derivative
    in z is tanh(z).  The value is one expression, the same bits with or
    without partials.

    The data are not checked here: :func:`loglik_at` checks them per call,
    `engine.fit` once per fit.
    Overflow and invalid operations follow the caller's numpy error state.
    """
    m = len(y)
    beta = np.exp(-theta2)
    d_mu = d_theta2 = None
    # partials of the data sum; beta = exp(-theta2) gives d/dtheta2 = -beta d/dbeta
    if kind is ModelKind.GAUSSIAN:
        r = y - mu[:, None]
        data = -0.5 * beta * np.einsum("lm,lm->l", r, r)
        if partials:
            d_mu = beta * r.sum(axis=1)
            d_theta2 = -data  # linear in beta
    elif kind is ModelKind.FOLDED_NORMAL:
        # y > 0: sum_m |z_m| = a sum_m y_m, a = beta |mu|; per point only log1p(e^{-2|z|})
        a = beta * np.abs(mu)
        m_mu = m * mu
        half_sumsq = beta * (0.5 * float(y @ y) + 0.5 * m_mu * mu)
        buf = (-2.0 * a)[:, None] * y  # -2|z|, exactly
        if partials:
            tanh_y = np.tanh(-0.5 * buf) @ y  # sum_m y_m tanh|z_m| >= 0
        np.exp(buf, out=buf)
        soft = np.add.reduce(np.log1p(buf, out=buf), axis=1)
        data = a * float(np.add.reduce(y)) + soft - half_sumsq
        if partials:
            d_mu = beta * (np.copysign(tanh_y, mu) - m_mu)  # tanh z = sign(mu) tanh|z|
            d_theta2 = half_sumsq - a * tanh_y
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    scale = n_total / m
    value = 0.5 * n_total * (-theta2 - LOG_TWO_PI) + scale * data
    if partials:
        d_mu = scale * d_mu
        d_theta2 = -0.5 * n_total + scale * d_theta2
    return value, d_mu, d_theta2


def loglik_at(kind: ModelKind, y, thetas) -> np.ndarray:
    """Full-data log-likelihood at every (mu, log variance) row of `thetas`.

    Checks the data once, then runs the value-only :func:`loglik_terms` on
    chunks of at most CHUNK_TERMS terms (at least one row per chunk), so the
    working memory is the (L,) result plus one chunk, never an (L, N) array.
    """
    n = len(y)
    y = _checked_data(kind, y, n)
    rows = max(1, CHUNK_TERMS // n)
    return np.concatenate([
        loglik_terms(kind, y, thetas[i : i + rows, 0], thetas[i : i + rows, 1], n, False)[0]
        for i in range(0, len(thetas), rows)
    ])


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
