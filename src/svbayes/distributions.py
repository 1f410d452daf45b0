"""Likelihood models: Gaussian and Folded Normal measurements.

Inference runs in theta space: theta1 is the measurement mean mu and
theta2 is the log variance, so the precision is beta = exp(-theta2).
Mini-batch evaluations keep the full-count normalizer N/2 * log(beta/2pi)
and rescale only the per-point data terms by N/M.

Elementwise numpy (log-)densities serve the figures and the tests.  The
likelihood proper reads a :class:`Batch`, the values with the sums its model
needs, taken once per batch by :func:`summarize`.  The Gaussian likelihood
is exact in the count, mean and centred sum of squares, so at L theta
points it costs O(L) whatever the batch size.  :func:`loglik_terms` gives the
rescaled batch value with closed-form partials (the fit step) or value
only, at one theta point given as floats (the one-sample fit step, which
gets floats back) or at L points given as arrays, through the same
expressions; :func:`loglik_at` sums the full-data value at many theta
points (the final free energy, the grid oracle).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .rng import Rng

LOG_TWO_PI = math.log(2.0 * math.pi)

# Likelihood terms (data point x theta row) per loglik_terms call in
# loglik_at; bounds its working memory (one 512 KB buffer) whatever the N.
CHUNK_TERMS = 65_536


class DomainError(ValueError):
    """Data outside the model's support (non-positive Folded Normal data)."""


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


class Batch(NamedTuple):
    """Batch values with the sums its model's likelihood reads (others None)."""

    y: np.ndarray
    sum_y: float
    yy: float | None  # y . y (Folded Normal)
    mean_lo: float | None  # rounding rest of sum_y / M: ybar = sum_y / M + mean_lo
    ss_c: float | None  # sum_m (y_m - ybar)^2 (Gaussian)


def summarize(kind: ModelKind, y) -> Batch:
    """The :class:`Batch` of the nonempty values `y` for `kind`, unchecked."""
    y = np.asarray(y, dtype=float)
    sum_y = float(np.add.reduce(y))
    if kind is ModelKind.FOLDED_NORMAL:
        return Batch(y, sum_y, float(y @ y), None, None)
    dev = y - sum_y / len(y)
    mean_lo = float(np.add.reduce(dev)) / len(y)
    dev -= mean_lo
    return Batch(y, sum_y, None, mean_lo, float(dev @ dev))


def _checked_data(kind: ModelKind, y) -> Batch:
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("batch must be nonempty")
    if kind is ModelKind.FOLDED_NORMAL and not np.all(y > 0.0):
        raise DomainError("folded normal support is y > 0")
    return summarize(kind, y)


def loglik_terms(
    kind: ModelKind, batch: Batch, mu, theta2, n_total: int, partials: bool = True,
):
    """Rescaled batch log-likelihood at theta points, optionally with partials.

    `mu` and `theta2` are the (mu, log variance) coordinates: two floats for
    one point, or two (L,) arrays for L points.  Returns the values (Python
    floats for float coordinates, else (L,) arrays) of

        N/2 log(beta/2pi) + (N/M) sum_m t(y_m; mu, beta),    N = n_total,

    over the M points of `batch` (:func:`summarize` for the same `kind`) and,
    when `partials` is true, their partials in mu and theta2 (else None).
    Gaussian: t = -beta (y - mu)^2 / 2, summed exactly as
    -beta/2 [SS_c + M (ybar - mu)^2], centred so it does not cancel when the
    data sit far from zero.  Folded Normal: t = -beta (y^2 + mu^2) / 2 + |z|
    + log1p(e^{-2|z|}), z = beta mu y, which cannot overflow; for y > 0 the
    |z| terms sum to beta |mu| sum_m y_m, and d/dz is tanh(z).  The value is
    the same bits with or without partials, and a point gives the same bits
    as floats as it does as a row of arrays.  The data are unchecked (see
    `loglik_at`, `engine.fit`).  Overflow in a numpy operation follows the
    numpy error state; in the float arithmetic of a point it shows as an
    inf or nan in the result.
    """
    m = len(batch.y)
    # one point as floats runs on float arithmetic from here on; np.exp, not
    # math.exp, which can differ in the last bit from an array row's np.exp
    point = not isinstance(theta2, np.ndarray)
    beta = float(np.exp(-theta2)) if point else np.exp(-theta2)
    if kind is ModelKind.GAUSSIAN:
        # (N/M)(beta/2) [SS_c + M (ybar - mu)^2], as beta [(N/2M) SS_c + (N/2) (ybar - mu)^2]
        half_n = 0.5 * n_total
        dev = (batch.sum_y / m - mu) + batch.mean_lo  # ybar - mu
        penalty = beta * ((half_n / m) * batch.ss_c + half_n * dev * dev)
        value = -half_n * (theta2 + LOG_TWO_PI) - penalty
        if not partials:
            return value, None, None
        # d/dmu = (N/M) beta M (ybar - mu); the penalty is linear in beta
        return value, (n_total * beta) * dev, penalty - half_n
    if kind is not ModelKind.FOLDED_NORMAL:
        raise ValueError(f"unknown model kind {kind!r}")
    # y > 0: sum_m |z_m| = a sum_m y_m, a = beta |mu|; per point only log1p(e^{-2|z|})
    y = batch.y
    a = beta * abs(mu)
    m_mu = m * mu
    half_sumsq = beta * (0.5 * batch.yy + 0.5 * m_mu * mu)
    buf = np.multiply.outer(-2.0 * a, y)  # -2|z|, exactly
    if partials:
        tanh_y = np.tanh(-0.5 * buf) @ y  # sum_m y_m tanh|z_m| >= 0
    np.exp(buf, out=buf)
    soft = np.add.reduce(np.log1p(buf, out=buf), axis=-1)
    data = a * batch.sum_y + soft - half_sumsq
    scale = n_total / m
    value = 0.5 * n_total * (-theta2 - LOG_TWO_PI) + scale * data
    if not partials:
        return (float(value) if point else value), None, None
    # partials of the data sum; beta = exp(-theta2) gives d/dtheta2 = -beta d/dbeta
    d_mu = scale * (beta * (np.copysign(tanh_y, mu) - m_mu))  # tanh z = sign(mu) tanh|z|
    d_theta2 = -0.5 * n_total + scale * (half_sumsq - a * tanh_y)
    if point:  # the batch sums came back as numpy scalars
        return float(value), float(d_mu), float(d_theta2)
    return value, d_mu, d_theta2


def loglik_at(kind: ModelKind, y, thetas) -> np.ndarray:
    """Full-data log-likelihood at every (mu, log variance) row of `thetas`.

    Checks and summarizes the data once, then makes one value-only
    :func:`loglik_terms` call for the Gaussian (its cost does not depend on
    N), or one per chunk of at most CHUNK_TERMS terms (at least one row) for
    the Folded Normal; never an (L, N) array.
    """
    n = len(y)
    batch = _checked_data(kind, y)
    rows = max(1, len(thetas) if kind is ModelKind.GAUSSIAN else CHUNK_TERMS // n)
    return np.concatenate([
        loglik_terms(kind, batch, thetas[i : i + rows, 0], thetas[i : i + rows, 1], n, False)[0]
        for i in range(0, len(thetas), rows)
    ])
