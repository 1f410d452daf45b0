"""Likelihood models: Gaussian and Folded Normal measurements.

Inference runs in theta space: theta1 is the measurement mean mu and
theta2 is the log variance, so the precision is beta = exp(-theta2).
Mini-batch evaluations keep the full-count normalizer N/2 * log(beta/2pi)
and rescale only the per-point data terms, by W/M: a batch of M points
stands for W = B M of the data when it is one of an epoch's B batches, so
each point counts once an epoch, a short remainder batch included.

Elementwise numpy (log-)densities serve the figures and the tests.  The
likelihood proper reads a :class:`Batch`: its model, the values with the
sums that model needs, W and N, set for each batch by :func:`make_batches`.
The Gaussian likelihood is exact in the count, mean and centred sum of
squares, so at L theta points it costs O(L) whatever the batch size.
:func:`loglik_terms` gives the rescaled batch value with closed-form
partials (the fit step) or value only, at one theta point given as floats
(the one-sample fit step, which gets floats back: past the Folded Normal's
per-point terms and their sums it is float arithmetic) or at L points given
as arrays (the Folded Normal's a chunk of rows at a time), through the same
expressions; :func:`loglik_at` sums the full-data value at many points
(final free energy, grid oracle).
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .rng import Rng, check_count

LOG_TWO_PI = math.log(2.0 * math.pi)

# Likelihood terms (data point x theta row) per chunk of a folded call at many
# rows, with or without partials; bounds its working memory (one 512 KB buffer
# per call, so one per worker in loglik_at) whatever the N and the rows.
CHUNK_TERMS = 65_536


class DomainError(ValueError):
    """Data outside the model's support (non-positive Folded Normal data)."""


class ModelKind(enum.Enum):
    """Supported measurement likelihoods."""

    GAUSSIAN = "gaussian"
    FOLDED_NORMAL = "folded-normal"


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


def _check_mean_and_variance(mu: float, variance: float) -> None:
    if not math.isfinite(mu):
        raise ValueError(f"mean mu must be finite, got {mu}")
    if not (math.isfinite(variance) and variance > 0.0):
        raise ValueError(f"variance must be finite and positive, got {variance}")


def pdf(kind: ModelKind, y, mu: float, variance: float):
    """Density value(s) at `y` of the model with mean `mu` (finite) and
    `variance` (finite and positive); zero outside the support."""
    _check_mean_and_variance(mu, variance)
    out = np.exp(log_pdf(kind, y, mu, 1.0 / variance))
    return float(out) if np.isscalar(y) else out


# -- samplers --------------------------------------------------------------


def sample_data(kind: ModelKind, mu: float, variance: float, n: int, seed: int) -> Dataset:
    """n i.i.d. draws from the model with mean `mu` (finite) and `variance`
    (finite and positive), deterministic given the seed.

    Gaussian draws are mu + sqrt(variance) times standard normals; Folded
    Normal draws are their absolute values.  `n` and `seed` are checked by
    `Rng`, with `rng.check_count`.
    """
    _check_mean_and_variance(mu, variance)
    values = mu + math.sqrt(variance) * Rng(seed).standard_normals(n)
    if kind is ModelKind.FOLDED_NORMAL:
        values = np.abs(values)
    return Dataset(values)


# -- batch log-likelihood with closed-form partials --------------------------


class Batch(NamedTuple):
    """A batch for one model: its values with the sums the model's likelihood
    reads (others None), and the counts that scale them."""

    kind: ModelKind
    y: np.ndarray
    count: int  # W, the points the data terms stand for
    n_total: int  # N, the points of the whole data
    sum_y: float
    yy: float | None  # y . y (Folded Normal)
    mean_lo: float | None  # rounding rest of sum_y / M: ybar = sum_y / M + mean_lo
    ss_c: float | None  # sum_m (y_m - ybar)^2 (Gaussian)


def make_batches(kind: ModelKind, values: np.ndarray, batch_size: int) -> list[Batch]:
    """The N `values` cut in order into B contiguous batches of `batch_size`
    (in [1, N]; a shorter remainder batch last), each summarized for `kind`
    as standing for B M_b of the N points: the data terms of an epoch's
    batches count every point once, and `make_batches(kind, values, N)` is
    the whole data as N of N points.  Their support is not checked."""
    n = len(values)
    size = check_count(batch_size, "batch_size", 1, n)
    cut = [values[i : i + size] for i in range(0, n, size)]
    return [_summarize(kind, y, len(cut) * len(y), n) for y in cut]


def _summarize(kind: ModelKind, y, count: int, n_total: int) -> Batch:
    """The :class:`Batch` of the nonempty values `y` for `kind`, standing for
    `count` of the `n_total` data points."""
    y = np.asarray(y, dtype=float)
    sum_y = float(np.add.reduce(y))
    if kind is ModelKind.FOLDED_NORMAL:
        return Batch(kind, y, count, n_total, sum_y, float(y @ y), None, None)
    dev = y - sum_y / len(y)
    mean_lo = float(np.add.reduce(dev)) / len(y)
    dev -= mean_lo
    return Batch(kind, y, count, n_total, sum_y, None, mean_lo, float(dev @ dev))


def check_support(kind: ModelKind, y: np.ndarray) -> None:
    """Raise DomainError unless every value of `y` lies in the support of `kind`."""
    if kind is ModelKind.FOLDED_NORMAL and not np.all(y > 0.0):
        raise DomainError("folded normal data must be strictly positive")


def loglik_terms(batch: Batch, mu, theta2, partials: bool = True):
    """Rescaled batch log-likelihood at theta points, optionally with partials.

    `mu` and `theta2` are the (mu, log variance) coordinates: two floats for
    one point, or two (L,) arrays for L points.  Returns the values (Python
    floats for float coordinates, else (L,) arrays) of

        N/2 log(beta/2pi) + (W/M) sum_m t(y_m; mu, beta)

    under `batch.kind`, over the M points of `batch`, which stand for
    W = `batch.count` of the N = `batch.n_total` data points, and, when
    `partials` is true, their partials in mu and theta2 (else None).
    Gaussian: t = -beta (y - mu)^2 / 2, summed exactly as
    -beta/2 [SS_c + M (ybar - mu)^2], centred so it does not cancel when the
    data sit far from zero.  Folded Normal: t = -beta (y^2 + mu^2) / 2 + |z|
    + log1p(e^{-2|z|}), z = beta mu y, which cannot overflow; for y > 0 the
    |z| terms sum to beta |mu| sum_m y_m, and d/dz is tanh(z).  The value is
    the same bits with or without partials, and a point gives the same bits
    as floats as it does as a row of arrays: at a point only the Folded
    Normal's per-point terms are an array, its two sums are made floats at
    once and the rest is float arithmetic.  Folded rows run CHUNK_TERMS terms
    (at least a row) at a time; a chunk boundary can move a partial's last bit,
    not a value.  The data are unchecked (`engine.fit` and
    `grid_oracle.grid_posterior` check them).
    Overflow in a numpy operation follows the numpy error state; in a point's
    float arithmetic it shows as an inf or nan.
    """
    kind, y, count, n_total, sum_y, yy, mean_lo, ss_c = batch
    m = len(y)
    # one point as floats runs on float arithmetic from here on; np.exp, not
    # math.exp, which can differ in the last bit from an array row's np.exp
    point = not isinstance(theta2, np.ndarray)
    beta = float(np.exp(-theta2)) if point else np.exp(-theta2)
    if kind is ModelKind.GAUSSIAN:
        # (W/M)(beta/2) [SS_c + M (ybar - mu)^2], as beta [(W/2M) SS_c + (W/2) (ybar - mu)^2]
        half_n, half_w = 0.5 * n_total, 0.5 * count
        dev = (sum_y / m - mu) + mean_lo  # ybar - mu
        penalty = beta * ((half_w / m) * ss_c + half_w * dev * dev)
        value = -half_n * (theta2 + LOG_TWO_PI) - penalty
        if not partials:
            return value, None, None
        # d/dmu = (W/M) beta M (ybar - mu); the penalty is linear in beta
        return value, (count * beta) * dev, penalty - half_n
    if kind is not ModelKind.FOLDED_NORMAL:
        raise ValueError(f"unknown model kind {kind!r}")
    # y > 0: sum_m |z_m| = a sum_m y_m, a = beta |mu|; per point only log1p(e^{-2|z|})
    a = beta * abs(mu)
    if point:  # -2|z|, exactly; sum_m y_m tanh|z_m| >= 0 and the soft sum made floats
        buf = y * (-2.0 * a)
        tanh_y = float(np.tanh(-0.5 * buf).dot(y)) if partials else None
        soft = float(np.add.reduce(np.log1p(np.exp(buf, out=buf), out=buf)))
    else:  # rows, a chunk at a time (see above); each row sums on its own
        n, rows = len(a), CHUNK_TERMS // m or 1
        soft, tanh_y = np.empty(n), np.empty(n) if partials else None
        buf = _scratch(rows * m).reshape(rows, m) if rows < n else np.empty((n, m))
        for i in range(0, n, rows):  # buf[: n - i]: the chunk's rows, a short last one too
            part = np.multiply.outer(-2.0 * a[i : i + rows], y, out=buf[: n - i])
            if partials:
                np.matmul(np.tanh(-0.5 * part), y, out=tanh_y[i : i + rows])
            np.exp(part, out=part)
            np.add.reduce(np.log1p(part, out=part), axis=-1, out=soft[i : i + rows])
        buf = part = None  # the row tail below does not hold the buffer
    scale, m_mu = count / m, m * mu
    half_sumsq = beta * (0.5 * yy + 0.5 * m_mu * mu)
    data = a * sum_y + soft - half_sumsq
    value = -0.5 * n_total * (theta2 + LOG_TWO_PI) + scale * data
    if not partials:
        return value, None, None
    # partials of the data sum; beta = exp(-theta2) gives d/dtheta2 = -beta d/dbeta
    copysign = math.copysign if point else np.copysign  # tanh z = sign(mu) tanh|z|
    d_mu = scale * (beta * (copysign(tanh_y, mu) - m_mu))
    d_theta2 = -0.5 * n_total + scale * (half_sumsq - a * tanh_y)
    return value, d_mu, d_theta2


def _scratch(size: int) -> np.ndarray:
    """An uninitialized float64 array of `size` that starts on a 64-byte boundary."""
    raw = np.empty(size + 7)  # numpy aligns to at least 8 bytes: a start is 7 steps away at most
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip : skip + size]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def loglik_at(batch: Batch, thetas) -> np.ndarray:
    """Log-likelihood of `batch` at every (mu, log variance) row of `thetas`.

    The final free energy and the grid pass the whole data, the one batch of
    `make_batches(kind, values, N)`, checked by the caller.  One value-only
    :func:`loglik_terms` call per run of rows; never an (L, N) array.  The
    Gaussian's cost does not depend on N, so it makes one call.  The Folded
    Normal's rows split into chunks of at most CHUNK_TERMS terms (at least
    one row) and the chunks into min(usable CPUs, chunks // 2) contiguous
    runs (one run: a single call), evaluated at once, the first by the
    calling thread, all under its numpy error state.  A call sums its rows a
    chunk at a time in one buffer, so the values are the bits of a single
    call, and an error in any run is raised here once every run has ended.
    """
    rows = max(1, CHUNK_TERMS // len(batch.y))  # rows per folded chunk
    chunks = 1 if batch.kind is ModelKind.GAUSSIAN else -(-len(thetas) // rows)
    workers = min(_usable_cpus(), chunks // 2)
    err = np.geterr()  # a new thread does not inherit the caller's numpy error state

    def evaluate(a, b):  # *thetas[a:b].T: the run's mu and theta2 columns
        with np.errstate(**err):
            return loglik_terms(batch, *thetas[a:b].T, False)[0]

    if workers < 2:
        return evaluate(0, len(thetas))
    from concurrent.futures import ThreadPoolExecutor  # only a spread call pays the import

    cut = [rows * (chunks * k // workers) for k in range(workers + 1)]
    with ThreadPoolExecutor(workers - 1) as pool:  # leaving it joins every thread
        futures = [pool.submit(evaluate, a, b) for a, b in zip(cut[1:], cut[2:])]
        values = [evaluate(0, cut[1])] + [f.result() for f in futures]
    return np.concatenate(values)
