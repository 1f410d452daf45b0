"""Multivariate-normal approximate posterior with Cholesky parameterization.

The posterior q(theta) = MVN(m, C) is optimized through the factor C = S S^T
with S lower triangular: diagonal entries exp(v_i) (always positive), strict
lower entries u_ij.  Samples are the deterministic transform
theta = m + S eps of standard-normal noise, so gradients reach (m, v, u)
while the noise stays outside the differentiated path.  The fitted models
have two parameters; the posterior and prior records accept only that case,
and the algebra is written for it: :func:`factor` gives the three entries
of S and :func:`kl_and_grad` the KL to an MVN prior with its gradient, both
in plain Python floats, which is what the fit loop's per-step algebra runs
on; :func:`kl_value` reads the same formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class PosteriorParams:
    """Hyper-parameters of the approximate posterior.

    m: posterior means, length 2.
    v: log of the Cholesky diagonal, length 2.
    u: the one strict lower-triangle entry S10, length 1; ignored (treated
       as zero) when correlation_enabled is False.
    """

    m: np.ndarray
    v: np.ndarray
    u: np.ndarray | None = None
    correlation_enabled: bool = True

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if m.shape != (2,) or v.shape != (2,):
            raise ValueError(f"m and v must have length 2, got {m.shape} and {v.shape}")
        u = np.zeros(1) if self.u is None else np.asarray(self.u, dtype=float)
        if u.shape != (1,):
            raise ValueError(f"u must have length 1, got {u.shape}")
        for name, arr in (("m", m), ("v", v), ("u", u)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)

    @classmethod
    def initial(cls, prior: "PriorSpec", correlation_enabled: bool = True) -> "PosteriorParams":
        """Neutral starting point: prior mean, unit scales, no correlation."""
        return cls(m=prior.m0.copy(), v=np.zeros(2), correlation_enabled=correlation_enabled)


@dataclass(frozen=True)
class PriorSpec:
    """MVN prior over the two inference parameters."""

    m0: np.ndarray
    C0: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m0 = np.asarray(self.m0, dtype=float)
        C0 = np.asarray(self.C0, dtype=float)
        if m0.shape != (2,) or C0.shape != (2, 2):
            raise ValueError(
                f"prior mean and covariance must be 2 and 2x2, got {m0.shape} and {C0.shape}"
            )
        if not np.all(np.isfinite(m0)):
            raise ValueError("prior mean entries must be finite")
        if not np.allclose(C0, C0.T, atol=1e-12):
            raise ValueError("prior covariance must be symmetric")
        if np.any(np.linalg.eigvalsh(C0) <= 0.0):
            raise ValueError("prior covariance must be positive definite")
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "C0", C0)

    @cached_property
    def C0_inv(self) -> np.ndarray:
        return np.linalg.inv(self.C0)

    @cached_property
    def log_det_C0(self) -> float:
        return float(np.linalg.slogdet(self.C0)[1])

    @cached_property
    def _kl_constants(self) -> tuple:
        """C0^-1 rows, m0 and log|C0| - 2 as plain floats, for `kl_and_grad`."""
        return (*self.C0_inv.tolist(), self.m0.tolist(), self.log_det_C0 - 2)

    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Prior log density at `points`, shape (..., P)."""
        return mvn_log_pdf(points, self.m0, self.C0)

    @classmethod
    def diagonal(cls, means: Sequence[float], variances: Sequence[float]) -> "PriorSpec":
        return cls(m0=np.asarray(means, dtype=float), C0=np.diag(variances))


def mvn_log_pdf(points, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """MVN(mean, cov) log density at `points`, shape (..., P)."""
    diff = np.asarray(points, dtype=float) - mean
    quad = np.einsum("...i,ij,...j->...", diff, np.linalg.inv(cov), diff)
    log_det = float(np.linalg.slogdet(cov)[1])
    return -0.5 * (quad + log_det + len(mean) * math.log(2.0 * math.pi))


def factor(v0: float, v1: float, u: float) -> tuple[float, float, float]:
    """Entries (S00, S10, S11) of the lower-triangular 2x2 factor S.

    The diagonal is exp(v) and S10 = u (pass 0.0 without correlation).
    Raises OverflowError when an exp(v_i) does not fit a float.
    """
    # math.exp, not np.exp: the two can differ in the last bit, and the fit's
    # artifacts are pinned to math.exp
    return math.exp(v0), u, math.exp(v1)


def _raw(params: PosteriorParams) -> tuple[float, float, float, float, float]:
    """(m0, m1, v0, v1, u) of the posterior as plain floats."""
    (m0, m1), (v0, v1) = params.m.tolist(), params.v.tolist()
    return m0, m1, v0, v1, float(params.u[0]) if params.correlation_enabled else 0.0


def cholesky_factor(params: PosteriorParams) -> np.ndarray:
    """Lower-triangular S of the posterior covariance C = S S^T."""
    s00, s10, s11 = factor(*_raw(params)[2:])
    return np.array([[s00, 0.0], [s10, s11]])


def covariance(params: PosteriorParams) -> np.ndarray:
    s = cholesky_factor(params)
    return s @ s.T


def kl_and_grad(
    m0: float, m1: float, v0: float, v1: float, s: tuple[float, float, float],
    prior: PriorSpec,
) -> tuple[float, float, float, float, float, float]:
    """Closed-form KL(q || prior) and its gradient, in plain floats.

    KL = 1/2 [ Trace(C0^-1 C) - log|C| + log|C0| - P + (m - m0)^T C0^-1 (m - m0) ]
    with C = S S^T, `s` = (S00, S10, S11) = factor(v0, v1, u) as the caller
    already has it, and log|C| = 2 (v0 + v1).  With A = C0^-1 S, returns the
    KL and its partials dKL/dm = C0^-1 (m - m0), dKL/dv_i = A_ii exp(v_i) - 1
    and dKL/du = A_10.  Python float arithmetic
    does not raise on overflow: an overflowing KL comes back as inf or nan.
    """
    (i00, i01), (i10, i11), (p0, p1), const = prior._kl_constants
    s00, s10, s11 = s
    d0, d1 = m0 - p0, m1 - p1
    g0, g1 = i00 * d0 + i01 * d1, i10 * d0 + i11 * d1
    a00, a10, a11 = i00 * s00 + i01 * s10, i10 * s00 + i11 * s10, i11 * s11
    # Trace(C0^-1 S S^T) is the sum of the elementwise product A * S
    kl = 0.5 * (
        (a00 * s00 + a10 * s10 + a11 * s11) - 2.0 * (v0 + v1) + const + (d0 * g0 + d1 * g1)
    )
    return kl, g0, g1, a00 * s00 - 1.0, a11 * s11 - 1.0, a10


def kl_value(params: PosteriorParams, prior: PriorSpec) -> float:
    """Closed-form KL(q || prior) as a plain number."""
    m0, m1, v0, v1, u = _raw(params)
    return kl_and_grad(m0, m1, v0, v1, factor(v0, v1, u), prior)[0]


class PosteriorSummary:
    """Extracted plain-number posterior: mean, covariance, correlation."""

    def __init__(self, params: PosteriorParams) -> None:
        self.mean = params.m.copy()
        self.cov = covariance(params)
        self.rho = float(self.cov[0, 1] / math.sqrt(self.cov[0, 0] * self.cov[1, 1]))
        self.correlation_enabled = params.correlation_enabled

    def __iter__(self):
        return iter((self.mean, self.cov, self.rho))

    def to_json_dict(self) -> dict:
        return {
            "m": self.mean.tolist(),
            "C": self.cov.tolist(),
            "rho": self.rho,
            "correlation_enabled": self.correlation_enabled,
        }


def extract_posterior(params: PosteriorParams) -> PosteriorSummary:
    """Plain-number (mean, covariance, correlation) view of the posterior."""
    return PosteriorSummary(params)
