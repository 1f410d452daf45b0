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
on; :func:`kl_value` reads the same formula.  A prior keeps C0^-1 and
log|C0| only as the cached floats `kl_and_grad` reads.  One
:class:`PosteriorParams` record holds the five fitted numbers: it packs
them into the float list Adam ascends and back, and a fit returns it with
the mean, covariance, correlation and JSON views read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

DEFAULT_PRIOR_MEAN = 0.0
DEFAULT_PRIOR_VAR = 100.0


@dataclass(frozen=True)
class PosteriorParams:
    """Hyper-parameters of the approximate posterior: the one record of a fit.

    m: posterior means, length 2.
    v: log of the Cholesky diagonal, length 2.
    u: the one strict lower-triangle entry S10, length 1; ignored (treated
       as zero) when correlation_enabled is False.
    The arrays are read-only copies of the inputs.
    """

    m: np.ndarray
    v: np.ndarray
    u: np.ndarray | None = None
    correlation_enabled: bool = True

    def __post_init__(self) -> None:
        u = np.zeros(1) if self.u is None else self.u
        arrays = {n: np.array(x, dtype=float) for n, x in (("m", self.m), ("v", self.v), ("u", u))}
        shapes = [arr.shape for arr in arrays.values()]
        if shapes != [(2,), (2,), (1,)]:
            raise ValueError(f"m, v and u must have lengths 2, 2 and 1, got shapes {shapes}")
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def initial(cls, prior: "PriorSpec", correlation_enabled: bool = True) -> "PosteriorParams":
        """Neutral starting point: prior mean, unit scales, no correlation."""
        return cls(m=prior.m0, v=np.zeros(2), correlation_enabled=correlation_enabled)

    @classmethod
    def from_zeta(cls, zeta: Sequence[float], correlation_enabled: bool) -> "PosteriorParams":
        """The record of a packed list (see `zeta`)."""
        u = zeta[4:] if correlation_enabled else None
        return cls(m=zeta[:2], v=zeta[2:4], u=u, correlation_enabled=correlation_enabled)

    @property
    def zeta(self) -> list[float]:
        """(m0, m1, v0, v1[, u]) as floats, u only with correlation: Adam's list."""
        u = self.u.tolist() if self.correlation_enabled else []
        return self.m.tolist() + self.v.tolist() + u

    @property
    def s(self) -> tuple[float, float, float]:
        """Entries (S00, S10, S11) of the factor S; u counts as 0 without correlation."""
        (v0, v1), (u,) = self.v.tolist(), self.u.tolist()
        return factor(v0, v1, u if self.correlation_enabled else 0.0)

    @property
    def mean(self) -> np.ndarray:
        return self.m

    @property
    def cov(self) -> np.ndarray:
        """C = S S^T, from the float entries of S."""
        s = cholesky_factor(self)
        return s @ s.T

    @property
    def rho(self) -> float:
        return correlation(self.cov)

    def to_json_dict(self) -> dict:
        """The fit JSON's `posterior` block: mean, covariance, correlation."""
        return {
            "m": self.m.tolist(),
            "C": self.cov.tolist(),
            "rho": self.rho,
            "correlation_enabled": self.correlation_enabled,
        }


@dataclass(frozen=True)
class PriorSpec:
    """MVN prior over the two inference parameters, and the one judge of its
    validity: a length-2 finite mean and a 2x2 finite, symmetric, positive
    definite covariance whose inverse is finite too (the KL reads C0^-1)."""

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
        if not np.all(np.isfinite(C0)):
            raise ValueError("prior covariance entries must be finite")
        if not np.allclose(C0, C0.T, atol=1e-12):
            raise ValueError("prior covariance must be symmetric")
        if np.any(np.linalg.eigvalsh(C0) <= 0.0):
            raise ValueError("prior covariance must be positive definite")
        if not np.all(np.isfinite(np.linalg.inv(C0))):
            raise ValueError("prior covariance must have a finite inverse")
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "C0", C0)

    @cached_property
    def _kl_constants(self) -> tuple:
        """C0^-1 rows, m0 and log|C0| - 2 as plain floats, for `kl_and_grad`."""
        log_det = float(np.linalg.slogdet(self.C0)[1])
        return (*np.linalg.inv(self.C0).tolist(), self.m0.tolist(), log_det - 2)

    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Prior log density at `points`, shape (..., P)."""
        return mvn_log_pdf(points, self.m0, self.C0)

    @classmethod
    def diagonal(cls, means, variances) -> "PriorSpec":
        """Independent prior from one shared or two per-dimension values each."""
        m0, var = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (means, variances))
        for name, x in (("mean", m0), ("variance", var)):
            if x.shape not in ((1,), (2,)):
                raise ValueError(
                    f"prior {name} takes one shared or two per-dimension values, got {x.tolist()}"
                )
        return cls(m0=np.resize(m0, 2), C0=np.diag(np.resize(var, 2)))


def mvn_log_pdf(points, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """MVN(mean, cov) log density at `points`, shape (..., P)."""
    diff = np.asarray(points, dtype=float) - mean
    quad = np.einsum("...i,ij,...j->...", diff, np.linalg.inv(cov), diff)
    log_det = float(np.linalg.slogdet(cov)[1])
    return -0.5 * (quad + log_det + len(mean) * math.log(2.0 * math.pi))


def correlation(cov: np.ndarray) -> float:
    """rho = C01 / (sqrt(C00) sqrt(C11)) of a 2x2 covariance array (no variance product)."""
    return float(cov[0, 1] / (math.sqrt(cov[0, 0]) * math.sqrt(cov[1, 1])))


def factor(v0: float, v1: float, u: float) -> tuple[float, float, float]:
    """Entries (S00, S10, S11) of the lower-triangular 2x2 factor S.

    The diagonal is exp(v) and S10 = u (pass 0.0 without correlation).
    Raises OverflowError when an exp(v_i) does not fit a float.
    """
    # math.exp, not np.exp: the two can differ in the last bit, and the fit's
    # artifacts are pinned to math.exp
    return math.exp(v0), u, math.exp(v1)


def cholesky_factor(params: PosteriorParams) -> np.ndarray:
    """Lower-triangular S of the posterior covariance C = S S^T."""
    s00, s10, s11 = params.s
    return np.array([[s00, 0.0], [s10, s11]])


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
    return kl_and_grad(*params.m.tolist(), *params.v.tolist(), params.s, prior)[0]
