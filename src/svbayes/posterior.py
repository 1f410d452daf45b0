"""Multivariate-normal approximate posterior with Cholesky parameterization.

The posterior q(theta) = MVN(m, C) is optimized through the factor C = S S^T
with S lower triangular: diagonal entries exp(v_i) (always positive), strict
lower entries u_ij.  Samples are the deterministic transform
theta = m + S eps of standard-normal noise, so gradients reach (m, v, u)
while the noise stays outside the differentiated path.  The KL divergence to
an MVN prior and its gradient are available in closed form
(:func:`kl_and_grad`).  The tape side (`lift`, `reparam_sample`,
`kl_to_prior`) builds the same quantities as autodiff nodes; it is the
reference the closed-form gradients are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .autodiff import NodeId, Tape


def _tril_indices(p: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(p) for j in range(i)]


@dataclass(frozen=True)
class PosteriorParams:
    """Hyper-parameters of the approximate posterior.

    m: posterior means, length P.
    v: log of the Cholesky diagonal, length P.
    u: strict lower-triangle entries in row-major order, length P(P-1)/2;
       ignored (treated as zero) when correlation_enabled is False.
    """

    m: np.ndarray
    v: np.ndarray
    u: np.ndarray | None = None
    correlation_enabled: bool = True

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if m.ndim != 1 or v.shape != m.shape:
            raise ValueError("m and v must be 1-D vectors of equal length")
        p = m.size
        n_lower = p * (p - 1) // 2
        u = self.u
        u = np.zeros(n_lower) if u is None else np.asarray(u, dtype=float)
        if u.shape != (n_lower,):
            raise ValueError(f"u must have length {n_lower}, got {u.shape}")
        for name, arr in (("m", m), ("v", v), ("u", u)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return int(self.m.size)

    @classmethod
    def initial(cls, prior: "PriorSpec", correlation_enabled: bool = True) -> "PosteriorParams":
        """Neutral starting point: prior mean, unit scales, no correlation."""
        p = prior.dim
        return cls(
            m=prior.m0.copy(),
            v=np.zeros(p),
            u=np.zeros(p * (p - 1) // 2),
            correlation_enabled=correlation_enabled,
        )


@dataclass(frozen=True)
class PriorSpec:
    """MVN prior over the inference parameters."""

    m0: np.ndarray
    C0: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m0 = np.asarray(self.m0, dtype=float)
        C0 = np.asarray(self.C0, dtype=float)
        p = m0.size
        if m0.ndim != 1 or C0.shape != (p, p):
            raise ValueError("prior mean and covariance shapes do not match")
        if not np.allclose(C0, C0.T, atol=1e-12):
            raise ValueError("prior covariance must be symmetric")
        if np.any(np.linalg.eigvalsh(C0) <= 0.0):
            raise ValueError("prior covariance must be positive definite")
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "C0", C0)

    @property
    def dim(self) -> int:
        return int(self.m0.size)

    @cached_property
    def C0_inv(self) -> np.ndarray:
        return np.linalg.inv(self.C0)

    @cached_property
    def log_det_C0(self) -> float:
        return float(np.linalg.slogdet(self.C0)[1])

    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        """MVN log density at `points`, shape (..., P)."""
        diff = np.asarray(points, dtype=float) - self.m0
        quad = np.einsum("...i,ij,...j->...", diff, self.C0_inv, diff)
        return -0.5 * (quad + self.log_det_C0 + self.dim * math.log(2.0 * math.pi))

    @classmethod
    def diagonal(cls, means: Sequence[float], variances: Sequence[float]) -> "PriorSpec":
        return cls(m0=np.asarray(means, dtype=float), C0=np.diag(variances))


# -- plain-number side -------------------------------------------------------


def factor(v: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
    """Lower-triangular S with diagonal exp(v) and strict lower part u.

    `u` lists the strict lower triangle in row-major order; None leaves it
    zero.  Raises OverflowError when an exp(v_i) does not fit a float.
    """
    # math.exp so the entries match the tape's scalar arithmetic bit for bit
    s = np.diag([math.exp(x) for x in v])
    if u is not None:
        for k, (i, j) in enumerate(_tril_indices(len(v))):
            s[i, j] = u[k]
    return s


def cholesky_factor(params: PosteriorParams) -> np.ndarray:
    """Lower-triangular S of the posterior covariance C = S S^T."""
    return factor(params.v, params.u if params.correlation_enabled else None)


def sample_theta(params: PosteriorParams, epsilon: np.ndarray) -> np.ndarray:
    """Plain-number m + S eps; matches the tape transform bit for bit."""
    epsilon = np.asarray(epsilon, dtype=float)
    if epsilon.shape != (params.dim,):
        raise ValueError(f"epsilon must have shape ({params.dim},)")
    s = cholesky_factor(params)
    # accumulate row sums left to right, mirroring the tape's sum order
    out = np.empty(params.dim)
    for i in range(params.dim):
        acc = 0.0
        for j in range(i + 1):
            acc += s[i, j] * epsilon[j]
        out[i] = params.m[i] + acc
    return out


def covariance(params: PosteriorParams) -> np.ndarray:
    s = cholesky_factor(params)
    return s @ s.T


def kl_and_grad(
    m: np.ndarray, v: np.ndarray, s: np.ndarray, prior: PriorSpec
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form KL(q || prior) and its gradient at raw (m, v, S = factor(v, u)).

    KL = 1/2 [ Trace(C0^-1 C) - log|C| + log|C0| - P + (m - m0)^T C0^-1 (m - m0) ]
    with C = S S^T and log|C| = 2 sum_i v_i.  Returns the KL and its
    partials dKL/dm = C0^-1 (m - m0), dKL/dv_i = (C0^-1 S)_ii exp(v_i) - 1,
    and dKL/dS = C0^-1 S in every entry of S, of which the strict lower
    triangle (u) is read.
    """
    p = m.size
    if prior.dim != p:
        raise ValueError(f"prior dimension {prior.dim} != posterior dimension {p}")
    inv0 = prior.C0_inv
    diff = m - prior.m0
    inv0_diff = inv0 @ diff
    inv0_s = inv0 @ s
    # Trace(C0^-1 S S^T) is the sum of the elementwise product C0^-1 S * S
    kl = 0.5 * (
        (inv0_s * s).sum() - 2.0 * v.sum() + (prior.log_det_C0 - p) + diff @ inv0_diff
    )
    d_v = inv0_s.diagonal() * s.diagonal() - 1.0
    return float(kl), inv0_diff, d_v, inv0_s


def lower_entries(a: np.ndarray) -> np.ndarray:
    """Strict lower triangle of a square matrix, in the row-major order of u."""
    return np.array([a[i, j] for i, j in _tril_indices(a.shape[0])])


def kl_value(params: PosteriorParams, prior: PriorSpec) -> float:
    """Closed-form KL(q || prior) as a plain number."""
    return kl_and_grad(params.m, params.v, cholesky_factor(params), prior)[0]


class PosteriorSummary:
    """Extracted plain-number posterior: mean, covariance, correlation."""

    def __init__(self, params: PosteriorParams) -> None:
        self.mean = params.m.copy()
        self.cov = covariance(params)
        if params.dim >= 2:
            self.rho = float(
                self.cov[0, 1] / math.sqrt(self.cov[0, 0] * self.cov[1, 1])
            )
        else:
            self.rho = 0.0
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


# -- tape side ----------------------------------------------------------------


@dataclass(frozen=True)
class PosteriorNodes:
    """Tape handles for the posterior hyper-parameters.

    `free_leaves` lists the variables in optimization order: all of m, then
    v, then u when correlation is enabled.  With correlation disabled the u
    entries are constants pinned at zero, so the same graph serves both
    variants.
    """

    m: tuple[NodeId, ...]
    v: tuple[NodeId, ...]
    u: tuple[NodeId, ...]
    correlation_enabled: bool

    @property
    def dim(self) -> int:
        return len(self.m)

    def free_leaves(self) -> tuple[NodeId, ...]:
        if self.correlation_enabled:
            return self.m + self.v + self.u
        return self.m + self.v


def lift(tape: Tape, params: PosteriorParams) -> PosteriorNodes:
    """Register the hyper-parameters on a tape."""
    m = tuple(tape.variable(x) for x in params.m)
    v = tuple(tape.variable(x) for x in params.v)
    if params.correlation_enabled:
        u = tuple(tape.variable(x) for x in params.u)
    else:
        u = tuple(tape.constant(0.0) for _ in params.u)
    return PosteriorNodes(m, v, u, params.correlation_enabled)


def build_cholesky(tape: Tape, nodes: PosteriorNodes) -> list[list[NodeId]]:
    """Lower-triangular factor as tape nodes; S[i][j] valid for j <= i."""
    p = nodes.dim
    s: list[list[NodeId]] = [[0] * (i + 1) for i in range(p)]
    for i in range(p):
        s[i][i] = tape.exp(nodes.v[i])
    for k, (i, j) in enumerate(_tril_indices(p)):
        s[i][j] = nodes.u[k]
    return s


def reparam_sample(
    tape: Tape, nodes: PosteriorNodes, epsilon: np.ndarray
) -> list[NodeId]:
    """Tape nodes for theta = m + S eps with eps entering as constants."""
    epsilon = np.asarray(epsilon, dtype=float)
    if epsilon.shape != (nodes.dim,):
        raise ValueError(f"epsilon must have shape ({nodes.dim},)")
    s = build_cholesky(tape, nodes)
    theta = []
    for i in range(nodes.dim):
        contrib = tape.sum_many(
            [tape.mul(s[i][j], tape.constant(epsilon[j])) for j in range(i + 1)]
        )
        theta.append(tape.add(nodes.m[i], contrib))
    return theta


def kl_to_prior(tape: Tape, nodes: PosteriorNodes, prior: PriorSpec) -> NodeId:
    """Closed-form KL(q || prior) as a tape node.

    KL = 1/2 [ Trace(C0^-1 C) - log|C| + log|C0| - P + (m - m0)^T C0^-1 (m - m0) ]
    with C = S S^T and log|C| = 2 sum_i v_i, exact for a Cholesky factor.
    """
    p = nodes.dim
    if prior.dim != p:
        raise ValueError(f"prior dimension {prior.dim} != posterior dimension {p}")
    inv0 = prior.C0_inv
    s = build_cholesky(tape, nodes)

    # C entries as tape nodes; C[i][j] = sum_k S[i][k] S[j][k], k <= min(i, j)
    terms = []
    for i in range(p):
        for j in range(p):
            lo, hi = min(i, j), max(i, j)
            prods = [tape.mul(s[hi][k], s[lo][k]) for k in range(lo + 1)]
            c_ij = tape.sum_many(prods)
            terms.append(tape.mul(tape.constant(inv0[j, i]), c_ij))
    trace_term = tape.sum_many(terms)

    log_det_c = tape.mul(tape.constant(2.0), tape.sum_many(list(nodes.v)))

    quad_terms = []
    for i in range(p):
        for j in range(p):
            di = tape.sub(nodes.m[i], tape.constant(prior.m0[i]))
            dj = tape.sub(nodes.m[j], tape.constant(prior.m0[j]))
            quad_terms.append(
                tape.mul(tape.constant(inv0[i, j]), tape.mul(di, dj))
            )
    quad = tape.sum_many(quad_terms)

    inner = tape.add(
        tape.sub(trace_term, log_det_c),
        tape.add(quad, tape.constant(prior.log_det_C0 - p)),
    )
    return tape.mul(tape.constant(0.5), inner)
