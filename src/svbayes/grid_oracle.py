"""Brute-force 2D posterior evaluation over (mu, log variance).

The unnormalized log posterior is evaluated on a rectangular grid,
stabilized by subtracting its maximum, exponentiated and normalized to unit
mass (rectangle rule).  Moments, MAP location and the correlation
coefficient of the discrete density serve as the reference against which
stochastic fits are judged, from their mean and covariance alone (a
`PosteriorParams`, or a fit JSON's `m` and `C`): this module needs no engine.

The likelihood comes from `distributions.loglik_at`, the evaluator the
fit's final free energy uses, at the flattened (resolution^2, 2) node
matrix, so its working memory is O(grid), plus for the Folded Normal one
reused buffer of at most max(N, `distributions.CHUNK_TERMS`) terms per CPU
it runs on: one likelihood call per CPU, summing a chunk of nodes at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import Dataset, ModelKind, check_support, loglik_at, make_batches
from .posterior import PosteriorParams, PriorSpec, correlation, mvn_log_pdf
from .rng import check_count


class GridUnderflowError(RuntimeError):
    """The grid carries no mass, or resolves a marginal with less than half
    a cell of standard deviation; widen or densify the grid."""


DEFAULT_MU_RANGE = (-1.0, 3.0)
# the folded likelihood is even in mu, so its default grid is the half-plane mu >= 0
FOLDED_MU_RANGE = (0.0, 3.0)
DEFAULT_LOGVAR_RANGE = (float(np.log(0.5)), float(np.log(16.0)))
DEFAULT_RESOLUTION = 201
_WIDEN_HINT = "widen the ranges or increase the resolution"
# a correlation below this in absolute value agrees with either sign
RHO_SIGN_FLOOR = 0.05


def default_mu_range(model: ModelKind) -> tuple[float, float]:
    """The mu range a grid over `model`'s likelihood uses when none is given."""
    return FOLDED_MU_RANGE if model is ModelKind.FOLDED_NORMAL else DEFAULT_MU_RANGE


@dataclass(frozen=True)
class GridSpec:
    """Axis ranges and the node count of each axis (`rng.check_count`, at
    least 2, kept as a plain int); mu_range None: the model's default."""

    mu_range: tuple[float, float] | None = None
    logvar_range: tuple[float, float] = DEFAULT_LOGVAR_RANGE
    resolution: int = DEFAULT_RESOLUTION

    def __post_init__(self) -> None:
        for name, (lo, hi) in (
            ("mu_range", DEFAULT_MU_RANGE if self.mu_range is None else self.mu_range),
            ("logvar_range", self.logvar_range),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"{name} must be finite with lo < hi, got ({lo}, {hi})")
        object.__setattr__(self, "resolution", check_count(self.resolution, "resolution", 2))


@dataclass(frozen=True)
class GridResult:
    """Normalized posterior mass on the grid plus its summary statistics."""

    mass: np.ndarray = field(repr=False)  # shape (resolution, resolution)
    mu_axis: np.ndarray = field(repr=False)
    logvar_axis: np.ndarray = field(repr=False)
    means: np.ndarray  # [mean mu, mean logvar]
    variances: np.ndarray
    map_point: np.ndarray
    rho: float

    def summary_dict(self) -> dict:
        return {
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
            "map": self.map_point.tolist(),
            "rho": self.rho,
        }


def normalize_log_density(log_density: np.ndarray) -> np.ndarray:
    """Max-stabilized exponentiation and normalization to unit mass.

    Invariant under adding any constant to all entries.  Individual cells
    may carry -inf (zero mass); a grid whose peak is not finite has no mass
    anywhere and raises.
    """
    peak = np.max(log_density)
    if not np.isfinite(peak):
        raise GridUnderflowError(
            f"the log posterior has no finite peak on the grid; {_WIDEN_HINT}"
        )
    mass = np.exp(log_density - peak)
    return mass / mass.sum()


def grid_nodes(mu_axis: np.ndarray, logvar_axis: np.ndarray) -> np.ndarray:
    """(mu, log variance) at every grid node, shape (n_mu, n_logvar, 2)."""
    return np.stack(np.meshgrid(mu_axis, logvar_axis, indexing="ij"), axis=-1)


def grid_posterior(
    model: ModelKind,
    data: Dataset,
    prior: PriorSpec | None,
    spec: GridSpec,
) -> GridResult:
    """Evaluate and normalize the posterior over the grid.

    With `prior` None the result is the normalized likelihood alone.
    Raises GridUnderflowError when the grid has no finite peak or either
    marginal standard deviation is below half the node spacing of its axis
    (the nodes do not resolve it), and DomainError for data outside the
    model's support.
    """
    n = spec.resolution
    mu_range = default_mu_range(model) if spec.mu_range is None else spec.mu_range
    mu_axis = np.linspace(*mu_range, n)
    logvar_axis = np.linspace(*spec.logvar_range, n)
    nodes = grid_nodes(mu_axis, logvar_axis).reshape(-1, 2)

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        check_support(model, data.values)
        (whole,) = make_batches(model, data.values, len(data))
        log_post = loglik_at(whole, nodes)
        if prior is not None:
            log_post = log_post + mvn_log_pdf(nodes, prior.m0, prior.C0)
        mass = normalize_log_density(log_post.reshape(n, n))

    mu_marginal = mass.sum(axis=1)
    lv_marginal = mass.sum(axis=0)
    mean_mu = float(mu_marginal @ mu_axis)
    mean_lv = float(lv_marginal @ logvar_axis)
    var_mu = float(mu_marginal @ (mu_axis - mean_mu) ** 2)
    var_lv = float(lv_marginal @ (logvar_axis - mean_lv) ** 2)
    half_cells = 0.5 * (mu_axis[1] - mu_axis[0]), 0.5 * (logvar_axis[1] - logvar_axis[0])
    if not (math.sqrt(var_mu) >= half_cells[0] and math.sqrt(var_lv) >= half_cells[1]):
        raise GridUnderflowError(
            "a marginal standard deviation is below half the node spacing "
            f"along its axis; {_WIDEN_HINT}"
        )
    cov = float(
        ((mu_axis - mean_mu)[:, None] * (logvar_axis - mean_lv)[None, :] * mass).sum()
    )

    i_map, j_map = np.unravel_index(np.argmax(mass), mass.shape)
    return GridResult(
        mass=mass,
        mu_axis=mu_axis,
        logvar_axis=logvar_axis,
        means=np.array([mean_mu, mean_lv]),
        variances=np.array([var_mu, var_lv]),
        map_point=np.array([mu_axis[i_map], logvar_axis[j_map]]),
        rho=correlation(np.array([[var_mu, cov], [cov, var_lv]])),
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Moment-level agreement between a grid reference and a fitted posterior."""

    mean_abs_diff: np.ndarray
    variance_ratio: np.ndarray
    rho_grid: float
    rho_fit: float
    rho_abs_diff: float
    correlation_signs_agree: bool

    def to_json_dict(self) -> dict:
        return {
            "mean_abs_diff": self.mean_abs_diff.tolist(),
            "variance_ratio": self.variance_ratio.tolist(),
            "rho_grid": self.rho_grid,
            "rho_fit": self.rho_fit,
            "rho_abs_diff": self.rho_abs_diff,
            "correlation_signs_agree": self.correlation_signs_agree,
        }

    def table(self) -> str:
        lines = [f"{'parameter':<10}{'|mean diff|':>14}{'var ratio':>12}"]
        for name, diff, ratio in zip(("mu", "log_var"), self.mean_abs_diff, self.variance_ratio):
            lines.append(f"{name:<10}{diff:>14.6f}{ratio:>12.4f}")
        lines.append(
            f"rho: grid={self.rho_grid:.4f} fit={self.rho_fit:.4f} "
            f"|diff|={self.rho_abs_diff:.4f} signs_agree={self.correlation_signs_agree}"
        )
        return "\n".join(lines)


def compare_moments(
    grid_means, grid_variances, grid_rho: float, fit_mean, fit_cov
) -> ComparisonReport:
    """Grid moments against a fit's mean and 2x2 covariance (its variances and rho)."""
    fit_cov = np.asarray(fit_cov, dtype=float)
    if fit_cov.shape != (2, 2):
        raise ValueError(f"the fit's C must be 2x2, got shape {fit_cov.shape}")
    moments = [np.asarray(a, dtype=float) for a in (grid_means, fit_mean, grid_variances)]
    grid_means, fit_means, grid_variances, fit_variances = moments = [*moments, np.diag(fit_cov)]
    if len({a.shape for a in moments}) != 1:
        shapes = [a.shape for a in moments]
        raise ValueError(f"parameter count mismatch: grid/fit means, grid/fit variances {shapes}")
    grid_rho = float(grid_rho)
    finite = np.isfinite(moments).all() and np.isfinite(fit_cov).all() and math.isfinite(grid_rho)
    if not (finite and (grid_variances > 0.0).all() and (fit_variances > 0.0).all()):
        raise ValueError("moments must be finite and variances positive")
    fit_rho = correlation(fit_cov)
    # a computed correlation may pass 1 by a few ulps, no more
    if max(abs(grid_rho), abs(fit_rho)) > 1.0 + 1e-12:
        raise ValueError(f"correlations must be in [-1, 1], got grid {grid_rho}, fit {fit_rho}")
    no_sign = abs(grid_rho) < RHO_SIGN_FLOOR or abs(fit_rho) < RHO_SIGN_FLOOR
    return ComparisonReport(
        mean_abs_diff=np.abs(grid_means - fit_means),
        variance_ratio=fit_variances / grid_variances,
        rho_grid=grid_rho,
        rho_fit=fit_rho,
        rho_abs_diff=abs(grid_rho - fit_rho),
        correlation_signs_agree=bool(no_sign or np.sign(grid_rho) == np.sign(fit_rho)),
    )


def compare(grid: GridResult, q: PosteriorParams) -> ComparisonReport:
    """Compare grid moments with a fitted posterior's (`FitResult.posterior`)."""
    return compare_moments(grid.means, grid.variances, grid.rho, q.mean, q.cov)
