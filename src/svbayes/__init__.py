"""Stochastic variational Bayes at desk scale.

Fits a multivariate-normal approximate posterior to differentiable
likelihood models by maximizing the free energy (analytic KL to the prior
plus a Monte Carlo likelihood term with reparameterization gradients), and
validates the result against a brute-force 2D grid posterior.
"""

from .autodiff import DomainError, FiniteDiffReport, Gradient, Tape, finite_diff_check
from .distributions import (
    Dataset,
    ModelKind,
    NaturalParams,
    ThetaVector,
    folded_normal_log_pdf,
    gaussian_log_pdf,
    log_pdf,
    loglik_value,
    pdf,
    sample_data,
)
from .engine import (
    DivergenceError,
    FitResult,
    TraceRecord,
    TrainConfig,
    estimate_free_energy,
    fit,
    make_batches,
    write_trace_csv,
)
from .grid_oracle import (
    ComparisonReport,
    GridResult,
    GridSpec,
    GridUnderflowError,
    compare,
    grid_posterior,
)
from .optimizer import AdamState, adam_step
from .posterior import (
    PosteriorParams,
    PosteriorSummary,
    PriorSpec,
    extract_posterior,
    kl_value,
    sample_theta,
)
from .rng import Rng

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ComparisonReport",
    "Dataset",
    "DivergenceError",
    "DomainError",
    "FiniteDiffReport",
    "FitResult",
    "Gradient",
    "GridResult",
    "GridSpec",
    "GridUnderflowError",
    "ModelKind",
    "NaturalParams",
    "PosteriorParams",
    "PosteriorSummary",
    "PriorSpec",
    "Rng",
    "Tape",
    "ThetaVector",
    "TraceRecord",
    "TrainConfig",
    "adam_step",
    "compare",
    "estimate_free_energy",
    "extract_posterior",
    "finite_diff_check",
    "fit",
    "folded_normal_log_pdf",
    "gaussian_log_pdf",
    "grid_posterior",
    "kl_value",
    "log_pdf",
    "loglik_value",
    "make_batches",
    "pdf",
    "sample_data",
    "sample_theta",
    "write_trace_csv",
    "__version__",
]
