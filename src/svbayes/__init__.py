"""Stochastic variational Bayes at desk scale.

Fits a multivariate-normal approximate posterior to differentiable
likelihood models by maximizing the free energy (analytic KL to the prior
plus a Monte Carlo likelihood term with reparameterization gradients), and
validates the result against a brute-force 2D grid posterior.
"""

from .distributions import (
    Dataset,
    DomainError,
    ModelKind,
    NaturalParams,
    folded_normal_log_pdf,
    gaussian_log_pdf,
    log_pdf,
    pdf,
    sample_data,
)
from .engine import DivergenceError, FitResult, Trace, TrainConfig, fit, make_batches
from .grid_oracle import (
    ComparisonReport,
    GridResult,
    GridSpec,
    GridUnderflowError,
    compare,
    grid_posterior,
)
from .optimizer import Adam
from .posterior import PosteriorParams, PriorSpec, kl_value
from .rng import Rng

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ComparisonReport",
    "Dataset",
    "DivergenceError",
    "DomainError",
    "FitResult",
    "GridResult",
    "GridSpec",
    "GridUnderflowError",
    "ModelKind",
    "NaturalParams",
    "PosteriorParams",
    "PriorSpec",
    "Rng",
    "Trace",
    "TrainConfig",
    "compare",
    "fit",
    "folded_normal_log_pdf",
    "gaussian_log_pdf",
    "grid_posterior",
    "kl_value",
    "log_pdf",
    "make_batches",
    "pdf",
    "sample_data",
    "__version__",
]
