"""GP expected-improvement optimization with a convergence-bound verification harness."""

from .bounds import (
    BoundConstants,
    CoefficientComparison,
    bound_value,
    compare_coefficients,
    constants_thm42,
    constants_thm46,
    empirical_bound_check,
    rate_envelope,
    rkhs_bounds,
)
from .config import ExperimentConfig, load_config
from .eiopt import Trace, TraceRow, argmax_ei, ei, improvement, run
from .gp import GpState, GridPrior, PriorSample, fit, info_gain, posterior, sample_prior, update, variance_sum_check
from .kernels import KernelSpec
from .stdnormal import BarTauParams, bar_tau, cdf, ei_ab, find_rho_bar, pdf, tau, theta, tilde_tau

__version__ = "0.1.0"

__all__ = [
    "BarTauParams",
    "BoundConstants",
    "CoefficientComparison",
    "ExperimentConfig",
    "GpState",
    "GridPrior",
    "KernelSpec",
    "PriorSample",
    "Trace",
    "TraceRow",
    "argmax_ei",
    "bar_tau",
    "bound_value",
    "cdf",
    "compare_coefficients",
    "constants_thm42",
    "constants_thm46",
    "ei",
    "ei_ab",
    "empirical_bound_check",
    "find_rho_bar",
    "fit",
    "improvement",
    "info_gain",
    "load_config",
    "pdf",
    "posterior",
    "rate_envelope",
    "rkhs_bounds",
    "run",
    "sample_prior",
    "tau",
    "theta",
    "tilde_tau",
    "update",
    "variance_sum_check",
]
