"""GP expected-improvement optimization with a convergence-bound verification harness."""

from .bounds import (
    BoundConstants,
    bound_value,
    compare_coefficients,
    constants_thm42,
    constants_thm46,
)
from .config import ExperimentConfig, load_config
from .eiopt import Trace
from .gp import GridPrior, info_gain, variance_sum_check
from .kernels import KernelSpec
from .stdnormal import BarTauParams, bar_tau, cdf, ei_ab, find_rho_bar, pdf, tau, theta, tilde_tau

__version__ = "0.1.0"

__all__ = [
    "BarTauParams",
    "BoundConstants",
    "ExperimentConfig",
    "GridPrior",
    "KernelSpec",
    "Trace",
    "bar_tau",
    "bound_value",
    "cdf",
    "compare_coefficients",
    "constants_thm42",
    "constants_thm46",
    "ei_ab",
    "find_rho_bar",
    "info_gain",
    "load_config",
    "pdf",
    "tau",
    "theta",
    "tilde_tau",
    "variance_sum_check",
]
