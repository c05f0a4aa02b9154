"""Stationary unit-variance covariance functions and Gram assembly.

Supported families: squared exponential and half-integer Matern
(nu in {1/2, 3/2, 5/2}).  All kernels satisfy k(x, x) = 1 and
0 < k(x, x') <= 1, and depend on the inputs only through ||x - x'||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQUARED_EXPONENTIAL = "se"
MATERN = "matern"
MATERN_NUS = (0.5, 1.5, 2.5)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus lengthscale; ``nu`` only applies to Matern."""

    family: str
    lengthscale: float
    nu: float | None = None

    def __post_init__(self):
        if self.family not in (SQUARED_EXPONENTIAL, MATERN):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (isinstance(self.lengthscale, (int, float)) and math.isfinite(self.lengthscale) and self.lengthscale > 0):
            raise ValueError(f"lengthscale must be a positive finite number, got {self.lengthscale!r}")
        if self.family == MATERN:
            if self.nu not in MATERN_NUS:
                raise ValueError(f"Matern nu must be one of {MATERN_NUS}, got {self.nu!r}")
        elif self.nu is not None:
            raise ValueError("nu is only meaningful for the Matern family")


def _as_points(name: str, X) -> np.ndarray:
    a = np.asarray(X, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array of points, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _as_point(name: str, x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be a 1-d point, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _k_of_dist(spec: KernelSpec, dist: np.ndarray) -> np.ndarray:
    rho = dist / spec.lengthscale
    if spec.family == SQUARED_EXPONENTIAL:
        return np.exp(-0.5 * rho * rho)
    if spec.nu == 0.5:
        return np.exp(-rho)
    if spec.nu == 1.5:
        s = math.sqrt(3.0) * rho
        return (1.0 + s) * np.exp(-s)
    s = math.sqrt(5.0) * rho
    return (1.0 + s + (5.0 / 3.0) * rho * rho) * np.exp(-s)


def eval(spec: KernelSpec, x, x2) -> float:
    """Covariance between two points of equal dimension; in (0, 1]."""
    a = _as_point("x", x)
    b = _as_point("x2", x2)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a - b
    # same reduction as the batch paths, so gram/cross_matrix match eval bitwise
    return float(_k_of_dist(spec, np.sqrt(np.sum(d * d))))


def gram(spec: KernelSpec, X) -> np.ndarray:
    """t-by-t covariance matrix of a point set; symmetric PSD with unit diagonal."""
    pts = _as_points("X", X)
    if pts.shape[0] < 1:
        raise ValueError("X must contain at least one point")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    return _k_of_dist(spec, dist)


def cross_matrix(spec: KernelSpec, X, Q) -> np.ndarray:
    """Covariances between rows of X (t points) and rows of Q (n points), shape (t, n)."""
    pts = _as_points("X", X)
    qs = _as_points("Q", Q)
    if pts.shape[1] != qs.shape[1]:
        raise ValueError(f"dimension mismatch: {pts.shape[1]} vs {qs.shape[1]}")
    diff = pts[:, None, :] - qs[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    return _k_of_dist(spec, dist)
