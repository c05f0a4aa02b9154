"""Stationary unit-variance covariance functions and Gram assembly.

Supported families: squared exponential and half-integer Matern
(nu in {1/2, 3/2, 5/2}).  All kernels satisfy k(x, x) = 1 and
0 < k(x, x') <= 1, and depend on the inputs only through ||x - x'||.
``kernel_at`` computes every kernel value.
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
        """Raise ValueError, its message starting with the refused field's name."""
        if self.family not in (SQUARED_EXPONENTIAL, MATERN):
            raise ValueError(f"family must be one of {(SQUARED_EXPONENTIAL, MATERN)}, got {self.family!r}")
        if not (isinstance(self.lengthscale, (int, float)) and math.isfinite(self.lengthscale) and self.lengthscale > 0):
            raise ValueError(f"lengthscale must be a positive finite number, got {self.lengthscale!r}")
        if self.family == MATERN:
            if self.nu not in MATERN_NUS:
                raise ValueError(f"nu must be one of {MATERN_NUS} for the Matern family, got {self.nu!r}")
        elif self.nu is not None:
            raise ValueError(f"nu is only meaningful for the Matern family, got {self.nu!r}")


def _as_points(name: str, X) -> np.ndarray:
    a = np.asarray(X, dtype=float)
    if a.ndim != 2 or a.shape[1] == 0:
        raise ValueError(f"{name} must be a 2-d array of points of at least one coordinate, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _k_of_sq_dist(spec: KernelSpec, sq: np.ndarray) -> np.ndarray:
    """The kernel at squared distances ``sq``: the closed forms of Rasmussen &
    Williams (2006, sec. 4.2) in rho = sqrt(sq)/lengthscale.  Each keeps the
    operation order gpei's output bytes were fixed with (re-associating a
    term moves last bits), the same for every shape, so batch and per-pair
    values agree bitwise."""
    rho = np.sqrt(sq) / spec.lengthscale
    if spec.family == SQUARED_EXPONENTIAL:
        return np.exp(rho * (rho * -0.5))
    if spec.nu == 0.5:
        return np.exp(-rho)
    if spec.nu == 1.5:
        s = rho * math.sqrt(3.0)
        return (s + 1.0) * np.exp(-s)
    s = rho * math.sqrt(5.0)
    return (rho * (5.0 / 3.0) * rho + (s + 1.0)) * np.exp(-s)


def kernel_at(spec: KernelSpec, parts) -> np.ndarray:
    """The kernel at the per-axis coordinate differences ``parts``, arrays
    that broadcast together: their squares added in axis order to +0.0, then
    the kernel of that squared distance, an array of the broadcast shape.
    Every kernel value in gpei is computed here, so values that share their
    per-axis differences agree bit for bit."""
    sq = np.zeros(np.broadcast_shapes(*(np.shape(p) for p in parts)))
    for p in parts:
        sq += p * p
    return _k_of_sq_dist(spec, sq)


def gram(spec: KernelSpec, X) -> np.ndarray:
    """t-by-t covariance matrix of a point set, ``cross_matrix(spec, X, X)``:
    exactly symmetric, since each squared distance is summed from the same
    squared differences in either order, and PSD with unit diagonal."""
    pts = _as_points("X", X)
    if pts.shape[0] < 1:
        raise ValueError("X must contain at least one point")
    return cross_matrix(spec, pts, pts)


def cross_matrix(spec: KernelSpec, X, Q) -> np.ndarray:
    """Covariances between rows of X (t points) and rows of Q (n points), shape (t, n)."""
    pts = _as_points("X", X)
    qs = _as_points("Q", Q)
    if pts.shape[1] != qs.shape[1]:
        raise ValueError(f"dimension mismatch: {pts.shape[1]} vs {qs.shape[1]}")
    return kernel_at(spec, [np.subtract.outer(pts[:, k], qs[:, k]) for k in range(pts.shape[1])])
