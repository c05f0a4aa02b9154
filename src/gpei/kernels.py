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

# Rows of the Gram matrix evaluated at once; bounds ``gram``'s temporaries
# to a few GRAM_BLOCK-by-n buffers (1 MiB each at the 4096-point cap), small
# enough to stay in cache.
GRAM_BLOCK = 32


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
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _as_point(name: str, x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be a 1-d point, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _k_of_sq_dist(spec: KernelSpec, buf: np.ndarray) -> np.ndarray:
    """Overwrite ``buf`` (squared distances) with kernel values and return it.

    Evaluated in place with at most two extra buffers of its shape, in the
    same operation order for every shape, so batch and per-pair values agree
    bitwise.
    """
    np.sqrt(buf, out=buf)
    buf /= spec.lengthscale  # rho
    if spec.family == SQUARED_EXPONENTIAL:
        tmp = np.multiply(buf, -0.5)
        buf *= tmp
        return np.exp(buf, out=buf)
    if spec.nu == 0.5:
        np.negative(buf, out=buf)
        return np.exp(buf, out=buf)
    if spec.nu == 1.5:
        buf *= math.sqrt(3.0)  # s
        tmp = np.negative(buf)
        np.exp(tmp, out=tmp)
        buf += 1.0
        buf *= tmp
        return buf
    # (1 + s + (5/3) rho^2) exp(-s) with s = sqrt(5) rho
    tmp = np.multiply(buf, 5.0 / 3.0)
    tmp *= buf
    buf *= math.sqrt(5.0)  # s
    tmp += np.add(buf, 1.0)  # (1 + s) + (5/3) rho^2
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    buf *= tmp
    return buf


def _sq_dist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances between rows of A and rows of B, accumulated one
    coordinate at a time into one (len(A), len(B)) buffer through one
    difference buffer of the same shape."""
    buf = np.zeros((A.shape[0], B.shape[0]))
    diff = np.empty_like(buf)
    for k in range(A.shape[1]):
        np.subtract.outer(A[:, k], B[:, k], out=diff)
        diff *= diff
        buf += diff
    return buf


def eval(spec: KernelSpec, x, x2) -> float:
    """Covariance between two points of equal dimension; in (0, 1]."""
    a = _as_point("x", x)
    b = _as_point("x2", x2)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    # coordinates summed in order, as in _sq_dist, so gram/cross_matrix match eval bitwise
    sq = np.zeros(1)
    for c in a - b:
        sq += c * c
    return float(_k_of_sq_dist(spec, sq)[0])


def gram(spec: KernelSpec, X) -> np.ndarray:
    """t-by-t covariance matrix of a point set; symmetric PSD with unit diagonal.

    Only the upper triangle is evaluated, ``GRAM_BLOCK`` rows at a time, and
    each block's transpose fills the lower triangle: half the kernel
    evaluations, no full-size temporary besides the result, and an exactly
    symmetric matrix equal bitwise to ``cross_matrix(spec, X, X)``.
    """
    pts = _as_points("X", X)
    n = pts.shape[0]
    if n < 1:
        raise ValueError("X must contain at least one point")
    K = np.empty((n, n))
    for i in range(0, n, GRAM_BLOCK):
        h = min(i + GRAM_BLOCK, n)
        K[i:h, i:] = _k_of_sq_dist(spec, _sq_dist(pts[i:h], pts[i:]))
        K[h:, i:h] = K[i:h, h:].T
    return K


def cross_matrix(spec: KernelSpec, X, Q) -> np.ndarray:
    """Covariances between rows of X (t points) and rows of Q (n points), shape (t, n)."""
    pts = _as_points("X", X)
    qs = _as_points("Q", Q)
    if pts.shape[1] != qs.shape[1]:
        raise ValueError(f"dimension mismatch: {pts.shape[1]} vs {qs.shape[1]}")
    return _k_of_sq_dist(spec, _sq_dist(pts, qs))
