"""Standard-normal primitives and the scalar analysis functions built on them.

Everything in this module is a pure function of floats (numpy arrays are
accepted and handled elementwise).  The CDF is routed through the
complementary error function so that deep-tail values such as ``cdf(-8)``
keep full relative accuracy; several bound constants divide by ``cdf(-w)``
with ``w`` around 3, which a ``1 - (value near 1)`` computation would ruin.
The erfc is libm's, through ``math.erfc`` one entry at a time (within 3 ulp
on [-6, 6]), so the module needs numpy and the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: Density at the origin, 1/sqrt(2*pi).  Appears in most bound constants.
PHI0 = _INV_SQRT_2PI

# Bisection settings for the stationary-point solver.  The interval keeps
# halving well past the advertised tolerance so that the defining equation
# of the root is satisfied to ~1e-10 even when the slope is steep.
_BISECT_MAX_ITER = 200
_BISECT_TOL = 1e-15

#: Exploration scales (predictive sds) at or below this count as exactly zero
#: in the EI formula, which then takes its b -> 0 limit max(a, 0).
SIGMA_FLOOR = 1e-12


def _finite(name: str, x):
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return a


def _scalar_or_array(a: np.ndarray):
    return float(a) if a.ndim == 0 else a


def _erfc(x: np.ndarray) -> np.ndarray:
    """libm's erfc (``math.erfc``) of each entry of the float array x, in a new array."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _pdf(z: np.ndarray) -> np.ndarray:
    """phi of the float array z, unvalidated; z*z overflows for |z| ~ 1e154,
    where exp(-inf) = 0 is the right limit: callers silence that warning."""
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def _cdf(z: np.ndarray) -> np.ndarray:
    """Phi of the float array z, unvalidated: the one place erfc is taken."""
    return 0.5 * _erfc(-z / _SQRT2)


def _tau(z: np.ndarray) -> np.ndarray:
    """z*Phi(z) + phi(z) of the float array z, unvalidated, as an array (also
    for a 0-d z); callers silence ``_pdf``'s overflow warning."""
    return np.asarray(z * _cdf(z) + _pdf(z))


def pdf(z):
    """Standard normal density phi(z) = exp(-z^2/2)/sqrt(2*pi)."""
    z = _finite("z", z)
    with np.errstate(over="ignore"):
        return _scalar_or_array(_pdf(z))


def cdf(z):
    """Standard normal CDF Phi(z), computed as erfc(-z/sqrt(2))/2.

    The erfc route keeps relative accuracy in the lower tail (>= 10
    significant digits for z down to -8 and far beyond), which direct
    ``1 - upper_tail`` arithmetic cannot.
    """
    return _scalar_or_array(_cdf(_finite("z", z)))


def tau(z):
    """tau(z) = z*Phi(z) + phi(z).

    Strictly positive and strictly increasing, with derivative Phi(z).
    """
    z = _finite("z", z)
    with np.errstate(over="ignore"):
        return _scalar_or_array(_tau(z))


def ei_unchecked(a, b):
    """``ei_ab`` on float arrays, without validating them: the one EI formula.

    Entries with b <= ``SIGMA_FLOOR``, or whose a/b overflows, take the
    continuous limit max(a, 0); the others are b*tau(a/b).  b must be >= 0.
    A NaN or +inf in a or b yields a NaN or +inf EI, which callers that skip
    ``ei_ab``'s checks must test for.  When every b is above the floor and
    every a/b is finite, b*tau(a/b) is evaluated with no mask.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the unmasked path pays: the loop's median call holds 12 entries (13 us vs 16 us
        # masked); a campaign_default repetition spends 4.5 ms here vs 6.7 ms masked (2-core Xeon, numpy 2.4)
        floored = not (b.size and b.min() > SIGMA_FLOOR)  # also when b holds a NaN
        z = a / (np.where(b > SIGMA_FLOOR, b, 1.0) if floored else b)
        degenerate = None
        if floored or not np.isfinite(z).all():
            # for |a/b| beyond double range, b*tau(a/b) is indistinguishable from max(a, 0)
            degenerate = (b <= SIGMA_FLOOR) | ~np.isfinite(z)
            z = np.where(degenerate, 0.0, z)
        out = _tau(z)
        out *= b
        if degenerate is not None:
            np.copyto(out, np.maximum(a, 0.0), where=degenerate)
    return out


def ei_ab(a, b):
    """Expected improvement as a function of exploitation a and exploration b.

    For b > 0 this is a*Phi(a/b) + b*phi(a/b) = b*tau(a/b); at b = 0 it is
    extended by continuity to max(a, 0), which it also returns for
    b <= ``SIGMA_FLOOR`` (an error of at most b*phi(0) <= 4e-13).  Requires
    finite a and b >= 0.
    """
    a_arr = _finite("a", a)
    b_arr = _finite("b", b)
    if np.any(b_arr < 0):
        raise ValueError("b must be >= 0")
    return _scalar_or_array(ei_unchecked(*np.broadcast_arrays(a_arr, b_arr)))


@dataclass(frozen=True)
class BarTauParams:
    """Parameters of the rescaled-acquisition comparison functions.

    ``z`` is the standardized exploitation value, ``w`` a probability-derived
    width, and ``c3`` the derived constant that exceeds ``w`` by construction.
    The functions below are defined for ratios ``rho`` in the open interval
    (0, w/c3).
    """

    z: float
    w: float
    c3: float

    def __post_init__(self):
        for name in ("z", "w", "c3"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if self.w <= 0:
            raise ValueError(f"w must be > 0, got {self.w}")
        if self.c3 <= self.w:
            raise ValueError(f"c3 must exceed w, got c3={self.c3}, w={self.w}")

    @property
    def rho_max(self) -> float:
        """Right edge of the valid (open) rho interval."""
        return self.w / self.c3


def _check_rho(rho, rho_max: float):
    r = _finite("rho", rho)
    if np.any(r <= 0) or np.any(r >= rho_max):
        raise ValueError(f"rho must lie in (0, {rho_max}), got {rho!r}")
    return r


def bar_tau(rho, p: BarTauParams):
    """(1/rho) * tau((z + c3)*rho - w) on rho in (0, w/c3)."""
    r = _check_rho(rho, p.rho_max)
    return _scalar_or_array(np.asarray(tau((p.z + p.c3) * r - p.w)) / r)


def tilde_tau(rho, z, w: float, c1: float, c3: float):
    """(1/rho) * tau(c1*z*rho + c3*rho - w) on rho in (0, w/c3), z >= 0.

    Strictly increasing in z at fixed rho, with z-derivative
    c1*Phi(c1*z*rho + c3*rho - w).
    """
    if not (w > 0 and c3 > 0):
        raise ValueError("w and c3 must be > 0")
    r = _check_rho(rho, w / c3)
    z_arr = _finite("z", z)
    if np.any(z_arr < 0):
        raise ValueError(f"z must be >= 0, got {z!r}")
    return _scalar_or_array(np.asarray(tau(c1 * z_arr * r + c3 * r - w)) / r)


def theta(rho, p: BarTauParams):
    """-w*Phi(u) + phi(u) with u = (z + c3)*rho - w.

    Carries the sign of the rho-derivative of ``bar_tau`` (negated) and is
    strictly decreasing on (0, w/c3).
    """
    r = _check_rho(rho, p.rho_max)
    u = (p.z + p.c3) * r - p.w
    return _scalar_or_array(-p.w * np.asarray(cdf(u)) + np.asarray(pdf(u)))


def theta_at_rho_max(p: BarTauParams) -> float:
    """Limit of theta as rho approaches w/c3, i.e. -w*Phi((w/c3)*z) + phi((w/c3)*z)."""
    u = p.rho_max * p.z
    return -p.w * cdf(u) + pdf(u)


def find_rho_bar(p: BarTauParams) -> float | None:
    """Unique root of theta on (0, w/c3), or None when theta stays positive.

    theta decreases monotonically from tau(-w) > 0, so a root exists iff the
    boundary limit is negative; in that case the root is the location of the
    global minimum of ``bar_tau``.  Bisection, <= 200 iterations, absolute
    tolerance well below 1e-12.
    """
    if theta_at_rho_max(p) >= 0.0:
        return None
    lo = p.rho_max * 1e-12
    hi = p.rho_max * (1.0 - 1e-12)
    f_lo = theta(lo, p)
    f_hi = theta(hi, p)
    if f_lo <= 0.0 or f_hi >= 0.0:
        # Root indistinguishable from an endpoint at double precision.
        return None
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi or (hi - lo) <= _BISECT_TOL:
            break
        if theta(mid, p) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
