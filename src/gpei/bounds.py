"""Error-bound constants, bound formulas, rate envelopes, and bound checking.

Two bound families are implemented for the simple-regret measure
r_t = y_t^+ - f*:

* the baseline bound, whose leading constant is c_tau(beta) =
  tau(sqrt(beta))/tau(-sqrt(beta)), with beta = 2*log(6/delta) (noisy) or
  2*log(2/delta) (noiseless);
* the improved bound from the exploration/exploitation analysis, with
  C1 = 1/Phi(-w), C2 = phi(0)/Phi(-w) + sqrt(beta), where
  beta = 2*log(9*c_alpha/delta), w = sqrt(2*log(9/(2*delta))) (noisy) or
  beta = 2*log(3*c_alpha/delta), w = sqrt(beta) (noiseless), and
  c_alpha = (1+2*pi)/(2*pi).

Both flavors, and the RKHS-norm bounds, share one form,
outer * (lead * D + window * sigma_win), whose coefficients each
``BoundConstants`` carries; ``bound_value`` is its only evaluator.  Both
assert existence of an iteration t_k in a trailing window whose
predictive sd enters the bound; the empirical checker evaluates the bound at
the window *maximum*, which upper-bounds every admissible t_k and therefore
soundly tests the stated conclusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eiopt import Trace
from .stdnormal import PHI0, cdf, tau

C_ALPHA = (1.0 + 2.0 * math.pi) / (2.0 * math.pi)


@dataclass(frozen=True)
class BoundConstants:
    """Constants of one bound flavor, derived from the failure probability delta.

    Every flavor is the form outer * (lead * D + window * sigma_win) of
    ``bound_value``, with (outer, lead, window) = (c_tau, 1, sqrt(beta) +
    phi(0)) for the baseline bound and (1, C1, C1*sqrt(beta) + C2) for the
    improved one; its leading constants are C4 = outer*lead and
    C5 = outer*window.  Fields that a flavor does not define are None (the
    baseline bound has no w/C1/C2/C3; c_tau is populated for every flavor
    since it only needs beta).  delta is None for the RKHS bounds, which hold
    for every objective of bounded norm.
    """

    delta: float | None
    flavor: str
    beta: float
    c_tau: float
    window_divisor: int
    t_min: float
    outer: float
    lead: float
    window: float
    w: float | None = None
    c1: float | None = None
    c2: float | None = None
    c3: float | None = None


def _check_delta(delta: float) -> float:
    if not (isinstance(delta, (int, float)) and 0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return float(delta)


def c_tau_of(beta: float) -> float:
    """tau(sqrt(beta))/tau(-sqrt(beta)); > 1 for beta > 0.

    Raises ValueError where the ratio overflows, which it does from
    sqrt(beta) = 37.36 on as tau(-sqrt(beta)) underflows, and for beta = inf.
    """
    if math.isfinite(beta):
        root = math.sqrt(beta)
        lower = tau(-root)
        if lower > 0 and math.isfinite(c_tau := tau(root) / lower):
            return c_tau
    raise ValueError(f"c_tau overflows at beta={beta!r}")


def _constants(delta: float | None, noisy: bool, beta: float, w: float | None = None) -> BoundConstants:
    """The baseline flavor's constants at beta, or the improved flavor's when w is given.

    Raises ValueError when c_tau (naming beta) or C1 = 1/Phi(-w) and C2
    (naming w) overflow, rather than returning an infinite bound.
    """
    c_tau = c_tau_of(beta)
    common = dict(
        delta=delta,
        flavor=("thm42" if w is None else "thm46") + ("-noisy" if noisy else "-noiseless"),
        beta=beta,
        c_tau=c_tau,
        window_divisor=3 if noisy else 2,
        t_min=3.0 * math.log(3.0 / delta) / math.log(2.0) + 3.0 if noisy else 0.0,
    )
    if w is None:
        return BoundConstants(**common, outer=c_tau, lead=1.0, window=math.sqrt(beta) + PHI0)
    if not (cdf(-w) > 0 and math.isfinite(1.0 / cdf(-w) * math.sqrt(beta))):
        raise ValueError(f"C1 = 1/Phi(-w) overflows at w={w!r}")
    c1 = 1.0 / cdf(-w)
    c2 = PHI0 / cdf(-w) + math.sqrt(beta)
    return BoundConstants(
        **common, outer=1.0, lead=c1, window=c1 * math.sqrt(beta) + c2, w=w, c1=c1, c2=c2, c3=c2 - math.sqrt(beta)
    )


def constants_thm42(delta: float, noisy: bool) -> BoundConstants:
    """Baseline-bound constants: beta = 2*log(6/delta) noisy, 2*log(2/delta) noiseless."""
    delta = _check_delta(delta)
    return _constants(delta, noisy, 2.0 * math.log((6.0 if noisy else 2.0) / delta))


def constants_thm46(delta: float, noisy: bool) -> BoundConstants:
    """Improved-bound constants; the noiseless flavor sets w = sqrt(beta)."""
    delta = _check_delta(delta)
    if noisy:
        beta = 2.0 * math.log(9.0 * C_ALPHA / delta)
        return _constants(delta, True, beta, math.sqrt(2.0 * math.log(9.0 / (2.0 * delta))))
    beta = 2.0 * math.log(3.0 * C_ALPHA / delta)
    return _constants(delta, False, beta, math.sqrt(beta))


def c_t_sigma(t: int, delta: float) -> float:
    """Noise-envelope factor 2*log(pi^2 t^2 / (2*delta))."""
    delta = _check_delta(delta)
    if not (isinstance(t, (int, np.integer)) and t >= 1):
        raise ValueError(f"t must be an integer >= 1, got {t!r}")
    return 2.0 * math.log(math.pi**2 * t * t / (2.0 * delta))


def beta_t_seq(t: int, delta: float) -> float:
    """All-t concentration sequence 2*log(pi^2 t^2 / (6*delta))."""
    delta = _check_delta(delta)
    if not (isinstance(t, (int, np.integer)) and t >= 1):
        raise ValueError(f"t must be an integer >= 1, got {t!r}")
    return 2.0 * math.log(math.pi**2 * t * t / (6.0 * delta))


def constants_for(theorem: str, delta: float, noisy: bool) -> BoundConstants:
    if theorem == "thm42":
        return constants_thm42(delta, noisy)
    if theorem == "thm46":
        return constants_thm46(delta, noisy)
    raise ValueError(f"unknown theorem {theorem!r}")


def bound_value(c: BoundConstants, t: int, f_bound: float, noise_sd: float, sigma_win: float) -> float:
    """Bound value at iteration t: outer * (lead * D + window * sigma_win).

    noisy:     D = (M + sqrt(c_t_sigma)*noise_sd)*6/(t-3)
    noiseless: D = M*4/(t-2)  (noise_sd is ignored)
    with M = f_bound.  lead*D is evaluated left to right (lead*M*4/(t-2)):
    another order moves bounds by roundoff, and with them the trace bytes.
    """
    if not (isinstance(t, (int, np.integer)) and t > c.window_divisor):
        raise ValueError(f"t must be an integer > {c.window_divisor}, got {t!r}")
    if not (math.isfinite(f_bound) and f_bound >= 0):
        raise ValueError(f"f_bound must be >= 0, got {f_bound!r}")
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd!r}")
    if not (0.0 <= sigma_win <= 1.0):
        raise ValueError(f"sigma_win must lie in [0, 1], got {sigma_win!r}")
    if c.flavor.endswith("-noisy"):
        decay = c.lead * (f_bound + math.sqrt(c_t_sigma(t, c.delta)) * noise_sd) * 6.0 / (t - 3)
    else:
        decay = c.lead * f_bound * 4.0 / (t - 2)
    return c.outer * (decay + c.window * sigma_win)


@dataclass(frozen=True)
class CoefficientComparison:
    """The four leading constants of the common form
    r_t <= 3*C4*(2M + 2*sqrt(c_t_sigma)*sigma)/(t-3) + C5*sigma_win."""

    c4_42: float
    c5_42: float
    c4_46: float
    c5_46: float


def compare_coefficients(delta: float) -> CoefficientComparison:
    """Leading constants of both noisy bounds at the same delta.

    The improved bound's constants are provably smaller on both terms.
    """
    c42 = constants_thm42(delta, noisy=True)
    c46 = constants_thm46(delta, noisy=True)
    out = CoefficientComparison(
        c4_42=c42.outer * c42.lead,
        c5_42=c42.outer * c42.window,
        c4_46=c46.outer * c46.lead,
        c5_46=c46.outer * c46.window,
    )
    if not (out.c4_46 < out.c4_42 and out.c5_46 < out.c5_42):
        raise AssertionError(f"coefficient ordering violated at delta={delta}: {out}")
    return out


def matern_noisy_exponent(nu: float, d: int) -> float:
    """Exponent nu/(2*nu + d) of the noisy Matern rate envelope."""
    if not (nu > 0 and d >= 1):
        raise ValueError("need nu > 0 and d >= 1")
    return nu / (2.0 * nu + d)


def rate_envelope(kind: str, t: int, d: int, scale: float, nu: float | None = None, alpha: float | None = None) -> float:
    """Convergence-rate envelope at iteration t, times a caller-supplied scale.

    kind "se":     scale * t^(-1/2) * log(t)^((d+1)/2)          (noisy)
    kind "matern": scale * t^(-nu/(2nu+d)) * log(t)^(nu/(2nu+d)) (noisy)
    kind "bull":   scale * (3/(t-3))^(min(nu,1)/d) * log(t/3)^eta (noiseless),
                   eta = alpha when nu <= 1 and 0 otherwise.

    The absolute constants of the rate theorems are not numerically pinned,
    hence the free scale.
    """
    if not (isinstance(t, (int, np.integer)) and t >= 4):
        raise ValueError(f"t must be an integer >= 4, got {t!r}")
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be > 0, got {scale!r}")
    if kind == "se":
        return scale * t ** (-0.5) * math.log(t) ** ((d + 1) / 2.0)
    if kind == "matern":
        if nu is None or nu <= 0:
            raise ValueError("matern envelope needs nu > 0")
        e = matern_noisy_exponent(nu, d)
        return scale * t ** (-e) * math.log(t) ** e
    if kind == "bull":
        if nu is None or nu <= 0:
            raise ValueError("bull envelope needs nu > 0")
        if alpha is None or alpha < 0:
            raise ValueError("bull envelope needs alpha >= 0")
        eta = alpha if nu <= 1 else 0.0
        return scale * (3.0 / (t - 3)) ** (min(nu, 1.0) / d) * math.log(t / 3.0) ** eta
    raise ValueError(f"unknown envelope kind {kind!r}")


@dataclass(frozen=True)
class RkhsBounds:
    lemma_bound: float
    improved_bound: float
    c_r: float


def rkhs_bounds(B: float, t: int, f_bound: float, sigma_win: float) -> RkhsBounds:
    """Noiseless bounds for objectives of RKHS norm at most B (B >= 1).

    B above 37.36, where c_tau(B) overflows, raises ValueError.

    The two bounds are the noiseless baseline and improved forms of
    ``bound_value`` with sqrt(beta) = B:
    lemma:    c_tau(B) * [4M/(t-2) + (B + phi(0))*sigma_win],  c_tau(B) = tau(B)/tau(-B)
    improved: 4*C1*M/(t-2) + (C1*B + C2)*sigma_win,
              C1 = 1/Phi(-B), C2 = B + phi(0)/Phi(-B)
    c_r(B) = tau(B)*(B + phi(0)) / (Phi(-B)*B + B + phi(0)); both coefficient
    ratios lemma/improved exceed c_r(B), so the improved bound wins by at
    least that factor asymptotically in B.
    """
    if not (math.isfinite(B) and B >= 1.0):
        raise ValueError(f"B must be >= 1, got {B!r}")
    beta = B * B  # sqrt(B*B) == B exactly in binary floating point
    try:
        lemma_c, improved_c = _constants(None, False, beta), _constants(None, False, beta, B)
    except ValueError as exc:
        raise ValueError(f"B={B!r} is too large: {exc}") from None
    lemma = bound_value(lemma_c, t, f_bound, 0.0, sigma_win)
    improved = bound_value(improved_c, t, f_bound, 0.0, sigma_win)
    c_r = tau(B) * (B + PHI0) / (cdf(-B) * B + B + PHI0)
    return RkhsBounds(lemma_bound=lemma, improved_bound=improved, c_r=c_r)


def window_range(c: BoundConstants, t: int) -> tuple[int, int]:
    """Inclusive iteration window [ceil(t/divisor) - 1, t] the theorems quantify over."""
    return math.ceil(t / c.window_divisor) - 1, t


def window_sigma(trace: Trace, c: BoundConstants, t: int) -> tuple[float, float]:
    """(max, min) of sigma_t_k(x_{t_k+1}) over the recorded window rows at t.

    The window is clipped to recorded rows: iterations before T0 are initial
    samples with no acquisition, so no sd is defined for them.
    """
    lo, hi = window_range(c, t)
    sigmas = [row.sigma_next for row in trace.rows_between(lo, hi)]
    if not sigmas:
        raise ValueError(f"trace has no rows in the window [{lo}, {hi}]")
    return max(sigmas), min(sigmas)


def empirical_bound_check(
    trace: Trace, c: BoundConstants, f_bound: float, noise_sd: float, t: int,
    window: tuple[float, float] | None = None,
) -> tuple[float, float, bool]:
    """Evaluate the configured bound on a recorded trace at iteration t.

    Uses the window maximum of the recorded predictive sds, which dominates
    every admissible window iterate, so ``holds`` soundly tests the theorem's
    existential claim.  ``window`` is ``window_sigma(trace, c, t)`` when the
    caller already holds it.  Returns (bound, r_t, holds).
    """
    if not (t >= c.t_min and t > c.window_divisor):
        raise ValueError(f"t={t} below validity threshold (t_min={c.t_min}, divisor={c.window_divisor})")
    row = trace.row_at(t)
    sigma_max, _ = window if window is not None else window_sigma(trace, c, t)
    bound = bound_value(c, t, f_bound, noise_sd, sigma_max)
    return bound, row.r_t, bool(row.r_t <= bound)
