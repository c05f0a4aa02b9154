"""Error-bound constants, bound formulas, and bound checking.

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

Both flavors share one form, outer * (lead * D + window * sigma_win), whose
coefficients each ``BoundConstants`` carries; ``bound_value`` is its only
evaluator.  Both assert existence of an iteration t_k in a trailing window
whose predictive sd enters the bound; the empirical checker (``check_columns``, on
every trial and t of a campaign at once) evaluates the bound at the window
*maximum*, which upper-bounds every admissible t_k and therefore soundly
tests the stated conclusion.
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
    improved one; its leading constants are C4 = outer*lead (``c4``) and
    C5 = outer*window (``c5``).  Fields that a flavor does not define are
    None (the baseline bound has no w/C1/C2/C3; c_tau is populated for every
    flavor since it only needs beta).  delta is None only for noiseless constants
    built at a bare beta, ``_constants(None, False, beta[, w])``, which no
    campaign uses.
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

    @property
    def c4(self) -> float:
        return self.outer * self.lead

    @property
    def c5(self) -> float:
        return self.outer * self.window


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


def _t_envelope(t: int, delta: float, k: float) -> float:
    """2*log(pi^2 t^2 / (k*delta)) for an integer t >= 1 and delta in (0, 1)."""
    delta = _check_delta(delta)
    if not (isinstance(t, (int, np.integer)) and t >= 1):
        raise ValueError(f"t must be an integer >= 1, got {t!r}")
    return 2.0 * math.log(math.pi**2 * t * t / (k * delta))


def c_t_sigma(t: int, delta: float) -> float:
    """Noise-envelope factor 2*log(pi^2 t^2 / (2*delta))."""
    return _t_envelope(t, delta, 2.0)


def beta_t_seq(t: int, delta: float) -> float:
    """All-t concentration sequence 2*log(pi^2 t^2 / (6*delta))."""
    return _t_envelope(t, delta, 6.0)


def constants_for(theorem: str, delta: float, noisy: bool) -> BoundConstants:
    if theorem == "thm42":
        return constants_thm42(delta, noisy)
    if theorem == "thm46":
        return constants_thm46(delta, noisy)
    raise ValueError(f"unknown theorem {theorem!r}")


def bound_value(c: BoundConstants, t, f_bound, noise_sd: float, sigma_win):
    """Bound value at iteration t: outer * (lead * D + window * sigma_win).

    D = (M [+ sqrt(c_t_sigma)*noise_sd]) * 2d/(t - d)
    with M = f_bound, d = ``c.window_divisor`` (3 noisy, 2 noiseless) and the
    noise term in the noisy flavor only (noiseless ignores noise_sd).  t,
    f_bound and sigma_win broadcast together (a float when all are scalars);
    c_t_sigma is taken per entry of t with ``math.log``.  lead*D is evaluated
    left to right (lead*M*2d/(t - d)): another order moves bounds by
    roundoff, and with them the trace bytes.
    """
    t, f, s = np.asarray(t), np.asarray(f_bound, dtype=float), np.asarray(sigma_win, dtype=float)
    if not (t.dtype.kind in "iu" and np.all(t > c.window_divisor)):
        raise ValueError(f"t must be an integer > {c.window_divisor}, got {t!r}")
    if not np.all(np.isfinite(f) & (f >= 0)):
        raise ValueError(f"f_bound must be >= 0, got {f_bound!r}")
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd!r}")
    if not np.all((s >= 0.0) & (s <= 1.0)):
        raise ValueError(f"sigma_win must lie in [0, 1], got {sigma_win!r}")
    if c.flavor.endswith("-noisy"):
        f = f + np.sqrt([c_t_sigma(int(k), c.delta) for k in t.flat]).reshape(t.shape) * noise_sd
    d = c.window_divisor
    out = c.outer * (c.lead * f * (2 * d) / (t - d) + c.window * s)
    return float(out) if out.ndim == 0 else out


def compare_coefficients(delta: float) -> tuple[BoundConstants, BoundConstants]:
    """The noisy (baseline, improved) constants at the same delta, after
    checking that the improved bound's C4 and C5 are the smaller, which they
    provably are."""
    c42, c46 = constants_thm42(delta, noisy=True), constants_thm46(delta, noisy=True)
    if not (c46.c4 < c42.c4 and c46.c5 < c42.c5):
        raise AssertionError(f"coefficient ordering violated at delta={delta}: {c42} vs {c46}")
    return c42, c46


def window_range(c: BoundConstants, t: int) -> tuple[int, int]:
    """Inclusive iteration window [ceil(t/divisor) - 1, t] the theorems quantify over."""
    return math.ceil(t / c.window_divisor) - 1, t


def valid_ts(c: BoundConstants, t0: int, T: int) -> list[int]:
    """Iterations t0 <= t < T at which the bound is defined: t > window divisor and t >= t_min."""
    return list(range(max(t0, c.window_divisor + 1, math.ceil(c.t_min)), T))


def window_extrema(c: BoundConstants, ts, t0: int, sigma_next: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max, min) of sigma_t_k(x_{t_k+1}) over the window of each t in ``ts``,
    each (len(ts), trials), from ``sigma_next`` with one row per iteration t0,
    t0 + 1, ... and one column per trial.  A window is one row slice, clipped
    to the recorded rows (before t0 there was no acquisition, so no sd)."""
    smax = np.empty((len(ts), sigma_next.shape[1]))
    smin = np.empty_like(smax)
    for i, t in enumerate(ts):
        lo, hi = window_range(c, int(t))
        win = sigma_next[max(lo - t0, 0) : max(hi - t0 + 1, 0)]
        if not win.size:
            raise ValueError(f"no recorded rows in the window [{lo}, {hi}]")
        smax[i], smin[i] = win.max(axis=0), win.min(axis=0)
    return smax, smin


@dataclass(frozen=True)
class BoundChecks:
    """Each field but ``t`` has shape (trials, len(t)), laid out t-major (each
    t's column is contiguous); NaN, and ``holds`` False, where a trial stopped before t."""

    t: np.ndarray
    sigma_win_max: np.ndarray
    sigma_win_min: np.ndarray
    bound: np.ndarray
    r_t: np.ndarray
    holds: np.ndarray


def check_columns(c: BoundConstants, ts, t0: int, sigma_next, r_t, steps, f_bound, noise_sd: float) -> BoundChecks:
    """The configured bound at every t of ``ts`` for a block of trials, whose
    ``sigma_next`` and ``r_t`` have one row per iteration t0, t0 + 1, ... and
    one column per trial (which recorded ``steps`` of them), at the window
    maximum of sigma_next, so ``holds`` = (r_t <= bound) soundly tests the
    theorem's existential claim."""
    ts = np.asarray(ts, dtype=np.intp)
    end = t0 + np.shape(r_t)[0]
    valid = valid_ts(c, t0, end)
    if not set(ts.tolist()) <= set(valid):
        raise ValueError(f"no row for some t of {ts.tolist()} on [t_first, end) = [{(valid or [end])[0]}, {end}), "
                         f"the rows' t >= {t0} with t > {c.window_divisor} and t >= t_min={c.t_min!r}")
    smax, smin = window_extrema(c, ts, t0, sigma_next)
    r = r_t[ts - t0]
    bound = bound_value(c, ts[:, None], f_bound, noise_sd, smax)
    recorded = ts[:, None] - t0 < np.asarray(steps)
    out = [np.where(recorded, x, np.nan).T for x in (smax, smin, bound, r)]
    return BoundChecks(ts, *out, holds=(recorded & (r <= bound)).T)


def window_sigma(trace: Trace, c: BoundConstants, t: int) -> tuple[float, float]:
    """``window_extrema`` of one trace at one t."""
    smax, smin = window_extrema(c, [t], trace.init_indices.size, trace.sigma_next[:, None])
    return float(smax[0, 0]), float(smin[0, 0])


def empirical_bound_check(trace: Trace, c: BoundConstants, f_bound: float, noise_sd: float, t: int) -> tuple:
    """``check_columns`` of one trace at one t: (bound, r_t, holds)."""
    checks = check_columns(c, [t], trace.init_indices.size, trace.sigma_next[:, None], trace.r_t[:, None],
                           [trace.t.size], [f_bound], noise_sd)
    return float(checks.bound[0, 0]), float(checks.r_t[0, 0]), bool(checks.holds[0, 0])
