"""Tests for bound constants, bound formulas, rate envelopes, and RKHS bounds.

The "chain" oracle recomputes each formula from scratch with math.erfc-based
local helpers, independent of the library's own normal primitives.
"""

import math

import numpy as np
import pytest

from gpei import bounds
from gpei.bounds import (
    C_ALPHA,
    beta_t_seq,
    bound_value,
    c_t_sigma,
    compare_coefficients,
    constants_thm42,
    constants_thm46,
    empirical_bound_check,
    matern_noisy_exponent,
    rate_envelope,
    rkhs_bounds,
    window_sigma,
)

PHI0 = 1.0 / math.sqrt(2 * math.pi)


def chain_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2))


def chain_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)


def chain_tau(z):
    return z * chain_cdf(z) + chain_pdf(z)


class TestConstantsThm42:
    def test_noisy_beta_formula(self):
        c = constants_thm42(0.1, noisy=True)
        assert c.beta == pytest.approx(2 * math.log(60), rel=1e-14)
        # printed value in the source analysis: 8.19 (2% tolerance)
        assert abs(c.beta - 8.19) / 8.19 < 0.02
        assert c.window_divisor == 3
        assert c.t_min == pytest.approx(3 * math.log(30) / math.log(2) + 3, rel=1e-12)

    def test_noisy_c_tau_matches_printed_value(self):
        c = constants_thm42(0.1, noisy=True)
        assert abs(c.c_tau - 4632) / 4632 < 0.02

    def test_beta_inversion(self):
        # inverting beta = 2*log(6/delta): delta = 6*exp(-beta/2), picked
        # inside the valid (0, 1) range
        c = constants_thm42(6 * math.exp(-2.0), noisy=True)
        assert c.beta == pytest.approx(4.0, rel=1e-12)

    def test_noiseless_flavor(self):
        c = constants_thm42(0.1, noisy=False)
        assert c.beta == pytest.approx(2 * math.log(20), rel=1e-14)
        assert c.window_divisor == 2
        assert c.t_min == 0.0
        assert c.w is None and c.c1 is None

    def test_rejects_bad_delta(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                constants_thm42(bad, noisy=True)


class TestConstantsThm46:
    def test_noisy_printed_values(self):
        c = constants_thm46(0.1, noisy=True)
        assert abs(c.beta - 9.17) / 9.17 < 0.02
        assert abs(c.c1 - 345) / 345 < 0.02
        assert abs(c.c2 - 141) / 141 < 0.02

    def test_formulas_via_chain_oracle(self):
        delta = 0.1
        c = constants_thm46(delta, noisy=True)
        w = math.sqrt(2 * math.log(9 / (2 * delta)))
        assert c.w == pytest.approx(w, rel=1e-14)
        assert c.c1 == pytest.approx(1.0 / chain_cdf(-w), rel=1e-12)
        assert c.c2 == pytest.approx(chain_pdf(0) / chain_cdf(-w) + math.sqrt(c.beta), rel=1e-12)
        assert c.c3 == pytest.approx(c.c2 - math.sqrt(c.beta), rel=1e-10)

    def test_figure_caption_constants_at_w2(self):
        # delta chosen so that w = 2: 2*log(9/(2 delta)) = 4
        delta = 9 / (2 * math.exp(2))
        c = constants_thm46(delta, noisy=True)
        assert c.w == pytest.approx(2.0, rel=1e-14)
        assert c.c1 == pytest.approx(1.0 / chain_cdf(-2.0), rel=1e-12)  # 43.956
        assert round(c.c1) == 44
        assert round(c.c3) == 18  # phi(0)/Phi(-2) = 17.536

    def test_figure4_constants_at_w3(self):
        delta = 9 / (2 * math.exp(4.5))  # w = 3
        c = constants_thm46(delta, noisy=True)
        assert c.w == pytest.approx(3.0, rel=1e-14)
        assert round(c.c1) == 741
        assert round(c.c3) == 296

    def test_noiseless_uses_w_equal_sqrt_beta(self):
        c = constants_thm46(0.1, noisy=False)
        assert c.beta == pytest.approx(2 * math.log(3 * C_ALPHA / 0.1), rel=1e-14)
        assert c.w == pytest.approx(math.sqrt(c.beta), rel=1e-14)
        assert c.window_divisor == 2

    def test_constant_inequalities_across_deltas(self):
        for delta in np.linspace(0.005, 0.5, 40):
            c = constants_thm46(float(delta), noisy=True)
            assert c.c1 > 2
            assert c.c3 > c.w + 1

    def test_c_alpha_value(self):
        assert C_ALPHA == pytest.approx((1 + 2 * math.pi) / (2 * math.pi), rel=1e-15)


class TestScalarSequences:
    def test_c_t_sigma_values(self):
        # chain: 2*ln(pi^2/(2*0.1)) = 7.7978, 2*ln(pi^2*100/0.2) = 17.008
        assert c_t_sigma(1, 0.1) == pytest.approx(2 * math.log(math.pi**2 / 0.2), rel=1e-14)
        assert c_t_sigma(10, 0.1) == pytest.approx(2 * math.log(math.pi**2 * 100 / 0.2), rel=1e-14)

    def test_c_t_sigma_monotone(self):
        vals = [c_t_sigma(t, 0.1) for t in range(1, 50)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_beta_t_seq_closed_form(self):
        # the zero of 2*log(pi^2 t^2/(6 delta)) sits at delta = pi^2/6 > 1,
        # outside the valid range; check the exact closed form instead
        assert beta_t_seq(1, 0.9) == pytest.approx(2 * math.log(math.pi**2 / 5.4), rel=1e-14)

    def test_beta_t_seq_value_and_monotone(self):
        assert beta_t_seq(1, 0.1) == pytest.approx(2 * math.log(math.pi**2 / 0.6), rel=1e-14)
        vals = [beta_t_seq(t, 0.05) for t in range(1, 40)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            c_t_sigma(0, 0.1)
        with pytest.raises(ValueError):
            beta_t_seq(3, 1.5)


class TestBoundFormulas:
    def test_all_terms_vanish(self):
        c42 = constants_thm42(0.1, noisy=True)
        c46 = constants_thm46(0.1, noisy=True)
        assert bound_value(c42, 30, 0.0, 0.0, 0.0) == 0.0
        assert bound_value(c46, 30, 0.0, 0.0, 0.0) == 0.0

    def test_noiseless_chain_oracle(self):
        # delta=0.1, t=102, M=1, sigma_win=0.05, recomputed term by term
        delta, t, m, s = 0.1, 102, 1.0, 0.05
        c = constants_thm42(delta, noisy=False)
        beta = 2 * math.log(2 / delta)
        expected = (chain_tau(math.sqrt(beta)) / chain_tau(-math.sqrt(beta))) * (
            4 * m / (t - 2) + (math.sqrt(beta) + chain_pdf(0)) * s
        )
        assert bound_value(c, t, m, 0.0, s) == pytest.approx(expected, rel=1e-12)

    def test_noisy_chain_oracle(self):
        delta, t, m, noise, s = 0.1, 40, 2.0, 0.05, 0.2
        c42 = constants_thm42(delta, noisy=True)
        beta = 2 * math.log(6 / delta)
        cts = 2 * math.log(math.pi**2 * t * t / (2 * delta))
        expected42 = (chain_tau(math.sqrt(beta)) / chain_tau(-math.sqrt(beta))) * (
            6 * (m + math.sqrt(cts) * noise) / (t - 3) + (math.sqrt(beta) + chain_pdf(0)) * s
        )
        assert bound_value(c42, t, m, noise, s) == pytest.approx(expected42, rel=1e-12)

        c46 = constants_thm46(delta, noisy=True)
        beta46 = 2 * math.log(9 * C_ALPHA / delta)
        w = math.sqrt(2 * math.log(9 / (2 * delta)))
        c1 = 1 / chain_cdf(-w)
        c2 = chain_pdf(0) / chain_cdf(-w) + math.sqrt(beta46)
        expected46 = c1 * (m + math.sqrt(cts) * noise) * 6 / (t - 3) + (c1 * math.sqrt(beta46) + c2) * s
        assert bound_value(c46, t, m, noise, s) == pytest.approx(expected46, rel=1e-12)

    def test_monotonicities(self):
        for c in (constants_thm42(0.1, noisy=True), constants_thm46(0.1, noisy=True)):
            ts = [bound_value(c, t, 1.0, 0.05, 0.0) for t in range(19, 60)]
            assert all(x > y for x, y in zip(ts, ts[1:])), "decreasing in t"
            ms = [bound_value(c, 30, m, 0.05, 0.1) for m in np.linspace(0, 3, 10)]
            assert all(x < y for x, y in zip(ms, ms[1:])), "increasing in M"
            ns = [bound_value(c, 30, 1.0, nv, 0.1) for nv in np.linspace(0, 1, 10)]
            assert all(x < y for x, y in zip(ns, ns[1:])), "increasing in noise"
            ss = [bound_value(c, 30, 1.0, 0.05, sv) for sv in np.linspace(0, 1, 10)]
            assert all(x < y for x, y in zip(ss, ss[1:])), "increasing in sigma_win"

    def test_improved_beats_baseline_across_deltas(self):
        for delta in np.linspace(0.05, 0.6, 12):
            c42 = constants_thm42(float(delta), noisy=True)
            c46 = constants_thm46(float(delta), noisy=True)
            for t in (25, 40, 59):
                b42 = bound_value(c42, t, 1.0, 0.05, 0.1)
                b46 = bound_value(c46, t, 1.0, 0.05, 0.1)
                assert b46 < b42

    def test_denominator_guard(self):
        c42 = constants_thm42(0.1, noisy=True)
        with pytest.raises(ValueError):
            bound_value(c42, 3, 1.0, 0.05, 0.1)


def legacy_bound(c, t, m, noise_sd, s):
    """The per-flavour bound expressions that preceded the common form, kept verbatim."""
    if c.flavor.startswith("thm42"):
        explore = (math.sqrt(c.beta) + PHI0) * s
        if c.flavor == "thm42-noisy":
            decay = 6.0 * (m + math.sqrt(c_t_sigma(t, c.delta)) * noise_sd) / (t - 3)
        else:
            decay = 4.0 * m / (t - 2)
        return c.c_tau * (decay + explore)
    explore = (c.c1 * math.sqrt(c.beta) + c.c2) * s
    if c.flavor == "thm46-noisy":
        decay = c.c1 * (m + math.sqrt(c_t_sigma(t, c.delta)) * noise_sd) * 6.0 / (t - 3)
    else:
        decay = c.c1 * m * 4.0 / (t - 2)
    return decay + explore


def legacy_rkhs(B, t, m, s):
    """(lemma, improved) as ``rkhs_bounds`` wrote them before the common form."""
    from gpei.stdnormal import cdf, tau

    phi_neg = cdf(-B)
    lemma = (tau(B) / tau(-B)) * (4.0 * m / (t - 2) + (B + PHI0) * s)
    c1 = 1.0 / phi_neg
    c2 = B + PHI0 / phi_neg
    return lemma, 4.0 * c1 * m / (t - 2) + (c1 * B + c2) * s


def random_bound_args(rng, c):
    """(t, M, noise_sd, sigma_win) with exact zeros and t at the window edge mixed in."""
    t = int(rng.choice([c.window_divisor + 1, rng.integers(c.window_divisor + 1, 2000)]))
    m, noise_sd, s = (float(rng.choice([0.0, rng.uniform(0, 5)])) for _ in range(3))
    return t, m, min(noise_sd, 1.0), min(s, 1.0)


class TestOneForm:
    """``bound_value`` evaluates every flavour, and the RKHS bounds, in one form;
    each reproduces the per-flavour expressions it replaced bit for bit."""

    def test_bound_value_bitwise_equals_per_flavour_expressions(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            delta = float(rng.uniform(0.005, 0.95))
            for c in (constants_thm42(delta, True), constants_thm42(delta, False),
                      constants_thm46(delta, True), constants_thm46(delta, False)):
                for _ in range(4):
                    args = random_bound_args(rng, c)
                    assert bound_value(c, *args) == legacy_bound(c, *args), (c.flavor, delta, args)

    def test_leading_constants_are_the_form_coefficients(self):
        for delta in (0.01, 0.1, 0.5, 0.9):
            c42, c46 = constants_thm42(delta, True), constants_thm46(delta, True)
            cmp_ = compare_coefficients(delta)
            assert (cmp_.c4_42, cmp_.c5_42) == (c42.c_tau, c42.c_tau * (math.sqrt(c42.beta) + PHI0))
            assert (cmp_.c4_46, cmp_.c5_46) == (c46.c1, c46.c1 * math.sqrt(c46.beta) + c46.c2)
            assert (cmp_.c4_42, cmp_.c5_42) == (c42.outer * c42.lead, c42.outer * c42.window)
            assert (cmp_.c4_46, cmp_.c5_46) == (c46.outer * c46.lead, c46.outer * c46.window)

    def test_rkhs_bitwise_equals_its_former_expressions(self):
        rng = np.random.default_rng(21)
        for _ in range(800):
            B = float(rng.choice([1.0, rng.uniform(1, 12)]))
            t, m, _, s = random_bound_args(rng, constants_thm42(0.1, False))
            out = rkhs_bounds(B, t, m, s)
            assert (out.lemma_bound, out.improved_bound) == legacy_rkhs(B, t, m, s), (B, t, m, s)

    def test_rkhs_bitwise_equals_bound_value_at_root_beta(self):
        # the noiseless constants at delta are the RKHS forms with B = sqrt(beta)
        rng = np.random.default_rng(22)
        for _ in range(500):
            delta = float(rng.uniform(0.005, 0.95))
            c42, c46 = constants_thm42(delta, False), constants_thm46(delta, False)
            args = random_bound_args(rng, c42)
            t, m, _, s = args
            assert rkhs_bounds(math.sqrt(c42.beta), t, m, s).lemma_bound == bound_value(c42, *args)
            assert rkhs_bounds(math.sqrt(c46.beta), t, m, s).improved_bound == bound_value(c46, *args)


class TestCompareCoefficients:
    def test_printed_values_at_tenth(self):
        cmp_ = compare_coefficients(0.1)
        printed = {"c4_42": 4632, "c5_42": 15103, "c4_46": 345, "c5_46": 1187}
        for name, value in printed.items():
            assert abs(getattr(cmp_, name) - value) / value < 0.02, name

    def test_ordering_across_delta_grid(self):
        for delta in np.linspace(0.011, 0.899, 50):
            cmp_ = compare_coefficients(float(delta))
            assert cmp_.c4_46 < cmp_.c4_42
            assert cmp_.c5_46 < cmp_.c5_42

    def test_c_tau_exceeds_one_and_increases(self):
        betas = np.linspace(0.5, 20, 40)
        vals = [bounds.c_tau_of(float(b)) for b in betas]
        assert all(v > 1 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestRateEnvelope:
    def test_se_at_t_with_unit_log(self):
        # t chosen so log(t) = 1 would need t = e; use the identity against
        # the closed form instead at integer t
        for t in (10, 100, 1000):
            expected = 2.5 * t**-0.5 * math.log(t) ** 1.0
            assert rate_envelope("se", t, 1, 2.5) == pytest.approx(expected, rel=1e-14)

    def test_matern_exponent_analytic(self):
        assert matern_noisy_exponent(2.5, 1) == pytest.approx(2.5 / 6.0, rel=1e-15)
        assert matern_noisy_exponent(1.5, 2) == pytest.approx(0.3, rel=1e-15)
        for t in (16, 256):
            e = matern_noisy_exponent(2.5, 1)
            expected = t**-e * math.log(t) ** e
            assert rate_envelope("matern", t, 1, 1.0, nu=2.5) == pytest.approx(expected, rel=1e-14)

    def test_matern_exponent_limit(self):
        assert matern_noisy_exponent(1e9, 1) == pytest.approx(0.5, abs=1e-9)

    def test_bull_envelope_eta_rule(self):
        # nu <= 1 keeps the log factor; nu > 1 drops it
        v_smooth = rate_envelope("bull", 30, 2, 1.0, nu=2.5, alpha=0.5)
        assert v_smooth == pytest.approx((3 / 27) ** (1 / 2), rel=1e-14)
        v_rough = rate_envelope("bull", 30, 2, 1.0, nu=0.5, alpha=0.5)
        assert v_rough == pytest.approx((3 / 27) ** (1 / 4) * math.log(10) ** 0.5, rel=1e-14)

    def test_se_loglog_slope_over_wide_range(self):
        ts = np.unique(np.logspace(3, 6, 60).astype(int))
        vals = np.array([rate_envelope("se", int(t), 1, 1.0) for t in ts])
        slope = np.polyfit(np.log(ts.astype(float)), np.log(vals), 1)[0]
        assert -0.5 < slope < -0.40

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rate_envelope("se", 3, 1, 1.0)
        with pytest.raises(ValueError):
            rate_envelope("matern", 10, 1, 1.0)
        with pytest.raises(ValueError):
            rate_envelope("spline", 10, 1, 1.0)


class TestRkhsBounds:
    def test_lemma_value_chain_oracle(self):
        # B=1, t=102, M=1, sigma_win=0: tau(1)/tau(-1) * 0.04 = 0.520102911...
        out = rkhs_bounds(1.0, 102, 1.0, 0.0)
        expected = (chain_tau(1.0) / chain_tau(-1.0)) * 0.04
        assert out.lemma_bound == pytest.approx(expected, rel=1e-12)
        assert out.lemma_bound == pytest.approx(0.520102911474, rel=1e-9)

    def test_coefficient_ratio_exceeds_c_r(self):
        for B in (1.0, 2.0, 4.0, 8.0, 16.0):
            out = rkhs_bounds(B, 50, 1.0, 0.1)
            c5_lemma = (chain_tau(B) / chain_tau(-B)) * (B + chain_pdf(0))
            c5_improved = B + (B + chain_pdf(0)) / chain_cdf(-B)
            c4_lemma = chain_tau(B) / chain_tau(-B)
            c4_improved = 1 / chain_cdf(-B)
            assert c5_lemma / c5_improved > out.c_r
            assert c4_lemma / c4_improved > out.c_r

    def test_inverse_c_r_strictly_decreasing(self):
        inv = [1.0 / rkhs_bounds(float(b), 10, 1.0, 0.0).c_r for b in range(1, 11)]
        assert all(a > b for a, b in zip(inv, inv[1:]))

    def test_improved_beats_lemma(self):
        for B in np.linspace(1, 16, 16):
            for m, s in [(1.0, 0.0), (0.0, 0.3), (2.0, 0.5)]:
                out = rkhs_bounds(float(B), 30, m, s)
                if m > 0 or s > 0:
                    assert out.improved_bound < out.lemma_bound

    def test_rejects_small_B(self):
        with pytest.raises(ValueError):
            rkhs_bounds(0.5, 10, 1.0, 0.0)

    @pytest.mark.parametrize("B", [37.6, 38.0, 39.0])
    def test_overflowing_constants_raise(self, B):
        # c_tau(B) overflows to inf at 37.6 and tau(-B) or Phi(-B) is 0 beyond
        with pytest.raises(ValueError, match=rf"B={B!r} is too large: c_tau overflows at beta="):
            rkhs_bounds(B, 10, 1.0, 0.1)

    def test_largest_finite_B_unchanged(self):
        out = rkhs_bounds(37.0, 10, 1.0, 0.1)
        assert math.isfinite(out.lemma_bound) and math.isfinite(out.improved_bound)
        assert (out.lemma_bound, out.improved_bound) == legacy_rkhs(37.0, 10, 1.0, 0.1)


class TestOverflowingConstants:
    def test_c_tau_names_beta(self):
        for beta in (38.0**2, math.inf):
            with pytest.raises(ValueError, match=rf"c_tau overflows at beta={beta!r}"):
                bounds.c_tau_of(beta)
        with pytest.raises(ValueError, match="c_tau overflows at beta="):
            constants_thm42(1e-307, noisy=True)

    def test_c1_names_w(self):
        # no public entry point reaches it: w <= sqrt(beta), and c_tau overflows first
        assert bounds._constants(None, False, 100.0, 37.0).c1 == 1.0 / bounds.cdf(-37.0)
        for w in (37.6, 38.0):
            with pytest.raises(ValueError, match=rf"C1 = 1/Phi\(-w\) overflows at w={w!r}"):
                bounds._constants(None, False, 100.0, w)


def synthetic_trace(ts, sigmas, r_ts, f_abs_max=1.0):
    """Hand-built trace with prescribed per-row sigma_next and r_t."""
    from gpei.eiopt import Trace, TraceRow

    rows = tuple(
        TraceRow(
            t=t,
            x_next=(0.0,),
            x_next_idx=0,
            f_next=0.0,
            y_next=0.0,
            y_plus=r,
            mu_next=0.0,
            sigma_next=s,
            ei_next=0.0,
            sigma_at_star=s,
            r_t=r,
            r0_t=max(r, 0.0),
        )
        for t, s, r in zip(ts, sigmas, r_ts)
    )
    return Trace(
        rows=rows,
        seed=0,
        config_hash="test",
        noise_sd=0.05,
        f_star=0.0,
        f_abs_max=f_abs_max,
        x_star_idx=0,
        init_indices=(0,),
        stopped_early=False,
    )


def loop_trace(**overrides):
    """One trace from the optimization loop itself (seed 1, trial 1)."""
    from gpei import harness
    from gpei.config import ExperimentConfig

    cfg = ExperimentConfig(seed=1, **overrides)
    return harness.run_trials(cfg, harness.grid_prior(cfg), [1])[0]


class TestEmpiricalBoundCheck:
    def test_window_maximum_selection(self):
        ts = list(range(1, 31))
        sigmas = [1.0 / t for t in ts]
        trace = synthetic_trace(ts, sigmas, [0.0] * 30)
        c = constants_thm46(0.1, noisy=True)
        smax, smin = window_sigma(trace, c, 30)
        # window [ceil(30/3)-1, 30] = [9, 30]
        assert smax == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert smin == pytest.approx(1.0 / 30.0, rel=1e-15)
        # rows from T0 = 12 clip the window to [12, 30]
        late = synthetic_trace(ts[11:], sigmas[11:], [0.0] * 19)
        assert window_sigma(late, c, 30) == (1.0 / 12.0, 1.0 / 30.0)
        # loop traces starting at T0 > 1 or stopped by kappa: the window is
        # clipped to the recorded rows, whichever end is missing
        for trace in (loop_trace(T0=7, T=30), loop_trace(T0=4, kappa=1e-3)):
            assert trace.rows[0].t > 1
            for t in range(4, trace.rows[-1].t + 10):
                lo, hi = bounds.window_range(c, t)
                in_window = [row.sigma_next for row in trace.rows if lo <= row.t <= hi]
                if in_window:
                    assert window_sigma(trace, c, t) == (max(in_window), min(in_window))
                else:
                    with pytest.raises(ValueError):
                        window_sigma(trace, c, t)

    def test_zero_error_always_holds(self):
        ts = list(range(1, 31))
        trace = synthetic_trace(ts, [0.5] * 30, [0.0] * 30)
        c = constants_thm46(0.1, noisy=True)
        bound, r_t, holds = empirical_bound_check(trace, c, 1.0, 0.05, 25)
        assert holds and r_t == 0.0 and bound > 0

    def test_violation_detected(self):
        ts = list(range(1, 31))
        trace = synthetic_trace(ts, [0.0] * 30, [1e9] * 30, f_abs_max=0.0)
        c = constants_thm46(0.1, noisy=True)
        bound, r_t, holds = empirical_bound_check(trace, c, 0.0, 0.0, 25)
        assert not holds and bound == 0.0

    def test_too_early_t_rejected(self):
        ts = list(range(1, 31))
        trace = synthetic_trace(ts, [0.5] * 30, [0.0] * 30)
        c = constants_thm46(0.1, noisy=True)  # t_min ~ 17.7
        with pytest.raises(ValueError):
            empirical_bound_check(trace, c, 1.0, 0.05, 10)

    def test_missing_row_rejected(self):
        ts = list(range(1, 20))
        trace = synthetic_trace(ts, [0.5] * 19, [0.0] * 19)
        c = constants_thm46(0.1, noisy=True)
        with pytest.raises(ValueError):
            empirical_bound_check(trace, c, 1.0, 0.05, 25)
        late = synthetic_trace(list(range(19, 31)), [0.5] * 12, [0.0] * 12)
        with pytest.raises(ValueError):
            empirical_bound_check(late, c, 1.0, 0.05, 18)
        assert late.row_at(19) is late.rows[0] and late.row_at(30) is late.rows[-1]
        empty = synthetic_trace([], [], [])
        stopped = loop_trace(T0=4, kappa=1e-3)
        assert stopped.stopped_early and stopped.rows[-1].t < 30
        for row in stopped.rows:
            assert stopped.row_at(row.t) is row
        missing = [(trace, 20), (late, 18), (late, 31), (empty, 1), (stopped, 3), (stopped, stopped.rows[-1].t + 1)]
        for trace, t in missing:
            with pytest.raises(ValueError):
                trace.row_at(t)
        with pytest.raises(ValueError):
            window_sigma(empty, c, 25)
