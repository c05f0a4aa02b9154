"""Tests for bound constants, bound formulas and bound checking.

The "chain" oracle recomputes each formula from scratch with math.erfc-based
local helpers, independent of the library's own normal primitives.
"""

import dataclasses
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
    window_sigma,
)
from gpei.config import ExperimentConfig

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


def rkhs_forms(B, t, m, s):
    """(lemma, improved): the noiseless bounds for an objective of RKHS norm B,
    the baseline and improved forms at sqrt(beta) = w = B."""
    beta = B * B  # sqrt(B*B) == B exactly in binary floating point
    return tuple(bound_value(c, t, m, 0.0, s) for c in (bounds._constants(None, False, beta),
                                                      bounds._constants(None, False, beta, B)))


def legacy_rkhs(B, t, m, s):
    """(lemma, improved) RKHS-norm bounds as written before the common form."""
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
    """``bound_value`` evaluates every flavour, and the RKHS-norm bounds (the
    noiseless forms at sqrt(beta) = B), in one form; each reproduces the
    per-flavour expressions it replaced bit for bit."""

    def test_bound_value_bitwise_equals_per_flavour_expressions(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            delta = float(rng.uniform(0.005, 0.95))
            for c in (constants_thm42(delta, True), constants_thm42(delta, False),
                      constants_thm46(delta, True), constants_thm46(delta, False)):
                for _ in range(4):
                    args = random_bound_args(rng, c)
                    assert bound_value(c, *args) == legacy_bound(c, *args), (c.flavor, delta, args)

    def test_decay_term_follows_window_divisor(self):
        # a noiseless flavour given the noisy divisor 3 decays as 2*3/(t - 3),
        # still without a noise term, and its window and valid t move with it
        cfg = ExperimentConfig(T0=1, T=8)
        for c2 in (constants_thm42(0.1, False), constants_thm46(0.1, False)):
            c3 = dataclasses.replace(c2, window_divisor=3)
            for t, m, s in ((4, 1.5, 0.25), (25, 0.7, 0.0), (1999, 3.0, 1.0)):
                assert bound_value(c3, t, m, 0.05, s) == c3.outer * (c3.lead * m * 6.0 / (t - 3) + c3.window * s)
            with pytest.raises(ValueError):
                bound_value(c3, 3, 1.0, 0.0, 0.1)
            assert (bounds.window_range(c2, 30), bounds.window_range(c3, 30)) == ((14, 30), (9, 30))
            assert (bounds.valid_ts(c2, cfg.T0, cfg.T), bounds.valid_ts(c3, cfg.T0, cfg.T)) == (
                [3, 4, 5, 6, 7], [4, 5, 6, 7])

    def test_leading_constants_are_the_form_coefficients(self):
        for delta in (0.01, 0.1, 0.5, 0.9):
            c42, c46 = constants_thm42(delta, True), constants_thm46(delta, True)
            assert compare_coefficients(delta) == (c42, c46)
            assert (c42.c4, c42.c5) == (c42.c_tau, c42.c_tau * (math.sqrt(c42.beta) + PHI0))
            assert (c46.c4, c46.c5) == (c46.c1, c46.c1 * math.sqrt(c46.beta) + c46.c2)

    def test_rkhs_bitwise_equals_its_former_expressions(self):
        rng = np.random.default_rng(21)
        for _ in range(800):
            B = float(rng.choice([1.0, rng.uniform(1, 12)]))
            t, m, _, s = random_bound_args(rng, constants_thm42(0.1, False))
            assert rkhs_forms(B, t, m, s) == legacy_rkhs(B, t, m, s), (B, t, m, s)

    def test_rkhs_bitwise_equals_bound_value_at_root_beta(self):
        # the noiseless constants at delta are the RKHS forms with B = sqrt(beta)
        rng = np.random.default_rng(22)
        for _ in range(500):
            delta = float(rng.uniform(0.005, 0.95))
            c42, c46 = constants_thm42(delta, False), constants_thm46(delta, False)
            args = random_bound_args(rng, c42)
            t, m, _, s = args
            assert rkhs_forms(math.sqrt(c42.beta), t, m, s)[0] == bound_value(c42, *args)
            assert rkhs_forms(math.sqrt(c46.beta), t, m, s)[1] == bound_value(c46, *args)


class TestCompareCoefficients:
    def test_printed_values_at_tenth(self):
        c42, c46 = compare_coefficients(0.1)
        printed = {"c4_42": (c42.c4, 4632), "c5_42": (c42.c5, 15103), "c4_46": (c46.c4, 345), "c5_46": (c46.c5, 1187)}
        for name, (got, value) in printed.items():
            assert abs(got - value) / value < 0.02, name

    def test_ordering_across_delta_grid(self):
        for delta in np.linspace(0.011, 0.899, 50):
            c42, c46 = compare_coefficients(float(delta))
            assert c46.c4 < c42.c4
            assert c46.c5 < c42.c5

    def test_ordering_violation_raises(self, monkeypatch):
        # a mutant whose improved constants are the baseline's fails the check
        monkeypatch.setattr(bounds, "constants_thm46", bounds.constants_thm42)
        with pytest.raises(AssertionError, match="ordering violated"):
            compare_coefficients(0.1)

    def test_c_tau_exceeds_one_and_increases(self):
        betas = np.linspace(0.5, 20, 40)
        vals = [bounds.c_tau_of(float(b)) for b in betas]
        assert all(v > 1 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestRkhsForms:
    """The noiseless forms at sqrt(beta) = w = B bound an objective of RKHS norm B."""

    def test_lemma_value_chain_oracle(self):
        # B=1, t=102, M=1, sigma_win=0: tau(1)/tau(-1) * 0.04 = 0.520102911...
        lemma, _ = rkhs_forms(1.0, 102, 1.0, 0.0)
        expected = (chain_tau(1.0) / chain_tau(-1.0)) * 0.04
        assert lemma == pytest.approx(expected, rel=1e-12)
        assert lemma == pytest.approx(0.520102911474, rel=1e-9)

    def test_leading_constants_chain_oracle(self):
        for B in (1.0, 2.0, 4.0, 8.0, 16.0):
            lemma_c, improved_c = bounds._constants(None, False, B * B), bounds._constants(None, False, B * B, B)
            c4_lemma = chain_tau(B) / chain_tau(-B)
            c4_improved = 1 / chain_cdf(-B)
            assert lemma_c.c4 == pytest.approx(c4_lemma, rel=1e-12)
            assert lemma_c.c5 == pytest.approx(c4_lemma * (B + chain_pdf(0)), rel=1e-12)
            assert improved_c.c4 == pytest.approx(c4_improved, rel=1e-12)
            assert improved_c.c5 == pytest.approx(B + (B + chain_pdf(0)) * c4_improved, rel=1e-12)

    def test_improved_beats_lemma(self):
        for B in np.linspace(1, 16, 16):
            for m, s in [(1.0, 0.0), (0.0, 0.3), (2.0, 0.5)]:
                lemma, improved = rkhs_forms(float(B), 30, m, s)
                if m > 0 or s > 0:
                    assert improved < lemma

    @pytest.mark.parametrize("B", [37.6, 38.0, 39.0])
    def test_overflowing_constants_raise(self, B):
        # c_tau(B) overflows to inf at 37.6 and tau(-B) or Phi(-B) is 0 beyond
        with pytest.raises(ValueError, match="c_tau overflows at beta="):
            rkhs_forms(B, 10, 1.0, 0.1)

    def test_largest_finite_B_unchanged(self):
        lemma, improved = rkhs_forms(37.0, 10, 1.0, 0.1)
        assert math.isfinite(lemma) and math.isfinite(improved)
        assert (lemma, improved) == legacy_rkhs(37.0, 10, 1.0, 0.1)


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
    """Hand-built trace with prescribed per-step sigma_next and r_t."""
    from gpei.eiopt import Trace

    steps = len(ts)
    zeros = np.zeros(steps)
    r_t = np.array(r_ts, dtype=float)
    return Trace(
        t=np.array(ts, dtype=np.intp),
        x_next=np.zeros((steps, 1)),
        x_next_idx=np.zeros(steps, dtype=np.intp),
        f_next=zeros,
        y_next=zeros,
        y_plus=r_t,
        mu_next=zeros,
        sigma_next=np.array(sigmas, dtype=float),
        ei_next=zeros,
        sigma_at_star=np.array(sigmas, dtype=float),
        r_t=r_t,
        r0_t=np.maximum(r_t, 0.0),
        seed=0,
        f_star=0.0,
        f_abs_max=f_abs_max,
        init_indices=np.zeros(ts[0] if ts else 1, dtype=np.intp),  # T0 initial points before t = ts[0]
    )


def loop_trace(**overrides):
    """One trace from the optimization loop itself (seed 1, trial 1)."""
    from gpei import eiopt, gp, harness
    from gpei.config import ExperimentConfig
    from gpei.rng import trial_seed

    cfg = ExperimentConfig(seed=1, **overrides)
    return harness.run_trial(eiopt.run_batch(cfg, gp.GridPrior.build(cfg), [trial_seed(cfg.seed, 1)]), 0)


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
            assert trace.t[0] > 1
            for t in range(4, int(trace.t[-1]) + 10):
                lo, hi = bounds.window_range(c, t)
                in_window = trace.sigma_next[(lo <= trace.t) & (trace.t <= hi)].tolist()
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

    def test_check_columns_refuses_a_t_outside_its_rows(self):
        # one trial's rows for t = 10, ..., 19; t = 30 has no row, and t = 9
        # would read row -1 (t = 19's)
        c = constants_thm46(0.1, noisy=False)
        sigma_next, r_t = np.full((10, 1), 0.5), np.zeros((10, 1))
        assert bounds.check_columns(c, [18, 19], 10, sigma_next, r_t, [10], [1.0], 0.0).holds.all()
        for ts in ([18, 30], [20], [9, 18]):
            with pytest.raises(ValueError, match=r"\[10, 20\)"):
                bounds.check_columns(c, ts, 10, sigma_next, r_t, [10], [1.0], 0.0)

    def test_check_columns_accepts_exactly_the_checkable_ts(self):
        # the one validity test (ts within valid_ts of the rows) against the
        # two checks it replaced: the bound's own threshold, then the rows' span
        def two_checks(c, ts, t0, rows):
            ts = np.asarray(ts, dtype=np.intp)
            if ts.size and not (ts.min() >= c.t_min and ts.min() > c.window_divisor):
                return False
            return not (ts.size and not (ts.min() >= t0 and ts.max() < t0 + rows))

        rng = np.random.default_rng(37)
        for c in (constants_thm42(0.1, True), constants_thm42(0.1, False),
                  constants_thm46(0.1, True), constants_thm46(0.1, False)):
            for t0 in range(1, 13):
                for rows in range(31):
                    cases = [[t] for t in range(t0 - 1, t0 + rows + 1)]
                    cases += [rng.integers(0, 45, size=rng.integers(0, 5)).tolist() for _ in range(4)]
                    sigma_next, r_t = np.full((rows, 2), 0.5), np.zeros((rows, 2))
                    for ts in cases:
                        if two_checks(c, ts, t0, rows):
                            bounds.check_columns(c, ts, t0, sigma_next, r_t, [rows, rows], [1.0, 1.0], 0.05)
                        else:
                            with pytest.raises(ValueError, match="no row"):
                                bounds.check_columns(c, ts, t0, sigma_next, r_t, [rows, rows], [1.0, 1.0], 0.05)

    def test_missing_row_rejected(self):
        ts = list(range(1, 20))
        trace = synthetic_trace(ts, [0.5] * 19, [0.0] * 19)
        c = constants_thm46(0.1, noisy=True)
        with pytest.raises(ValueError):
            empirical_bound_check(trace, c, 1.0, 0.05, 25)
        late = synthetic_trace(list(range(19, 31)), [0.5] * 12, [0.0] * 12)
        with pytest.raises(ValueError):
            empirical_bound_check(late, c, 1.0, 0.05, 18)
        empty = synthetic_trace([], [], [])
        stopped = loop_trace(T0=4, kappa=1e-3)
        assert stopped.ei_next[-1] < 1e-3 and stopped.t[-1] < 30  # stopped by kappa
        # divisor 2 and no t_min: every recorded t > 2 is checkable and reads its own row
        c0 = constants_thm46(0.1, noisy=False)
        for tr in (late, stopped):
            for t, r_t in zip(tr.t.tolist(), tr.r_t.tolist()):
                assert empirical_bound_check(tr, c0, 1.0, 0.0, t)[1] == r_t
        missing = [(trace, 20), (late, 18), (late, 31), (empty, 25), (stopped, 3), (stopped, int(stopped.t[-1]) + 1)]
        for tr, t in missing:
            with pytest.raises(ValueError, match="no row"):
                empirical_bound_check(tr, c0, 1.0, 0.0, t)
        with pytest.raises(ValueError):
            window_sigma(empty, c, 25)
