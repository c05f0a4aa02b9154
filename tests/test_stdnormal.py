"""Tests for the standard-normal primitives and the analysis functions.

Expected values marked "oracle" are computed with mpmath at 50 digits,
independently of the implementation under test (the CDF oracle integrates
the density by quadrature rather than calling any erf variant).
"""

import ast
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gpei
from gpei.stdnormal import (
    PHI0,
    SIGMA_FLOOR,
    BarTauParams,
    bar_tau,
    cdf,
    ei_ab,
    find_rho_bar,
    pdf,
    tau,
    theta,
    theta_at_rho_max,
    _erfc,
    tilde_tau,
)
from test_gp import references

mp.mp.dps = 50


def mp_pdf(z):
    return mp.exp(-mp.mpf(z) ** 2 / 2) / mp.sqrt(2 * mp.pi)


def mp_cdf_quad(z):
    """Quadrature of the density over (-inf, z]; no erf involved."""
    return mp.quad(mp_pdf, [-mp.inf, mp.mpf(z)])


def mp_tau(z):
    z = mp.mpf(z)
    return z * mp.ncdf(z) + mp_pdf(z)


def ulps(got, exact):
    """Largest |got - exact| over the entries, in units of the last place of exact."""
    return max(float(abs(mp.mpf(g) - e) / np.spacing(abs(float(e)))) for g, e in zip(got.tolist(), exact))


finite_floats = st.floats(min_value=-30, max_value=30, allow_nan=False)


class TestPdf:
    def test_at_zero(self):
        assert pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)
        assert PHI0 == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_at_two_oracle(self):
        # oracle: exp(-2)/sqrt(2*pi) at 50 digits = 0.053990966513188052...
        assert pdf(2.0) == pytest.approx(0.053990966513188052, rel=1e-14)

    @given(finite_floats)
    def test_even_symmetry(self, z):
        assert pdf(z) == pdf(-z)

    def test_bounded_by_value_at_zero(self):
        z = np.linspace(-10, 10, 401)
        vals = pdf(z)
        assert np.all(vals > 0)
        assert np.all(vals <= pdf(0.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pdf(float("nan"))
        with pytest.raises(ValueError):
            pdf(float("inf"))


class TestCdf:
    def test_at_zero(self):
        assert cdf(0.0) == 0.5

    def test_at_minus_two_oracle(self):
        expected = float(mp_cdf_quad(-2))  # 0.022750131948179207...
        assert cdf(-2.0) == pytest.approx(expected, rel=1e-13)

    def test_tail_relative_accuracy(self):
        # >= 10 significant digits down to z = -8
        for z in (-4.0, -6.0, -8.0):
            expected = float(mp_cdf_quad(z))
            assert abs(cdf(z) - expected) / expected < 1e-10
        z = np.linspace(-8, 0, 161)
        expected = np.array([float(mp.ncdf(v)) for v in z])
        assert np.all(np.abs(np.asarray(cdf(z)) - expected) <= 1e-10 * expected)

    def test_erfc_within_3_ulp(self):
        # libm's erfc on [-6, 6], and the CDF against 0.5*erfc of the same
        # rounded argument -z/sqrt(2) (that rounding is the CDF's only other error)
        x = np.linspace(-6, 6, 1201)
        exact = [mp.erfc(v) for v in x]
        assert ulps(_erfc(x), exact) <= 3.0
        z = x
        exact = [mp.erfc(v) / 2 for v in -z / math.sqrt(2.0)]
        assert ulps(np.asarray(cdf(z)), exact) <= 3.0

    def test_gaussian_tail_bound(self):
        c = np.logspace(-3, math.log10(8.0), 300)
        assert np.all(np.asarray(cdf(-c)) <= 0.5 * np.exp(-0.5 * c * c))

    def test_in_open_unit_interval(self):
        z = np.linspace(-8, 8, 201)
        vals = np.asarray(cdf(z))
        assert np.all(vals > 0) and np.all(vals < 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cdf(float("-inf"))


class TestTau:
    def test_at_zero(self):
        assert tau(0.0) == pytest.approx(PHI0, abs=1e-16)

    def test_oracle_value(self):
        # oracle: 2.8618*Phi(2.8618) + phi(2.8618) = 2.8624174553565301...
        assert tau(2.8618) == pytest.approx(float(mp_tau("2.8618")), rel=1e-13)

    @given(st.floats(min_value=-8, max_value=8, allow_nan=False))
    def test_shift_identity(self, z):
        assert abs(tau(z) - tau(-z) - z) < 1e-12

    def test_positive_and_increasing(self):
        z = np.linspace(-10, 10, 2001)
        vals = np.asarray(tau(z))
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) > 0)

    def test_derivative_is_cdf(self):
        h = 1e-5
        z = np.linspace(-6, 6, 121)
        fd = (np.asarray(tau(z + h)) - np.asarray(tau(z - h))) / (2 * h)
        assert np.max(np.abs(fd - np.asarray(cdf(z)))) < 1e-6

    @pytest.mark.parametrize("zs", [
        [-40.0, -1.5, 0.0, 2.8618, 40.0, 1e154, -1.4e154],
        [np.array(-0.7), np.array(1.5e154)],
        [np.linspace(-40, 40, 8001), np.array([1e154, -1.2e154, 1.4e154, -1e155])],
        [np.linspace(-40, 40, 8001).reshape(63, 127), np.array([[1e154, -1e154], [1.4e154, -1.4e154]])],
    ], ids=["scalar", "0-d", "1-d", "2-d"])
    def test_is_its_definition_bit_for_bit(self, zs):
        # z*Phi(z) + phi(z) through the public functions; past |z| ~ 1.34e154
        # z*z overflows and phi(z) reads 0
        for z in zs:
            got, want = tau(z), z * cdf(z) + pdf(z)
            assert np.shape(got) == np.shape(z)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_cdf_dominates_in_left_tail(self):
        z = np.linspace(1e-3, 10, 500)
        assert np.all(np.asarray(cdf(-z)) > np.asarray(tau(-z)))


class TestOnePhi:
    """Phi has one definition: libm's erfc is reached from ``_cdf`` alone,
    which ``cdf`` and ``tau`` (so every EI) call."""

    def test_erfc_is_reached_from_cdf_only(self):
        found = []
        for path in sorted(Path(gpei.__file__).parent.glob("*.py")):
            found += references(ast.parse(path.read_text(encoding="utf-8")), path.stem, "_erfc")
        assert sorted(found) == ["stdnormal._cdf"]


class TestEiAb:
    def test_zero_exploitation(self):
        for b in (0.1, 0.5, 1.0):
            assert ei_ab(0.0, b) == pytest.approx(b * PHI0, rel=1e-14)

    def test_degenerate_exploration(self):
        assert ei_ab(2.0, 0.0) == 2.0
        assert ei_ab(-2.0, 0.0) == 0.0
        assert ei_ab(0.0, 0.0) == 0.0

    def test_floored_exploration_takes_the_limit(self):
        # b <= SIGMA_FLOOR counts as 0; b*tau(a/b) would differ by at most b*phi(0)
        assert SIGMA_FLOOR == 1e-12
        for a in (-0.3, 0.0, 1e-13, 0.7):
            for b in (1e-300, 1e-13, SIGMA_FLOOR):
                assert ei_ab(a, b) == max(a, 0.0)
                assert abs(ei_ab(a, b) - b * tau(a / b)) <= b * PHI0 + 1e-15 * abs(a)  # + roundoff
            assert ei_ab(a, 2e-12) == 2e-12 * tau(a / 2e-12)

    def test_rejects_non_finite(self):
        for a, b in [(float("nan"), 0.5), (0.0, float("inf")), (float("-inf"), 0.0)]:
            with pytest.raises(ValueError):
                ei_ab(a, b)

    def test_unit_point_oracle(self):
        # oracle: Phi(1) + phi(1) = 1.0833154705876863...
        assert ei_ab(1.0, 1.0) == pytest.approx(float(mp_tau(1)), rel=1e-13)

    def test_matches_scaled_tau(self):
        for a, b in [(-1.3, 0.4), (0.7, 0.9), (2.2, 0.05)]:
            assert ei_ab(a, b) == pytest.approx(b * tau(a / b), rel=1e-13)

    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=0, max_value=1, allow_nan=False),
    )
    def test_dominates_exploitation(self, a, b):
        # 1-ulp slack: for b << |a| the product b*tau(a/b) rounds twice
        assert ei_ab(a, b) >= max(a, 0.0) - 1e-12 * max(1.0, abs(a))

    def test_rejects_negative_exploration(self):
        with pytest.raises(ValueError):
            ei_ab(1.0, -0.1)

    def test_array_broadcast(self):
        a = np.array([-1.0, 0.0, 1.0])
        out = ei_ab(a, 0.5)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.5 * PHI0, rel=1e-14)


FIG3 = BarTauParams(z=1e-3, w=2.0, c3=18.0)


class TestBarTauParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BarTauParams(z=0.0, w=-1.0, c3=5.0)
        with pytest.raises(ValueError):
            BarTauParams(z=0.0, w=3.0, c3=2.0)  # c3 must exceed w
        with pytest.raises(ValueError):
            BarTauParams(z=float("nan"), w=1.0, c3=3.0)

    def test_rho_max(self):
        assert FIG3.rho_max == pytest.approx(2.0 / 18.0)


class TestBarTau:
    def test_boundary_limit(self):
        # at rho -> w/c3 the value tends to (c3/w) * tau((w/c3) * z)
        rho = FIG3.rho_max * (1 - 1e-9)
        expected = (FIG3.c3 / FIG3.w) * tau(FIG3.rho_max * FIG3.z)
        assert bar_tau(rho, FIG3) == pytest.approx(expected, rel=1e-6)

    def test_exceeds_tau_on_figure_slice(self):
        rho = np.linspace(1e-4, FIG3.rho_max * 0.9999, 400)
        vals = np.asarray(bar_tau(rho, FIG3))
        assert np.all(vals - tau(FIG3.z) > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bar_tau(0.0, FIG3)
        with pytest.raises(ValueError):
            bar_tau(FIG3.rho_max, FIG3)
        with pytest.raises(ValueError):
            bar_tau(-0.01, FIG3)


class TestTildeTau:
    def test_reduces_to_bar_tau_at_zero(self):
        p = BarTauParams(z=0.0, w=3.0, c3=296.0)
        for rho in (1e-4, 5e-3, 0.0099):
            assert tilde_tau(rho, 0.0, 3.0, 741.0, 296.0) == pytest.approx(bar_tau(rho, p), rel=1e-14)

    def test_exceeds_tau_on_figure_slice(self):
        rho = np.linspace(1e-5, (3.0 / 296.0) * 0.9999, 300)
        vals = np.asarray(tilde_tau(rho, 0.0, 3.0, 741.0, 296.0))
        assert np.all(vals - tau(0.0) > 0)

    def test_z_derivative_formula(self):
        # d/dz tilde_tau = c1*Phi(c1*z*rho + c3*rho - w) > c1*Phi(-w)
        w, c1, c3 = 3.0, 741.0, 296.0
        h = 1e-7
        for rho in (2e-3, 6e-3, 9e-3):
            for z in (0.1, 0.5, 2.0):
                fd = (tilde_tau(rho, z + h, w, c1, c3) - tilde_tau(rho, z - h, w, c1, c3)) / (2 * h)
                analytic = c1 * cdf(c1 * z * rho + c3 * rho - w)
                assert fd == pytest.approx(analytic, rel=1e-4)
                assert analytic > c1 * cdf(-w)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tilde_tau(0.02, -0.1, 3.0, 741.0, 296.0)  # z < 0
        with pytest.raises(ValueError):
            tilde_tau(0.011, 0.0, 3.0, 741.0, 296.0)  # rho beyond w/c3


class TestTheta:
    def test_limit_at_zero_is_tau_minus_w(self):
        assert theta(FIG3.rho_max * 1e-9, FIG3) == pytest.approx(tau(-FIG3.w), rel=1e-6)

    def test_strictly_decreasing(self):
        rho = np.linspace(1e-4, FIG3.rho_max * 0.9999, 500)
        vals = np.asarray(theta(rho, FIG3))
        assert np.all(np.diff(vals) < 0)

    def test_vanishes_at_rho_bar(self):
        rho_bar = find_rho_bar(FIG3)
        assert abs(theta(rho_bar, FIG3)) < 1e-10


class TestFindRhoBar:
    def test_figure_parameters(self):
        # oracle root of -2*Phi(18.001*rho - 2) + phi(18.001*rho - 2)
        # via mpmath.findroot = 0.023784362625571...
        rho_bar = find_rho_bar(FIG3)
        assert rho_bar is not None
        f = lambda r: -2 * mp.ncdf((mp.mpf("1e-3") + 18) * r - 2) + mp_pdf((mp.mpf("1e-3") + 18) * r - 2)
        oracle = float(mp.findroot(f, mp.mpf("0.024")))
        assert rho_bar == pytest.approx(oracle, abs=1e-12)
        assert 0.018 <= rho_bar <= 0.028

    def test_monotone_case_returns_none(self):
        # theta stays positive when -w*Phi((w/c3) z) + phi((w/c3) z) >= 0,
        # e.g. strongly negative z
        p = BarTauParams(z=-30.0, w=2.0, c3=18.0)
        assert theta_at_rho_max(p) > 0
        assert find_rho_bar(p) is None

    def test_defining_equation_residual(self):
        p = BarTauParams(z=0.0, w=3.0, c3=296.0)
        rho_bar = find_rho_bar(p)
        assert rho_bar is not None
        assert 0 < rho_bar < 3.0 / 296.0
        u = p.c3 * rho_bar - p.w
        assert abs(p.w * cdf(u) - pdf(u)) < 1e-10

    def test_stationarity_of_bar_tau(self):
        for p in (FIG3, BarTauParams(z=0.0, w=3.0, c3=296.0), BarTauParams(z=-0.5, w=2.0, c3=18.0)):
            rho_bar = find_rho_bar(p)
            if rho_bar is None:
                continue
            # curvature grows like c3^2/rho_bar, so scale the step to the root
            h = 1e-5 * rho_bar
            first = (bar_tau(rho_bar + h, p) - bar_tau(rho_bar - h, p)) / (2 * h)
            second = (bar_tau(rho_bar + h, p) - 2 * bar_tau(rho_bar, p) + bar_tau(rho_bar - h, p)) / (h * h)
            assert abs(first) < 1e-6
            assert second > 0
