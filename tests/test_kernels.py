"""Tests for the covariance functions and Gram assembly."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpei import kernels
from gpei.kernels import KernelSpec

SE = KernelSpec("se", 1.0)
M12 = KernelSpec("matern", 1.0, nu=0.5)
M32 = KernelSpec("matern", 1.0, nu=1.5)
M52 = KernelSpec("matern", 1.0, nu=2.5)
ALL = (SE, M12, M32, M52)
B = kernels.GRAM_BLOCK

# dyadic coordinates make the shift-invariance check exact in binary floats
dyadic = st.integers(min_value=-256, max_value=256).map(lambda k: k / 64.0)


class TestKernelSpec:
    def test_rejects_bad_family(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf", 1.0)

    def test_rejects_bad_lengthscale(self):
        with pytest.raises(ValueError):
            KernelSpec("se", 0.0)
        with pytest.raises(ValueError):
            KernelSpec("se", float("nan"))

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            KernelSpec("matern", 1.0, nu=2.0)
        with pytest.raises(ValueError):
            KernelSpec("matern", 1.0)
        with pytest.raises(ValueError):
            KernelSpec("se", 1.0, nu=1.5)


class TestEval:
    def test_unit_diagonal(self):
        x = np.array([0.3, -1.2, 4.0])
        for spec in ALL:
            assert kernels.eval(spec, x, x) == 1.0

    def test_se_at_unit_distance(self):
        # exp(-0.5) = 0.6065306597126334
        assert kernels.eval(SE, np.array([0.0]), np.array([1.0])) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_matern32_at_unit_distance(self):
        # (1 + sqrt(3)) * exp(-sqrt(3)) = 0.4833577245965077
        expected = (1 + math.sqrt(3)) * math.exp(-math.sqrt(3))
        assert kernels.eval(M32, np.array([0.0]), np.array([1.0])) == pytest.approx(expected, rel=1e-15)

    def test_matern12_and_52_at_unit_distance(self):
        assert kernels.eval(M12, np.array([0.0]), np.array([1.0])) == pytest.approx(math.exp(-1.0), rel=1e-15)
        expected = (1 + math.sqrt(5) + 5.0 / 3.0) * math.exp(-math.sqrt(5))
        assert kernels.eval(M52, np.array([0.0]), np.array([1.0])) == pytest.approx(expected, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernels.eval(SE, np.array([0.0]), np.array([0.0, 1.0]))

    def test_range(self):
        rng = np.random.default_rng(0)
        for spec in ALL:
            for _ in range(50):
                x, x2 = rng.normal(size=3), rng.normal(size=3)
                v = kernels.eval(spec, x, x2)
                assert 0.0 < v <= 1.0

    @given(dyadic, dyadic, dyadic)
    def test_shift_invariance_exact(self, x, x2, c):
        for spec in ALL:
            a = kernels.eval(spec, np.array([x]), np.array([x2]))
            b = kernels.eval(spec, np.array([x + c]), np.array([x2 + c]))
            assert a == b

    def test_monotone_decay_along_ray(self):
        dists = np.linspace(0.0, 5.0, 200)
        for spec in ALL:
            vals = [kernels.eval(spec, np.zeros(2), np.array([d, 0.0])) for d in dists]
            assert all(v1 >= v2 for v1, v2 in zip(vals, vals[1:]))


class TestGram:
    def test_single_point(self):
        G = kernels.gram(SE, np.array([[0.5, 0.5]]))
        assert G.shape == (1, 1) and G[0, 0] == 1.0

    def test_duplicate_points(self):
        G = kernels.gram(M32, np.array([[1.0], [1.0]]))
        assert np.array_equal(G, np.ones((2, 2)))

    def test_matches_elementwise_eval(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(6, 3))
        for spec in ALL:
            G = kernels.gram(spec, X)
            brute = np.array([[kernels.eval(spec, X[i], X[j]) for j in range(6)] for i in range(6)])
            assert np.array_equal(G, brute)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 2))
        for spec in ALL:
            G = kernels.gram(spec, X)
            assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("n", sorted({1, B - 1, B, B + 1, 4 * B - 1, 4 * B, 4 * B + 1, 300}))
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("spec", ALL, ids=lambda s: f"{s.family}{s.nu or ''}")
    def test_blocked_equals_one_shot(self, spec, d, n):
        # row blocks of GRAM_BLOCK = B: a partial first block, one full block,
        # a partial second block, and several blocks ending on each side of a
        # block boundary, each against one-shot assembly
        X = np.random.default_rng(n * 10 + d).uniform(size=(n, d))
        G = kernels.gram(spec, X)
        assert np.array_equal(G, kernels._k_of_sq_dist(spec, kernels._sq_dist(X, X)))
        assert np.array_equal(G, kernels.cross_matrix(spec, X, X))
        assert np.array_equal(G, G.T)

    def test_psd_up_to_roundoff(self):
        rng = np.random.default_rng(3)
        for spec in ALL:
            for d in (1, 2, 4):
                X = rng.uniform(size=(64, d))
                eigs = np.linalg.eigvalsh(kernels.gram(spec, X))
                assert eigs.min() >= -1e-8


class TestCross:
    def test_first_entry_on_design_point(self):
        X = np.array([[0.2], [0.8], [0.5]])
        v = kernels.cross_matrix(SE, X, np.array([[0.2]]))[:, 0]
        assert v[0] == 1.0

    def test_far_query_decays(self):
        X = np.array([[0.0], [1.0]])
        v = kernels.cross_matrix(SE, X, np.array([[50.0]]))  # >= 40 lengthscales away
        assert np.all(v < 1e-300)

    def test_matches_elementwise_eval(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(3, 2))
        q = rng.uniform(size=2)
        for spec in ALL:
            v = kernels.cross_matrix(spec, X, q[None, :])[:, 0]
            brute = np.array([kernels.eval(spec, X[i], q) for i in range(3)])
            assert np.array_equal(v, brute)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernels.cross_matrix(SE, np.zeros((2, 2)), np.zeros((1, 3)))

    def test_cross_matrix_consistency(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(4, 2))
        Q = rng.uniform(size=(7, 2))
        M = kernels.cross_matrix(SE, X, Q)
        for j in range(7):
            assert np.array_equal(M[:, j], kernels.cross_matrix(SE, X, Q[j][None, :])[:, 0])
