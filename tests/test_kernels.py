"""Tests for the covariance functions and Gram assembly."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpei import kernels
from gpei.config import ExperimentConfig
from gpei.gp import GridPrior
from gpei.kernels import KernelSpec

SE = KernelSpec("se", 1.0)
M12 = KernelSpec("matern", 1.0, nu=0.5)
M32 = KernelSpec("matern", 1.0, nu=1.5)
M52 = KernelSpec("matern", 1.0, nu=2.5)
ALL = (SE, M12, M32, M52)

# dyadic coordinates make the shift-invariance check exact in binary floats
dyadic = st.integers(min_value=-256, max_value=256).map(lambda k: k / 64.0)


def pair(spec, x, x2):
    """The kernel between two points of equal dimension, through ``kernel_at`` on one pair."""
    return float(kernels.kernel_at(spec, (np.asarray(x, dtype=float) - np.asarray(x2, dtype=float))[:, None])[0])


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
            assert pair(spec, x, x) == 1.0

    def test_se_at_unit_distance(self):
        # exp(-0.5) = 0.6065306597126334
        assert pair(SE, np.array([0.0]), np.array([1.0])) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_matern32_at_unit_distance(self):
        # (1 + sqrt(3)) * exp(-sqrt(3)) = 0.4833577245965077
        expected = (1 + math.sqrt(3)) * math.exp(-math.sqrt(3))
        assert pair(M32, np.array([0.0]), np.array([1.0])) == pytest.approx(expected, rel=1e-15)

    def test_matern12_and_52_at_unit_distance(self):
        assert pair(M12, np.array([0.0]), np.array([1.0])) == pytest.approx(math.exp(-1.0), rel=1e-15)
        expected = (1 + math.sqrt(5) + 5.0 / 3.0) * math.exp(-math.sqrt(5))
        assert pair(M52, np.array([0.0]), np.array([1.0])) == pytest.approx(expected, rel=1e-15)

    def test_range(self):
        rng = np.random.default_rng(0)
        for spec in ALL:
            for _ in range(50):
                x, x2 = rng.normal(size=3), rng.normal(size=3)
                v = pair(spec, x, x2)
                assert 0.0 < v <= 1.0

    @given(dyadic, dyadic, dyadic)
    def test_shift_invariance_exact(self, x, x2, c):
        for spec in ALL:
            a = pair(spec, np.array([x]), np.array([x2]))
            b = pair(spec, np.array([x + c]), np.array([x2 + c]))
            assert a == b

    def test_monotone_decay_along_ray(self):
        dists = np.linspace(0.0, 5.0, 200)
        for spec in ALL:
            vals = [pair(spec, np.zeros(2), np.array([d, 0.0])) for d in dists]
            assert all(v1 >= v2 for v1, v2 in zip(vals, vals[1:]))


def in_place_k_of_sq_dist(spec, buf):
    """The kernel formulas as once evaluated in place in ``buf``: the
    operation order ``kernels._k_of_sq_dist`` keeps."""
    np.sqrt(buf, out=buf)
    buf /= spec.lengthscale  # rho
    if spec.family == "se":
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
    tmp = np.multiply(buf, 5.0 / 3.0)
    tmp *= buf
    buf *= math.sqrt(5.0)  # s
    tmp += np.add(buf, 1.0)
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    buf *= tmp
    return buf


def offset_table(h, torus):
    """The squared distances ``kernel_at`` forms for a grid prior's table of
    non-negative lattice offsets h * i_k, 0 <= i_k <= M_k/2, on ``torus``."""
    sq = np.zeros([M // 2 + 1 for M in torus])
    for p in np.ix_(*[h * np.arange(M // 2 + 1) for M in torus]):
        sq += p * p
    return sq


class TestFormulas:
    """``_k_of_sq_dist`` keeps the bits of the in-place evaluation it replaced."""

    SPECS = ALL + (KernelSpec("se", 0.2), KernelSpec("se", 0.5), KernelSpec("matern", 0.2, nu=0.5),
                   KernelSpec("matern", 0.3, nu=1.5), KernelSpec("matern", 0.2, nu=2.5))
    # the tables of campaign_grid4096's five tori (65^2 to 109^2 entries) and
    # of the four tori a 200-point d = 1 build tries (201 to 289 entries)
    TABLES = [offset_table(1.0 / 63, (M, M)) for M in (128, 144, 162, 192, 216)] + [
        offset_table(1.0 / 199, (M,)) for M in (400, 450, 512, 576)]
    EDGES = np.array([0.0, 1e-300, 5e-324, 1e-20, 1.0, 1e4, 1e300, np.inf])

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family}{s.nu or ''}-{s.lengthscale}")
    def test_equals_in_place_bit_for_bit(self, spec):
        rng = np.random.default_rng(17)
        inputs = self.TABLES + [rng.uniform(0.0, 2.0, size=t.shape) for t in self.TABLES] + [self.EDGES]
        for sq in inputs:
            with np.errstate(invalid="ignore"):  # Matern at inf: inf * 0
                assert kernels._k_of_sq_dist(spec, sq.copy()).tobytes() == in_place_k_of_sq_dist(spec, sq.copy()).tobytes()


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
            brute = np.array([[pair(spec, X[i], X[j]) for j in range(6)] for i in range(6)])
            assert np.array_equal(G, brute)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 2))
        for spec in ALL:
            G = kernels.gram(spec, X)
            assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 127, 128, 129, 300])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("spec", ALL, ids=lambda s: f"{s.family}{s.nu or ''}")
    def test_blocked_equals_one_shot(self, spec, d, n):
        # gram is one-shot assembly, cross_matrix(X, X), at every size, and
        # exactly symmetric
        X = np.random.default_rng(n * 10 + d).uniform(size=(n, d))
        G = kernels.gram(spec, X)
        sq = np.zeros((n, n))
        for k in range(d):
            sq += np.square(np.subtract.outer(X[:, k], X[:, k]))
        assert np.array_equal(G, kernels._k_of_sq_dist(spec, sq))
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
        # from d = 9 on, a pairwise sum (np.sum) would add the squares in another order
        for d in (1, 2, 3, 9):
            rng = np.random.default_rng(5)
            X = rng.uniform(size=(3, d))
            q = rng.uniform(size=d)
            for spec in ALL:
                v = kernels.cross_matrix(spec, X, q[None, :])[:, 0]
                brute = np.array([pair(spec, X[i], q) for i in range(3)])
                assert np.array_equal(v, brute)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernels.cross_matrix(SE, np.zeros((2, 2)), np.zeros((1, 3)))

    def test_rejects_points_without_coordinates(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            kernels.cross_matrix(SE, np.zeros((2, 0)), np.zeros((1, 0)))

    def test_cross_matrix_consistency(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(4, 2))
        Q = rng.uniform(size=(7, 2))
        M = kernels.cross_matrix(SE, X, Q)
        for j in range(7):
            assert np.array_equal(M[:, j], kernels.cross_matrix(SE, X, Q[j][None, :])[:, 0])


class TestOneEvaluationPath:
    """Every kernel value is computed by ``kernels.kernel_at``: the kernel of
    a squared distance is reached from nowhere else."""

    @pytest.fixture
    def callers(self, monkeypatch):
        """The name of the function behind each call of ``_k_of_sq_dist``."""
        names = []
        k_of_sq_dist = kernels._k_of_sq_dist

        def recording(spec, buf):
            names.append(sys._getframe(1).f_code.co_name)
            return k_of_sq_dist(spec, buf)

        monkeypatch.setattr(kernels, "_k_of_sq_dist", recording)
        return names

    @pytest.mark.parametrize(
        "spec, d, m, embedded",
        [(KernelSpec("matern", 0.2, nu=2.5), 2, 16, True), (SE, 1, 40, False)],
        ids=["embedded", "fallback"],
    )
    def test_grid_prior_build(self, callers, spec, d, m, embedded):
        prior = GridPrior.build(ExperimentConfig(d=d, r=1.0, grid_per_dim=m, kernel=spec))
        assert (prior.torus is not None) == embedded
        assert callers and set(callers) == {"kernel_at"}

    def test_gram_cross_matrix(self, callers):
        X = np.random.default_rng(13).uniform(size=(4, 2))
        kernels.gram(M52, X)
        kernels.cross_matrix(M52, X, X[:2])
        assert callers == ["kernel_at"] * 2
