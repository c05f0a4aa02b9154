"""Tests for GP fitting, posterior inference, prior sampling, and info gain.

Posterior oracles are dense linear solves written out directly against the
conjugate formulas, independent of the Cholesky path under test.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack

from gpei import gp, kernels
from gpei.gp import FactorizationError, GridPrior, fit, info_gain, posterior, sample_prior, update, variance_sum_check
from gpei.kernels import KernelSpec

SE = KernelSpec("se", 0.5)


def brute_posterior(kernel, X, y, noise_var, x, jitter=gp.JITTER_START):
    """Dense-inverse evaluation of the conjugate posterior formulas.

    Includes the same diagonal jitter the fitted state carries, so the
    comparison isolates the solve path (Cholesky vs dense inverse).
    """
    K = np.array([[kernels.eval(kernel, xi, xj) for xj in X] for xi in X])
    k = np.array([kernels.eval(kernel, xi, x) for xi in X])
    A_inv = np.linalg.inv(K + (noise_var + jitter) * np.eye(len(X)))
    mu = k @ A_inv @ y
    var = 1.0 - k @ A_inv @ k
    return mu, math.sqrt(max(var, 0.0))


class TestFitAndPosterior:
    def test_empty_state_is_prior(self):
        state = fit(SE, np.zeros((0, 2)), np.zeros(0), 0.0)
        for x in (np.array([0.0, 0.0]), np.array([3.0, -1.0])):
            assert posterior(state, x) == (0.0, 1.0)

    def test_noiseless_interpolation_single_point(self):
        state = fit(SE, np.array([[0.4]]), np.array([1.7]), 0.0)
        mu, sigma = posterior(state, np.array([0.4]))
        assert mu == pytest.approx(1.7, abs=1e-8)
        assert sigma**2 == pytest.approx(0.0, abs=1e-8)

    def test_unit_noise_scalar_case(self):
        # one observation, k(x,x)=1, noise 1: posterior mean y/2, variance 1/2
        state = fit(SE, np.array([[0.0]]), np.array([2.0]), 1.0)
        mu, sigma = posterior(state, np.array([0.0]))
        assert mu == pytest.approx(1.0, rel=1e-9)
        assert sigma == pytest.approx(math.sqrt(0.5), rel=1e-9)

    def test_far_query_reverts_to_prior(self):
        state = fit(SE, np.array([[0.0], [1.0]]), np.array([0.5, -0.5]), 0.01)
        mu, sigma = posterior(state, np.array([40.0]))
        assert abs(mu) < 1e-12
        assert sigma == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_matches_dense_solve_oracle(self, t):
        rng = np.random.default_rng(42 + t)
        for trial in range(20):
            X = rng.uniform(size=(t, 2))
            y = rng.normal(size=t)
            noise_var = float(rng.uniform(0.01, 1.0))
            state = fit(SE, X, y, noise_var)
            x = rng.uniform(size=2)
            mu, sigma = posterior(state, x)
            mu_o, sigma_o = brute_posterior(SE, X, y, noise_var, x)
            assert mu == pytest.approx(mu_o, abs=1e-10)
            assert sigma == pytest.approx(sigma_o, abs=1e-10)

    def test_noiseless_interpolates_many_points(self):
        # values drawn from the prior itself, the noiseless loop's actual regime
        X = np.linspace(0, 1, 12)[:, None]
        y = sample_prior(SE, X, 77).f
        state = fit(SE, X, y, 0.0)
        for i in range(12):
            mu, sigma = posterior(state, X[i])
            assert mu == pytest.approx(y[i], abs=1e-4)
            assert sigma <= 1e-4

    def test_chol_reconstructs_shifted_gram(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(10, 2))
        y = rng.normal(size=10)
        state = fit(SE, X, y, 0.3)
        target = kernels.gram(SE, X) + (0.3 + state.jitter) * np.eye(10)
        rebuilt = state.chol @ state.chol.T
        rel = np.linalg.norm(rebuilt - target) / np.linalg.norm(target)
        assert rel < 1e-8

    def test_posterior_sd_within_unit_interval(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(15, 1))
        state = fit(SE, X, rng.normal(size=15), 0.05)
        _, sigma = gp.posterior_batch(state, rng.uniform(size=(50, 1)))
        assert np.all(sigma >= 0) and np.all(sigma <= 1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit(SE, np.zeros((2, 1)), np.zeros(3), 0.1)
        with pytest.raises(ValueError):
            fit(SE, np.zeros((2, 1)), np.zeros(2), -0.1)
        with pytest.raises(ValueError, match="finite"):
            fit(SE, np.zeros((2, 1)), np.array([0.0, np.inf]), 0.1)


class TestUpdate:
    def test_equivalent_to_refit(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(5, 2))
        y = rng.normal(size=5)
        state = fit(SE, X, y, 0.04)
        x_new, y_new = rng.uniform(size=2), 0.33
        upd = update(state, x_new, y_new)
        ref = fit(SE, np.vstack([X, x_new]), np.append(y, y_new), 0.04)
        probes = rng.uniform(size=(5, 2))
        mu_u, s_u = gp.posterior_batch(upd, probes)
        mu_r, s_r = gp.posterior_batch(ref, probes)
        assert np.allclose(mu_u, mu_r, atol=1e-8)
        assert np.allclose(s_u, s_r, atol=1e-8)

    def test_noiseless_update_interpolates_new_point(self):
        state = fit(SE, np.array([[0.0]]), np.array([0.2]), 0.0)
        upd = update(state, np.array([0.9]), -1.1)
        mu, sigma = posterior(upd, np.array([0.9]))
        assert mu == pytest.approx(-1.1, abs=1e-6)
        assert sigma < 1e-4

    def test_duplicate_point_with_noise_shrinks_variance(self):
        x = np.array([0.5])
        state = fit(SE, x[None, :], np.array([1.0]), 0.5)
        _, sigma_before = posterior(state, x)
        upd = update(state, x, 1.2)
        _, sigma_after = posterior(upd, x)
        assert sigma_after < sigma_before

    def test_equals_fit_on_augmented_data(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(6, 2))
        y = rng.normal(size=6)
        state = fit(SE, X, y, 0.01)
        x_new = rng.uniform(size=2)
        upd = update(state, x_new, -0.7)
        ref = fit(SE, np.vstack([X, x_new]), np.append(y, -0.7), 0.01)
        assert np.array_equal(upd.X, ref.X) and np.array_equal(upd.y, ref.y)
        assert upd.jitter == ref.jitter
        assert np.array_equal(upd.chol, ref.chol) and np.array_equal(upd.alpha, ref.alpha)

    def test_empty_state_goes_through_fit(self):
        empty = fit(SE, np.zeros((0, 1)), np.zeros(0), 0.1)
        upd = update(empty, np.array([0.3]), 1.0)
        ref = fit(SE, np.array([[0.3]]), np.array([1.0]), 0.1)
        assert upd.jitter == ref.jitter
        assert np.array_equal(upd.chol, ref.chol) and np.array_equal(upd.alpha, ref.alpha)

    def test_zero_pivot_falls_back_to_fit(self, monkeypatch):
        # with jitter 1e-18 the factor of one noiseless point is [[1.0]] and a
        # duplicate has pivot 1 + 0 + 1e-18 - 1 = 0 exactly; fit escalates
        # the jitter until the two-point matrix factors, at 1e-15
        monkeypatch.setattr(gp, "JITTER_START", 1e-18)
        x = np.array([0.5])
        state = fit(SE, x[None, :], np.array([0.2]), 0.0)
        assert state.jitter == 1e-18 and state.chol[0, 0] == 1.0
        assert 1.0 + state.noise_var + state.jitter - state.chol[0, 0] ** 2 == 0.0
        upd = update(state, x, 0.4)
        ref = fit(SE, np.array([x, x]), np.array([0.2, 0.4]), 0.0)
        assert upd.jitter == ref.jitter == 1e-15
        probes = np.linspace(0, 1, 7)[:, None]
        for a, b in zip(gp.posterior_batch(upd, probes), gp.posterior_batch(ref, probes)):
            assert np.array_equal(a, b)

    def test_rejects_bad_points(self):
        state = fit(SE, np.zeros((2, 2)) + [[0.0], [1.0]], np.zeros(2), 0.1)
        with pytest.raises(ValueError, match="1-d point"):
            update(state, np.zeros((1, 2)), 0.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            update(state, np.zeros(3), 0.0)
        with pytest.raises(ValueError, match="finite"):
            update(state, np.zeros(2), float("nan"))

    def test_variance_never_grows(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(4, 1))
        state = fit(SE, X, rng.normal(size=4), 0.02)
        probes = rng.uniform(size=(20, 1))
        _, s_before = gp.posterior_batch(state, probes)
        upd = update(state, rng.uniform(size=1), 0.0)
        _, s_after = gp.posterior_batch(upd, probes)
        assert np.all(s_after <= s_before + 1e-10)


class TestSamplePrior:
    def test_deterministic(self):
        grid = np.linspace(0, 1, 30)[:, None]
        s1 = sample_prior(SE, grid, 999)
        s2 = sample_prior(SE, grid, 999)
        assert np.array_equal(s1.f, s2.f)
        assert s1.f_star == s2.f_star and s1.x_star_idx == s2.x_star_idx

    def test_summary_fields(self):
        grid = np.linspace(0, 1, 25)[:, None]
        s = sample_prior(SE, grid, 5)
        assert s.f_star == s.f.min()
        assert s.f[s.x_star_idx] == s.f_star
        assert s.f_abs_max == np.abs(s.f).max()
        assert s.f_abs_max >= abs(s.f_star)

    def test_single_point_moments(self):
        # f on a 1-point grid is standard normal; Monte-Carlo moment check
        prior = GridPrior.build(SE, np.array([[0.0]]))
        vals = np.array([prior.sample(seed).f[0] for seed in range(100_000)])
        assert abs(vals.mean()) < 0.02
        assert 0.98 < vals.var() < 1.02

    def test_empirical_covariance_matches_kernel(self):
        grid = np.array([[0.0], [0.2], [0.45], [0.7], [1.0]])
        prior = GridPrior.build(SE, grid)
        draws = np.array([prior.sample(seed).f for seed in range(10_000)])
        emp = np.cov(draws.T, bias=True)
        expected = kernels.gram(SE, grid)
        assert np.max(np.abs(emp - expected)) < 0.05

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            sample_prior(SE, np.zeros((0, 1)), 0)


FAMILIES = [KernelSpec("se", 0.3), KernelSpec("matern", 0.3, 0.5),
            KernelSpec("matern", 0.3, 1.5), KernelSpec("matern", 0.3, 2.5)]


def small_grid(d):
    axis = np.linspace(0.0, 1.0, 17 if d == 1 else 6)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


class TestGridPrior:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.family}{s.nu or ''}")
    def test_gram_rows_equal_cross_matrix(self, spec, d):
        # the loop reads K[j] where it used to call cross_matrix on grid[j]
        grid = small_grid(d)
        prior = GridPrior.build(spec, grid)
        for j in range(grid.shape[0]):
            assert np.array_equal(prior.K[j], kernels.cross_matrix(spec, grid[j : j + 1], grid)[0])

    @pytest.mark.parametrize("d", [1, 2])
    def test_sample_equals_per_draw_factorization(self, d):
        grid = small_grid(d)
        spec = KernelSpec("matern", 0.3, 2.5)
        prior = GridPrior.build(spec, grid)
        for seed in (0, 7, 2**63 + 5):
            L, _ = gp.chol_with_jitter(kernels.gram(spec, grid))
            f = L @ np.random.default_rng(seed).standard_normal(grid.shape[0])
            s = prior.sample(seed)
            assert np.array_equal(s.f, f)
            assert s.prior is prior and s.grid is prior.grid
            assert np.array_equal(sample_prior(spec, grid, seed).f, f)

    def test_shared_arrays_read_only(self):
        prior = GridPrior.build(KernelSpec("matern", 0.3, 2.5), small_grid(1))
        for a in (prior.K, prior.L):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0


class TestInfoGain:
    def test_empty(self):
        assert info_gain(np.zeros(0), 0.1) == 0.0

    def test_single_unit_entry(self):
        # 0.5 * ln(1 + 1/0.1) = 0.5 * ln(11) = 1.1989476364...
        assert info_gain(np.array([1.0]), 0.1) == pytest.approx(0.5 * math.log(11), rel=1e-14)

    def test_all_zero(self):
        assert info_gain(np.zeros(5), 0.1) == 0.0

    def test_rejects_noiseless(self):
        with pytest.raises(ValueError):
            info_gain(np.array([0.5]), 0.0)
        with pytest.raises(ValueError):
            info_gain(np.array([0.5]), -1.0)

    def test_rejects_out_of_range_sigma(self):
        with pytest.raises(ValueError):
            info_gain(np.array([1.5]), 0.1)


class TestVarianceSum:
    def test_empty(self):
        assert variance_sum_check(np.zeros(0), 0.1) == (0.0, 0.0, True)

    def test_single_unit_entry_is_tight(self):
        lhs, rhs, holds = variance_sum_check(np.array([1.0]), 0.1)
        assert lhs == 1.0
        assert rhs == pytest.approx(1.0, rel=1e-12)  # bound is tight at sigma = 1
        assert holds

    def test_holds_on_random_sequences(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s = rng.uniform(0, 1, size=rng.integers(1, 40))
            noise_var = float(rng.uniform(0.001, 2.0))
            lhs, rhs, holds = variance_sum_check(s, noise_var)
            assert holds and lhs <= rhs + 1e-9


def direct_potrf(K, jitter):
    """LAPACK potrf of K + jitter*I, called on a fresh copy: the library that
    ``chol_with_jitter`` runs, without its buffer handling."""
    c, info = lapack.dpotrf(K + jitter * np.eye(K.shape[0]), lower=1, clean=1)
    assert info == 0
    return c


def read_only(K):
    K = np.array(K, dtype=float)
    K.setflags(write=False)
    return K


class TestFactorization:
    def test_failure_raises_with_diagnostics(self):
        # deliberately indefinite matrix: jitter up to 1e-6 cannot rescue it
        K = read_only([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(FactorizationError, match="jitter"):
            gp.chol_with_jitter(K)
        assert np.array_equal(K, np.array([[1.0, 2.0], [2.0, 1.0]]))  # K never written

    def test_illegal_argument_raises(self, monkeypatch):
        # LAPACK info < 0 names a bad argument; more jitter cannot fix that
        calls = []

        def bad_potrf(a, **kw):
            calls.append(kw)
            return a, -1

        monkeypatch.setattr(gp.lapack, "dpotrf", bad_potrf)
        with pytest.raises(FactorizationError, match="info=-1"):
            gp.chol_with_jitter(np.eye(3))
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.family}{s.nu or ''}")
    def test_equals_direct_potrf(self, spec):
        X = np.random.default_rng(3).uniform(size=(129, 2))
        K = kernels.gram(spec, X)
        L, jitter = gp.chol_with_jitter(K)
        assert np.array_equal(L, direct_potrf(K, jitter))
        assert L.flags.f_contiguous
        assert np.all(np.triu(L, 1) == 0.0)

    def test_read_only_k_unchanged_after_success(self):
        X = np.random.default_rng(4).uniform(size=(129, 2))
        K = kernels.gram(KernelSpec("matern", 0.3, 2.5), X)
        K.flat[::130] += np.random.default_rng(5).uniform(0.0, 0.1, 129)  # distinct diagonal entries
        before = K.copy()
        K.setflags(write=False)
        L, jitter = gp.chol_with_jitter(K)
        assert np.array_equal(K, before)
        assert jitter == gp.JITTER_START
        assert np.array_equal(L, direct_potrf(before, jitter))

    def test_read_only_k_unchanged_after_escalation(self):
        # the second pivot is about 2*jitter - 5e-9: it fails at 1e-10 and 1e-9
        K = read_only([[1.0, 1.0], [1.0, 1.0 - 5e-9]])
        before = K.copy()
        L, jitter = gp.chol_with_jitter(K)
        assert jitter == pytest.approx(1e-8, rel=1e-12)
        assert np.array_equal(K, before)
        assert np.array_equal(L, direct_potrf(before, jitter))

    def test_close_to_numpy_cholesky_when_well_conditioned(self):
        # Matern-1/2 Gram, condition number about 2e4: numpy's own LAPACK
        # build agrees to roundoff (measured max |dL| 5.6e-17)
        X = np.random.default_rng(6).uniform(size=(300, 2))
        K = kernels.gram(KernelSpec("matern", 0.2, 0.5), X)
        L, jitter = gp.chol_with_jitter(K)
        assert np.allclose(L, np.linalg.cholesky(K + jitter * np.eye(300)), rtol=0.0, atol=1e-12)

    def test_near_singular_grid_succeeds(self):
        grid = np.linspace(0, 1, 200)[:, None]
        L, jitter = gp.chol_with_jitter(kernels.gram(KernelSpec("se", 0.2), grid))
        assert L.shape == (200, 200)
        assert jitter <= 1e-6


def traced_peak(fn, *args):
    """Peak bytes numpy and Python allocate while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    # 1024-point 2-d Matern-5/2 grid; budgets in units of one n-by-n float64
    # array.  chol_with_jitter allocates only L, which LAPACK factors in place,
    # so a hidden work copy of K would show in these peaks.
    axis = np.linspace(0.0, 1.0, 32)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    spec = KernelSpec("matern", 0.2, 2.5)
    unit = 8 * 1024**2

    def test_gram(self):
        assert traced_peak(kernels.gram, self.spec, self.grid) <= 1.5 * self.unit

    def test_chol_with_jitter(self):
        K = kernels.gram(self.spec, self.grid)
        assert traced_peak(gp.chol_with_jitter, K) <= 1.1 * self.unit

    def test_grid_prior_build(self):
        assert traced_peak(GridPrior.build, self.spec, self.grid) <= 2.1 * self.unit
