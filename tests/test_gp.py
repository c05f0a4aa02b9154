"""Tests for GP fitting, posterior inference, prior sampling, and info gain.

Posterior oracles are dense linear solves written out directly against the
conjugate formulas, independent of the Cholesky path under test.
"""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gpei
from gpei import config, eiopt, gp, kernels
from gpei.config import ExperimentConfig
from gpei.gp import FactorizationError, GridPrior, fit, info_gain, sample_prior, update, variance_sum_check
from gpei.kernels import KernelSpec
from test_kernels import pair

SE = KernelSpec("se", 0.5)


def brute_posterior(kernel, X, y, noise_var, x, jitter=gp.JITTER_START):
    """Dense-inverse evaluation of the conjugate posterior formulas.

    Includes the same diagonal jitter the fitted state carries, so the
    comparison isolates the solve path (Cholesky vs dense inverse).
    """
    K = np.array([[pair(kernel, xi, xj) for xj in X] for xi in X])
    k = np.array([pair(kernel, xi, x) for xi in X])
    A_inv = np.linalg.inv(K + (noise_var + jitter) * np.eye(len(X)))
    mu = k @ A_inv @ y
    var = 1.0 - k @ A_inv @ k
    return mu, math.sqrt(max(var, 0.0))


def posterior(state, x):
    """Posterior (mean, sd) at the single point x, through ``posterior_batch``."""
    mu, sigma = gp.posterior_batch(state, np.asarray(x, dtype=float)[None, :])
    return float(mu[0]), float(sigma[0])


def test_package_does_not_export_the_reference_engine():
    # the reference engine and the tracer-only wrappers resolve in their
    # modules alone, where the benchmark's tracer wraps them
    spec = importlib.util.spec_from_file_location("tracer", Path(__file__).parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, name in [("gp", "GpState"), ("gp", "fit"), ("gp", "update"), ("gp", "sample_prior"),
                         ("bounds", "empirical_bound_check")]:
        assert not hasattr(gpei, name) and name not in gpei.__all__
        assert callable(getattr(importlib.import_module(f"gpei.{module}"), name))
    for module, name in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"gpei.{module}"), name))
    assert all(hasattr(gpei, name) for name in gpei.__all__)


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
        cfg = ExperimentConfig(grid_per_dim=12, kernel=SE)
        X = cfg.grid_points()
        y = sample_prior(cfg, 77)
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


def draws(prior, count):
    """The draws of seeds 0 .. count - 1.  A row of ``draw`` does not depend on
    the other seeds, so chunks of 10 000 give the per-seed draws bitwise while
    few generators are alive at once."""
    return np.concatenate([prior.draw(range(i, min(i + 10_000, count))) for i in range(0, count, 10_000)])


class TestSamplePrior:
    def test_deterministic(self):
        cfg = ExperimentConfig(grid_per_dim=30, kernel=SE)
        assert np.array_equal(sample_prior(cfg, 999), sample_prior(cfg, 999))

    def test_summary_fields(self):
        # a batch records each objective's minimum f* and its sup-norm
        cfg = ExperimentConfig(grid_per_dim=25, kernel=SE, T=3, trials=4)
        prior = GridPrior.build(cfg)
        seeds = [5, 6, 7, 8]
        batch = eiopt.run_batch(cfg, prior, seeds)
        f = prior.draw(seeds)
        assert np.array_equal(batch.f_star, f.min(axis=1))
        assert np.array_equal(batch.f_abs_max, np.abs(f).max(axis=1))
        assert (batch.f_abs_max >= np.abs(batch.f_star)).all()

    def test_single_point_moments(self):
        # f on a 1-point grid is standard normal; Monte-Carlo moment check
        prior = lattice_prior(SE, 1, 1)
        assert np.array_equal(prior.grid, [[0.0]])
        vals = draws(prior, 100_000)[:, 0]
        assert abs(vals.mean()) < 0.02
        assert 0.98 < vals.var() < 1.02

    def test_empirical_covariance_matches_kernel(self):
        prior = lattice_prior(SE, 1, 5)
        emp = np.cov(draws(prior, 10_000).T, bias=True)
        expected = kernels.gram(SE, prior.grid)
        assert np.max(np.abs(emp - expected)) < 0.05

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="grid_per_dim"):
            sample_prior(ExperimentConfig(grid_per_dim=0, kernel=SE), 0)


FAMILIES = [KernelSpec("se", 0.3), KernelSpec("matern", 0.3, 0.5),
            KernelSpec("matern", 0.3, 1.5), KernelSpec("matern", 0.3, 2.5)]
CONFIG_FAMILIES = [KernelSpec("se", 0.2), KernelSpec("matern", 0.2, 0.5),
                   KernelSpec("matern", 0.2, 1.5), KernelSpec("matern", 0.2, 2.5)]


def lattice(spec, d, m, r=1.0):
    """The config of kernel ``spec`` on the lattice of m points per axis over [0, r]^d."""
    return ExperimentConfig(d=d, r=r, grid_per_dim=m, kernel=spec)


def lattice_prior(spec, d, m):
    """The prior on ``lattice(spec, d, m)``'s grid."""
    return GridPrior.build(lattice(spec, d, m))


# SE with lengthscale r: a config lattice needs a torus too large to pay off
FALLBACK_SE = KernelSpec("se", 1.0)
FALLBACK_M = {1: 40, 2: 20}


def assert_samples_through_factor(spec, d, m):
    """The prior on ``lattice(spec, d, m)`` draws f = L z, bit for bit, with L
    factored per draw from the kernel at the squared lattice offsets."""
    prior = lattice_prior(spec, d, m)
    assert prior.root_eig is None and prior.torus is None
    for seed in (0, 7, 2**63 + 5):
        L, _ = gp.chol_with_jitter(lattice_gram(spec, d, m))
        f = L @ np.random.default_rng(seed).standard_normal(m**d)
        assert np.array_equal(prior.draw([seed])[0], f)
        assert np.array_equal(sample_prior(lattice(spec, d, m), seed), f)


def lattice_gram(spec, d, m, r=1.0):
    """The kernel matrix of ``lattice(spec, d, m, r)``'s grid at its squared
    lattice offsets: per pair of points, (h * |i_k - j_k|)^2 summed in axis
    order, h = r/(m - 1) the spacing and i_k, j_k the points' indices on
    axis k."""
    h = r / (m - 1)
    idx = np.stack(np.unravel_index(np.arange(m**d), (m,) * d), axis=1)
    sq = np.zeros((m**d, m**d))
    for k in range(d):
        offset = h * np.abs(idx[:, None, k] - idx[None, :, k])
        sq += offset * offset
    return kernels._k_of_sq_dist(spec, sq)


def assert_no_kernel_table(prior):
    """The prior holds no n-by-n kernel matrix: it has no ``K`` field, and
    beside the factor L no array with n^2 entries."""
    n = prior.grid.shape[0]
    assert "K" not in {f.name for f in dataclasses.fields(prior)}
    assert all(a.size < n * n for name, a in vars(prior).items() if isinstance(a, np.ndarray) and name != "L")


class TestGridPrior:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("spec", CONFIG_FAMILIES, ids=lambda s: f"{s.family}{s.nu or ''}")
    def test_gram_rows_equal_cross_matrix(self, spec, d):
        # every grid posterior takes its prior covariances from rows():
        # windows of the kernel at lattice offsets, bitwise the kernel at the
        # squared lattice offsets and within 1e-15 of the Gram matrix, on an
        # embedded lattice and on one that falls back; no table at any size
        m, large_m = (200, 600) if d == 1 else (16, 24)
        fallback_m, large_fallback_m = (FALLBACK_M[1], 512) if d == 1 else (FALLBACK_M[2], 24)
        embedded = lattice_prior(spec, d, m)
        fallback = lattice_prior(FALLBACK_SE, d, FALLBACK_M[d])
        large = lattice_prior(spec, d, large_m)
        large_fallback = lattice_prior(FALLBACK_SE, d, large_fallback_m)
        assert embedded.root_eig is not None and fallback.L is not None
        assert large.root_eig is not None and large_fallback.L is not None
        for prior, ref in ((embedded, lattice_gram(spec, d, m)), (large, lattice_gram(spec, d, large_m)),
                           (fallback, lattice_gram(FALLBACK_SE, d, fallback_m)),
                           (large_fallback, lattice_gram(FALLBACK_SE, d, large_fallback_m))):
            assert_no_kernel_table(prior)
            K = kernels.gram(prior.kernel, prior.grid)
            n = K.shape[0]
            assert np.max(np.abs(ref - K)) <= 1e-15
            assert np.array_equal(prior.rows(np.arange(n)), ref)
            for idx in ([0], [n - 1], [7, 0, 7, n // 2]):
                assert np.array_equal(prior.rows(idx), ref[idx])

    @pytest.mark.parametrize("spec,d,m", [(KernelSpec("se", 1.0), 1, 200), (KernelSpec("se", 0.2), 1, 40),
                                          (KernelSpec("se", 1.0), 2, 24)], ids=["se1_200", "se02_40", "se1_24x24"])
    def test_fallback_lattice_rows_are_windows_of_lattice_offsets(self, spec, d, m):
        # a lattice whose torus does not pay off draws through L, and still
        # reads its rows as windows of the kernel at lattice offsets: bitwise
        # the kernel at the squared lattice offsets, within 1e-15 of the Gram
        # matrix (measured at most 3.3e-16)
        prior = lattice_prior(spec, d, m)
        assert prior.root_eig is None and prior.L is not None and prior.points == (m,) * d
        assert_no_kernel_table(prior)
        ref = lattice_gram(spec, d, m)
        assert np.max(np.abs(ref - kernels.gram(spec, prior.grid))) <= 1e-15
        assert np.array_equal(prior.rows(np.arange(m**d)), ref)
        for idx in ([0], [m**d - 1], [7, 0, 7, m // 2]):
            assert np.array_equal(prior.rows(idx), ref[idx])

    def test_no_kernel_row_table_at_any_size(self):
        # rows are windows of lattice offsets, so no prior keeps a table,
        # and the 2 MiB budget is eiopt's, for a lockstep batch's V buffer
        matern = KernelSpec("matern", 0.2, 2.5)
        assert not hasattr(gp, "TABLE_BYTES") and eiopt.BATCH_BYTES == 2 << 20
        for spec, m in ((FALLBACK_SE, 512), (FALLBACK_SE, 513), (matern, 512), (matern, 17)):
            assert_no_kernel_table(lattice_prior(spec, 1, m))

    @pytest.mark.parametrize("spec,d,m", [(FALLBACK_SE, 1, 200), (KernelSpec("se", 0.2), 1, 40),
                                          (FALLBACK_SE, 2, 24)], ids=["se1_200", "se02_40", "se1_24x24"])
    def test_fallback_factor_is_the_factor_of_the_rows(self, spec, d, m):
        # a lattice that falls back factors the matrix whose rows the
        # posterior reads: L L^T is rows(all) plus the jitter, bit for bit
        prior = lattice_prior(spec, d, m)
        L, jitter = gp.chol_with_jitter(prior.rows(np.arange(m**d)))
        assert prior.root_eig is None and prior.jitter == jitter
        assert np.array_equal(prior.L, L)

    @pytest.mark.parametrize("r", [0.7, 3.3])
    @pytest.mark.parametrize("spec,d,m", [(KernelSpec("matern", 0.2, 2.5), 2, 17), (KernelSpec("se", 0.5), 1, 64),
                                          (FALLBACK_SE, 1, FALLBACK_M[1])], ids=["matern_17x17", "se_64", "fallback"])
    def test_prior_is_the_configs_lattice(self, spec, d, m, r):
        # build takes the lattice from the config: its grid_points, read-only,
        # and rows at the spacing r/(m - 1) on each of its d axes
        cfg = lattice(spec, d, m, r)
        prior = GridPrior.build(cfg)
        assert prior.kernel == spec and prior.points == (m,) * d and not prior.grid.flags.writeable
        assert np.array_equal(prior.grid, cfg.grid_points())
        assert np.array_equal(prior.rows(np.arange(m**d)), lattice_gram(spec, d, m, r))

    def test_pickled_embedded_prior_holds_no_window_view(self):
        # a pool worker receives the prior pickled: the 64x64 grid's prior is
        # its grid, its offsets and its half spectrum, well under 1 MiB, and
        # the windows view is rebuilt where rows are read
        prior = lattice_prior(KernelSpec("matern", 0.2, 2.5), 2, 64)
        rows = prior.rows([0, 4095, 2080])
        data = pickle.dumps(prior)
        assert len(data) < 1 << 20
        copy = pickle.loads(data)
        assert "_windows" not in copy.__dict__
        assert np.array_equal(copy.rows([0, 4095, 2080]), rows)
        assert np.array_equal(copy.draw([3]), prior.draw([3]))

    @pytest.mark.parametrize("d", [1, 2])
    def test_sample_equals_per_draw_factorization(self, d):
        assert_samples_through_factor(FALLBACK_SE, d, FALLBACK_M[d])

    def test_wide_se_samples_through_factor(self):
        # SE with lengthscale r needs a torus too large to pay off
        assert_samples_through_factor(KernelSpec("se", 1.0), 1, 200)

    def test_shared_arrays_read_only(self):
        embedded = lattice_prior(KernelSpec("matern", 0.2, 2.5), 1, 200)
        fallback = lattice_prior(FALLBACK_SE, 2, FALLBACK_M[2])
        fallback_1d = lattice_prior(FALLBACK_SE, 1, FALLBACK_M[1])
        assert embedded.L is None and fallback.root_eig is None and fallback_1d.root_eig is None
        for a in (embedded.grid, embedded.k_offsets, embedded.root_eig, embedded._windows[0], fallback.grid,
                  fallback.L, fallback_1d.k_offsets, fallback_1d.L, fallback_1d._windows[0]):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0


def embedded_covariance(prior):
    """The n-by-n covariance of the prior's draws: the circulant covariance
    of its torus, whose eigenvalues are root_eig^2 (the half spectrum), at
    each pair of grid points' index offsets."""
    row = np.fft.irfftn(prior.root_eig**2, s=prior.torus, axes=range(len(prior.torus)))
    idx = np.stack(np.unravel_index(np.arange(prior.grid.shape[0]), prior.points), axis=1)
    offsets = (idx[:, None, :] - idx[None, :, :]) % np.array(prior.torus)
    return row[tuple(np.moveaxis(offsets, -1, 0))]


class TestCirculantEmbedding:
    @pytest.mark.parametrize("d,m", [(1, 200), (2, 16)])
    @pytest.mark.parametrize("spec", CONFIG_FAMILIES, ids=lambda s: f"{s.family}{s.nu or ''}")
    def test_covariance_equals_gram_entrywise(self, spec, d, m):
        prior = lattice_prior(spec, d, m)
        assert prior.L is None and prior.jitter is None and prior.points == (m,) * d
        assert prior.root_eig.min() >= 0.0
        assert np.max(np.abs(embedded_covariance(prior) - kernels.gram(spec, prior.grid))) <= gp.JITTER_START

    @pytest.mark.parametrize("d,m", [(1, 60), (2, 10)])
    def test_monte_carlo_covariance(self, d, m):
        spec = KernelSpec("matern", 0.3, 0.5)
        prior = lattice_prior(spec, d, m)
        assert prior.L is None
        f = draws(prior, 10_000)
        assert np.max(np.abs(f.mean(axis=0))) < 0.05
        assert np.max(np.abs(np.cov(f.T, bias=True) - kernels.gram(spec, prior.grid))) < 0.05

    def test_sample_is_the_fft_of_the_seed_stream(self):
        # f = C^(1/2) eta on the grid, bit for bit: eta the seed's first N
        # standard normals, C the circulant matrix of the torus row (the
        # kernel at offsets h * min(j, M - j) per axis), its square root
        # applied by a real FFT each way with the eigenvalues' half spectrum,
        # which is the complex FFT's left half (the row is real and even)
        spec = KernelSpec("matern", 0.2, 2.5)
        prior = lattice_prior(spec, 2, 16)
        M1, M2 = prior.torus
        j1, j2 = np.minimum(np.arange(M1), M1 - np.arange(M1)), np.minimum(np.arange(M2), M2 - np.arange(M2))
        h = 1.0 / 15
        row = kernels._k_of_sq_dist(spec, (h * j1[:, None]) ** 2 + (h * j2[None, :]) ** 2)
        eig = np.fft.rfftn(row).real
        full = np.fft.fftn(row)
        assert np.max(np.abs(full.real[:, : M2 // 2 + 1] - eig)) <= 1e-14 and np.max(np.abs(full.imag)) <= 1e-14
        eta = np.random.default_rng(11).standard_normal(M1 * M2).reshape(M1, M2)
        f = np.fft.irfftn(np.sqrt(np.maximum(eig, 0.0)) * np.fft.rfftn(eta), s=(M1, M2), axes=(0, 1))
        assert np.array_equal(prior.draw([11])[0], f[:16, :16].ravel())

    @pytest.mark.parametrize("torus,points", [((10,), (6,)), ((9, 16), (5, 9)), ((6, 8, 10), (4, 5, 6))])
    def test_corner_inverse_equals_the_full_irfftn(self, torus, points):
        # the draws transform back only as far as the grid's corner, bit for
        # bit the corner of numpy's full irfftn, with a batch axis in front
        eta = np.random.default_rng(9).standard_normal((3, *torus))
        axes = tuple(range(1, len(torus) + 1))
        w = np.fft.rfftn(eta, axes=axes)
        full = np.fft.irfftn(w, s=torus, axes=axes)[(slice(None), *(slice(0, m) for m in points))]
        assert np.array_equal(gp._irfftn_corner(w, torus, points), full)

    @pytest.mark.parametrize("spec,d,m", [
        (KernelSpec("se", 0.2), 1, 200),
        (KernelSpec("matern", 0.2, 2.5), 2, 16),
        (FALLBACK_SE, 1, FALLBACK_M[1]),
    ], ids=["embedded_1d", "embedded_2d", "fallback"])
    def test_draw_rows_do_not_depend_on_the_batch(self, spec, d, m):
        prior = lattice_prior(spec, d, m)
        seeds = list(range(100, 143))
        rows = prior.draw(seeds)
        assert rows.shape == (43, m**d) and rows.flags.c_contiguous
        for size in (1, 2, 7):
            assert np.array_equal(prior.draw(seeds[3 : 3 + size]), rows[3 : 3 + size])
        for b in (0, 20, 42):
            assert np.array_equal(prior.draw([seeds[b]])[0], rows[b])

    @pytest.mark.parametrize("spec,d,m", [
        (KernelSpec("matern", 0.2, 2.5), 2, 16),
        (KernelSpec("se", 1.0), 1, 200),
    ], ids=["embedded", "fallback"])
    def test_draw_of_no_seeds_is_empty(self, spec, d, m):
        f = lattice_prior(spec, d, m).draw([])
        assert f.shape == (0, m**d) and f.dtype == np.float64

    def test_torus_is_smallest_5_smooth_when_it_suffices(self):
        # Matern-1/2 on a 1-d grid embeds at the first length >= 2(m - 1)
        prior = lattice_prior(KernelSpec("matern", 0.2, 0.5), 1, 200)
        assert prior.torus == (400,) and prior.root_eig.shape == (201,)
        assert gp._smooth5(398) == 400 and gp._smooth5(597) == 600 and gp._smooth5(1) == 1

    def test_torus_never_costs_more_than_the_matvec(self):
        # 17 points: the 32-point torus's FFT (800 flops) exceeds 2*17^2
        spec = KernelSpec("matern", 0.3, 0.5)
        assert lattice_prior(spec, 1, 17).root_eig is None
        assert lattice_prior(spec, 1, 60).root_eig is not None


GRID4096 = (KernelSpec("matern", 0.2, 2.5), 2, 64)

# d = 1, 2, 3 at m = 1 (torus (1,)*d), m = 2 (no torus pays off at d <= 2;
# (2, 2, 2) at d = 3) and one larger m, for SE and every Matern nu at
# lengthscales that embed at the first torus (Matern-1/2 on 200 points),
# after several rejected tori, or not at all (SE and Matern-5/2 with
# lengthscale 0.5 on 32x32), and campaign_grid4096's lattice
SEARCH_LATTICES = [
    (spec, d, m)
    for d, sizes in ((1, (1, 2, 200)), (2, (1, 2, 32)), (3, (1, 2, 10)))
    for m in sizes
    for spec in [KernelSpec("se", 0.2), KernelSpec("se", 0.5)]
    + [KernelSpec("matern", ell, nu) for nu in (0.5, 1.5, 2.5) for ell in (0.2, 0.3, 0.5)]
] + [GRID4096]


def search_id(case):
    spec, d, m = case
    return f"{spec.family}{spec.nu or ''}_l{spec.lengthscale}_{'x'.join([str(m)] * d)}"


def torus_row(spec, torus, h):
    """The first row of the circulant on ``torus``: the kernel at the offsets
    h * min(j, M - j) per axis, through ``kernels.kernel_at``."""
    return kernels.kernel_at(spec, np.ix_(*[h * np.minimum(np.arange(M), M - np.arange(M)) for M in torus]))


def reference_search(spec, d, m):
    """(k_offsets, root_eig, torus) of ``lattice(spec, d, m)`` by the search
    that evaluates each torus row on its own and takes its full rfftn: the
    kernel at the signed lattice offsets, then the first torus whose rfftn
    minimum is >= -JITTER_START and whose spectrum clipped at 0 reproduces
    the grid's first kernel row to within JITTER_START, every axis growing
    to the next 5-smooth length >= 9/8 M, and (None, None) for the torus
    part once its FFT would cost more than the 2 n^2 flops of L z."""
    h = 1.0 / (m - 1) if m > 1 else 0.0
    k_offsets = kernels.kernel_at(spec, np.ix_(*[h * np.arange(1 - m, m)] * d))
    k0 = k_offsets[(slice(m - 1, None),) * d].ravel()
    torus = (gp._smooth5(max(1, 2 * (m - 1))),) * d
    while 5 * math.prod(torus) * math.log2(math.prod(torus)) <= 2 * k0.size**2:
        eig = np.fft.rfftn(torus_row(spec, torus, h)).real
        if eig.min() >= -gp.JITTER_START:
            np.maximum(eig, 0.0, out=eig)
            if np.max(np.abs(gp._irfftn_corner(eig, torus, (m,) * d).ravel() - k0)) <= gp.JITTER_START:
                return k_offsets, np.sqrt(eig), torus
        torus = tuple(gp._smooth5(M + -(-M // 8)) for M in torus)
    return k_offsets, None, None


class TestTorusSearch:
    """``GridPrior.build`` gathers every torus row from a table of the kernel
    at non-negative lattice offsets and rejects tori on their axis spectrum
    before any rfftn; it still finds what the per-torus search finds, bit
    for bit."""

    @pytest.mark.parametrize("spec,d,m", SEARCH_LATTICES, ids=map(search_id, SEARCH_LATTICES))
    def test_build_equals_the_per_torus_search(self, spec, d, m):
        prior = lattice_prior(spec, d, m)
        k_offsets, root_eig, torus = reference_search(spec, d, m)
        assert prior.torus == torus
        assert np.array_equal(prior.k_offsets, k_offsets)
        if torus is None:
            L, jitter = gp.chol_with_jitter(lattice_gram(spec, d, m))
            assert prior.root_eig is None and prior.jitter == jitter
            assert np.array_equal(prior.L, L)
        else:
            assert prior.L is None and prior.jitter is None
            assert np.array_equal(prior.root_eig, root_eig)

    @pytest.mark.parametrize("spec,d,m", SEARCH_LATTICES, ids=map(search_id, SEARCH_LATTICES))
    def test_axis_check_rejects_only_what_the_full_spectrum_rejects(self, monkeypatch, spec, d, m):
        # every torus the axis check rejects has a whole d-dimensional
        # spectrum whose minimum is below -JITTER_START, and the margin is
        # 10^3 times the gap between an axis eigenvalue from the rfftn and
        # the same eigenvalue from the axis check
        checked = []
        axis_spectrum = gp._axis_spectrum

        def recording(table, fold):
            axis = axis_spectrum(table, fold)
            checked.append((tuple(map(len, fold)), axis))
            return axis

        monkeypatch.setattr(gp, "_axis_spectrum", recording)
        lattice_prior(spec, d, m)
        assert d > 1 or not checked
        h = 1.0 / (m - 1) if m > 1 else 0.0
        for torus, axis in checked:
            row = torus_row(spec, torus, h)
            margin = gp.AXIS_MARGIN * axis[0]
            gap = np.max(np.abs(np.fft.rfftn(row).real[(slice(len(axis)),) + (0,) * (d - 1)] - axis))
            assert margin >= 1e3 * gap
            if axis.min() < -gp.JITTER_START - margin:
                assert np.fft.fftn(row).real.min() < -gp.JITTER_START

    def test_config_bounds_every_offset_the_search_evaluates(self, monkeypatch):
        # the search's tori on every lattice within the grid cap, every torus
        # rejected: the sum of squared offsets at the last torus within the
        # FFT-cost cap (the first one even past it), in units of r^2, stays
        # below config._MAX_LATTICE_OFFSET^2
        smooth5 = functools.lru_cache(None)(gp._smooth5)
        worst = (0.0, None)
        for d in range(1, 13):
            for m in range(2, 4097):
                if m**d > config.MAX_GRID_SIZE:
                    break
                torus = last = (smooth5(2 * (m - 1)),) * d
                while 5 * (size := math.prod(torus)) * math.log2(size) <= 2 * m ** (2 * d):
                    last, torus = torus, tuple(smooth5(M + -(-M // 8)) for M in torus)
                worst = max(worst, (d * (last[0] // 2) ** 2 / (m - 1) ** 2, (d, m, last)))
        assert worst[1] == (1, 4041, (354294,)) and 1922 < worst[0] < config._MAX_LATTICE_OFFSET**2
        # the search itself reaches that torus on that lattice
        tables, offset_table = [], gp._offset_table
        monkeypatch.setattr(gp, "_offset_table", lambda *args: tables.append(args[1]) or offset_table(*args))
        monkeypatch.setattr(gp, "_irfftn_corner", lambda w, torus, points: np.full(points, np.nan))
        assert gp._circulant_eigenvalues(SE, (4041,), (1 / 4040,))[1] is None
        assert tables[-1] == (354294,)

    def test_grid4096_build_work(self, monkeypatch):
        # campaign_grid4096's lattice tries five tori and accepts 216x216:
        # fewer than 50 000 kernel entries (per-torus rows: 163 013) and
        # one rfftn (per torus: 5), the four tori before it rejected on
        # their axis spectrum
        entries, transforms = [], []
        k_of_sq_dist, rfftn = kernels._k_of_sq_dist, np.fft.rfftn

        def counting_kernel(spec, buf):
            entries.append(buf.size)
            return k_of_sq_dist(spec, buf)

        def counting_rfftn(*args, **kwargs):
            transforms.append(args[0].shape)
            return rfftn(*args, **kwargs)

        monkeypatch.setattr(kernels, "_k_of_sq_dist", counting_kernel)
        monkeypatch.setattr(np.fft, "rfftn", counting_rfftn)
        prior = lattice_prior(*GRID4096)
        assert prior.torus == (216, 216)
        assert sum(entries) < 50_000
        assert transforms == [(216, 216)]


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

    def test_finite_at_the_largest_noise_variance(self):
        # 2/log1p(1/1e308) alone overflows; the bound itself stays near lhs
        lhs, rhs, holds = variance_sum_check(np.array([1.0, 0.5]), 1e308)
        assert rhs == pytest.approx(lhs, rel=1e-12) and holds

    def test_holds_on_random_sequences(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s = rng.uniform(0, 1, size=rng.integers(1, 40))
            noise_var = float(rng.uniform(0.001, 2.0))
            lhs, rhs, holds = variance_sum_check(s, noise_var)
            assert holds and lhs <= rhs + 1e-9


def direct_potrf(K, jitter):
    """numpy's Cholesky (LAPACK potrf in numpy's build) of K + jitter*I, called
    on a fresh copy: for n <= ``gp.CHOL_BLOCK`` the one call ``chol_with_jitter``
    makes, without its buffer handling."""
    return np.linalg.cholesky(K + jitter * np.eye(K.shape[0]))


def assert_factor(L, K, jitter):
    """L is lower triangular; for n <= ``gp.CHOL_BLOCK`` it equals
    ``direct_potrf`` bit for bit, and above that L L^T reproduces K + jitter*I
    within n ulps of 1, Cholesky's backward-error bound for a matrix with unit
    diagonal (Higham, Accuracy and Stability of Numerical Algorithms, 10.1)."""
    n = K.shape[0]
    assert np.all(np.triu(L, 1) == 0.0)
    if n <= gp.CHOL_BLOCK:
        assert np.array_equal(L, direct_potrf(K, jitter))
    else:
        err = np.max(np.abs(L @ L.T - (K + jitter * np.eye(n))))
        assert err <= n * np.finfo(float).eps


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

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.family}{s.nu or ''}")
    def test_equals_direct_potrf(self, spec):
        # one block (n = CHOL_BLOCK) is numpy's factor bit for bit; three
        # blocks, the last one partial, reproduce K
        X = np.random.default_rng(3).uniform(size=(2 * gp.CHOL_BLOCK + 1, 2))
        for n in (gp.CHOL_BLOCK, X.shape[0]):
            K = kernels.gram(spec, X[:n])
            L, jitter = gp.chol_with_jitter(K)
            assert_factor(L, K, jitter)

    @pytest.mark.parametrize("K", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[1.0, 0.0], [0.0, np.inf]],
        [[1.0, np.inf], [np.inf, 1.0]],
        [[1.0, -np.inf], [-np.inf, 1.0]],
    ], ids=["nan_diagonal", "nan_off_diagonal", "inf_diagonal", "inf_off_diagonal", "minus_inf_off_diagonal"])
    def test_non_finite_k_raises_before_any_attempt(self, K):
        # no pivot flags a NaN, +inf on the diagonal factors to a non-finite
        # L, and an infinite off-diagonal entry would only exhaust the jitter
        K = read_only(K)
        before = K.copy()
        with pytest.raises(ValueError, match="finite"):
            gp.chol_with_jitter(K)
        assert np.array_equal(K, before, equal_nan=True)

    def test_one_nan_pair_in_a_large_k_raises(self):
        K = np.eye(100)
        K[3, 70] = K[70, 3] = np.nan
        before = K.copy()
        K = read_only(K)
        with pytest.raises(ValueError, match="finite"):
            gp.chol_with_jitter(K)
        assert np.array_equal(K, before, equal_nan=True)

    def test_read_only_k_unchanged_after_success(self):
        X = np.random.default_rng(4).uniform(size=(129, 2))
        K = kernels.gram(KernelSpec("matern", 0.3, 2.5), X)
        K.flat[::130] += np.random.default_rng(5).uniform(0.0, 0.1, 129)  # distinct diagonal entries
        before = K.copy()
        K.setflags(write=False)
        L, jitter = gp.chol_with_jitter(K)
        assert np.array_equal(K, before)
        assert jitter == gp.JITTER_START
        assert_factor(L, before, jitter)

    def test_read_only_k_unchanged_after_escalation(self):
        # the second pivot is about 2*jitter - 5e-9: it fails at 1e-10 and 1e-9
        K = read_only([[1.0, 1.0], [1.0, 1.0 - 5e-9]])
        before = K.copy()
        L, jitter = gp.chol_with_jitter(K)
        assert jitter == pytest.approx(1e-8, rel=1e-12)
        assert np.array_equal(K, before)
        assert np.array_equal(L, direct_potrf(before, jitter))

    def test_close_to_numpy_cholesky_when_well_conditioned(self):
        # Matern-1/2 Gram, condition number about 2e4: the five-block factor
        # agrees with numpy's one-call factor to roundoff (measured max |dL|
        # 4.5e-15)
        X = np.random.default_rng(6).uniform(size=(300, 2))
        K = kernels.gram(KernelSpec("matern", 0.2, 0.5), X)
        L, jitter = gp.chol_with_jitter(K)
        assert np.allclose(L, np.linalg.cholesky(K + jitter * np.eye(300)), rtol=0.0, atol=1e-12)

    def test_near_singular_grid_succeeds(self):
        grid = np.linspace(0, 1, 200)[:, None]
        L, jitter = gp.chol_with_jitter(kernels.gram(KernelSpec("se", 0.2), grid))
        assert L.shape == (200, 200)
        assert jitter <= 1e-6


# The field that names what an attribute, a name or an imported alias refers to.
_REFERENCE_FIELD = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}


def references(node, scope: str, name: str):
    """The dotted scope (module, class, function) of every reference to
    ``name`` in the syntax tree under ``node``."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = f"{scope}.{node.name}"
    if getattr(node, _REFERENCE_FIELD.get(type(node), ""), None) == name:
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from references(child, scope, name)


class TestOneDrawPath:
    """``chol_with_jitter`` factors a fallback prior's K and the reference
    ``fit``'s Gram matrix, and nothing else: beside ``GridPrior.draw`` no
    second path draws jointly Gaussian values."""

    def test_chol_with_jitter_is_reached_from_build_and_fit_only(self):
        found = []
        for path in sorted(Path(gpei.__file__).parent.glob("*.py")):
            found += references(ast.parse(path.read_text(encoding="utf-8")), path.stem, "chol_with_jitter")
        assert sorted(found) == ["gp.GridPrior.build", "gp.fit"]


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
    # array.  chol_with_jitter allocates L and factors it in place, one
    # 64-column block at a time, so beside L it holds about one (n x 64)
    # panel (measured peak 1.08 units);
    # np.linalg.cholesky(K + jitter*I) would hold two n-by-n arrays.  The
    # embedded prior evaluates the kernel at non-negative lattice offsets,
    # 41x41 at most, gathers each torus row from them (64x64 and 72x72 fail
    # on their axis spectrum, 81x81 is transformed and accepted) and keeps
    # the kernel at 63x63 signed lattice offsets, nothing n-by-n; SE with
    # lengthscale 0.5 falls back to gathering K from the windows of its
    # offsets and factoring it into L, and keeps L only.  On the 64x64
    # lattice the build's peak is the accepted 216x216 torus row and its
    # rfftn (measured 1.27 MiB; 1.65 MiB when each torus row was evaluated
    # on its own).
    config = lattice(KernelSpec("matern", 0.2, 2.5), 2, 32)
    fallback = lattice(KernelSpec("se", 0.5), 2, 32)
    unit = 8 * 1024**2

    def test_chol_with_jitter(self):
        K = kernels.gram(self.config.kernel, self.config.grid_points())
        assert traced_peak(gp.chol_with_jitter, K) <= 1.1 * self.unit

    def test_grid_prior_build(self):
        assert traced_peak(GridPrior.build, self.config) <= 0.1 * self.unit

    def test_grid_prior_build_grid4096(self):
        assert traced_peak(GridPrior.build, lattice(*GRID4096)) <= 1.45 * 1024**2

    def test_grid_prior_build_fallback(self):
        assert GridPrior.build(self.fallback).L is not None
        assert traced_peak(GridPrior.build, self.fallback) <= 2.1 * self.unit
