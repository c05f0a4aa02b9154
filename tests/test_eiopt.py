"""Tests for the acquisition function and the optimization loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpei import eiopt, gp
from gpei.config import ExperimentConfig
from gpei.eiopt import argmax_ei, ei, improvement, run
from gpei.gp import GridPrior, fit, sample_prior
from gpei.kernels import KernelSpec
from gpei.rng import trial_seed
from gpei.stdnormal import ei_ab, ei_unchecked, tau

SE = KernelSpec("se", 0.5)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestImprovement:
    def test_no_improvement(self):
        assert improvement(1.0, 2.0) == 0.0

    def test_positive_improvement(self):
        assert improvement(2.0, 1.5) == 0.5

    @given(finite)
    def test_boundary(self, y):
        assert improvement(y, y) == 0.0

    @given(finite, finite)
    def test_nonnegative(self, y_plus, f_x):
        assert improvement(y_plus, f_x) >= 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            improvement(float("nan"), 0.0)


class TestEi:
    def test_z_zero_case(self):
        # empty state: posterior is (0, 1); with y_plus = 0 the value is tau(0)
        state = fit(SE, np.zeros((0, 1)), np.zeros(0), 0.0)
        assert ei(state, 0.0, np.array([0.3])) == pytest.approx(tau(0.0), rel=1e-13)

    def test_exploitation_limit(self):
        # noiseless observed point: sigma ~ 0 there, EI = max(y_plus - mu, 0)
        state = fit(SE, np.array([[0.4]]), np.array([-1.0]), 0.0)
        val = ei(state, 0.5, np.array([0.4]))
        assert val == pytest.approx(1.5, abs=1e-6)
        assert ei(state, -2.0, np.array([0.4])) == 0.0

    def test_deep_negative_z(self):
        # prior point with incumbent 3 below the mean: tau(-3) = 0.00038215...
        state = fit(SE, np.zeros((0, 1)), np.zeros(0), 0.0)
        assert ei(state, -3.0, np.array([0.0])) == pytest.approx(float(tau(-3.0)), rel=1e-12)

    def test_matches_scaled_tau_identity(self):
        rng = np.random.default_rng(0)
        state = fit(SE, rng.uniform(size=(4, 1)), rng.normal(size=4), 0.09)
        for _ in range(20):
            x = rng.uniform(size=1)
            y_plus = float(rng.normal())
            mu, sigma = gp.posterior(state, x)
            expected = sigma * tau((y_plus - mu) / sigma) if sigma > 1e-12 else max(y_plus - mu, 0.0)
            assert ei(state, y_plus, x) == pytest.approx(expected, rel=1e-12)

    def test_dominates_gap_and_nonnegative(self):
        rng = np.random.default_rng(1)
        state = fit(SE, rng.uniform(size=(3, 1)), rng.normal(size=3), 0.04)
        for _ in range(50):
            x = rng.uniform(size=1)
            y_plus = float(rng.normal())
            mu, _ = gp.posterior(state, x)
            val = ei(state, y_plus, x)
            assert val >= 0.0
            assert val >= (y_plus - mu) - 1e-12


class TestArgmaxEi:
    def test_single_candidate(self):
        state = fit(SE, np.zeros((0, 1)), np.zeros(0), 0.0)
        idx, x = argmax_ei(state, 0.0, np.array([[0.7]]))
        assert idx == 0 and x[0] == 0.7

    def test_identical_candidates_tie_break(self):
        state = fit(SE, np.zeros((0, 1)), np.zeros(0), 0.0)
        idx, _ = argmax_ei(state, 0.0, np.full((8, 1), 0.25))
        assert idx == 0

    def test_matches_exhaustive_rescan(self):
        rng = np.random.default_rng(2)
        state = fit(SE, rng.uniform(size=(6, 1)), rng.normal(size=6), 0.01)
        candidates = rng.uniform(size=(50, 1))
        y_plus = -0.3
        idx, _ = argmax_ei(state, y_plus, candidates)
        brute = max(range(50), key=lambda j: ei(state, y_plus, candidates[j]))
        assert idx == brute

    def test_rejects_empty(self):
        state = fit(SE, np.zeros((0, 1)), np.zeros(0), 0.0)
        with pytest.raises(ValueError):
            argmax_ei(state, 0.0, np.zeros((0, 1)))


class TestTieRule:
    def test_relative_tolerance(self):
        top = 0.75
        assert eiopt.lowest_argmax(np.array([0.1, top * (1 - 0.9e-12), top])) == 1
        assert eiopt.lowest_argmax(np.array([0.1, top * (1 - 1.1e-12), top])) == 2
        assert eiopt.lowest_argmax(np.array([top, 0.1, top])) == 0
        assert eiopt.lowest_argmax(np.zeros(4)) == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_row_raises(self, bad):
        vals = np.zeros((3, 5))
        vals[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            eiopt.lowest_argmax(vals)

    def test_mirror_pair_on_symmetric_grid(self):
        # 25 points symmetric about the observed centre: the EI of each mirror
        # pair is equal in exact arithmetic; on this grid the end pair differs
        # by one ulp, which decides a plain np.argmax differently per orientation
        grid = np.linspace(0.1, 0.7, 25)[:, None]
        kernel = KernelSpec("se", 0.2)
        state = fit(kernel, grid[12:13], np.array([0.3]), 0.0)
        idx, x = argmax_ei(state, 0.3, grid)
        idx_rev, x_rev = argmax_ei(state, 0.3, grid[::-1])
        _, _, vals = eiopt.ei_batch(state, 0.3, grid)
        assert vals[idx] != vals[24 - idx]  # the roundoff the rule absorbs
        assert idx == 0 and idx_rev == 0
        assert x[0] == grid[0, 0] and x_rev[0] == grid[24, 0]


def tiny_config(**kw):
    base = dict(d=1, grid_per_dim=25, kernel=KernelSpec("se", 0.2), noise_sd=0.05,
                delta=0.1, T=12, T0=1, trials=2, seed=101, theorem="thm46")
    base.update(kw)
    return ExperimentConfig(**base)


def run_once(config, seed=5):
    sample = sample_prior(config.kernel, config.grid_points(), seed)
    return sample, run(config, sample, seed)


class TestRun:
    def test_single_point_grid(self):
        cfg = tiny_config(grid_per_dim=1, T=8, noise_sd=0.1)
        sample, trace = run_once(cfg)
        assert len(trace.rows) == 7
        for row in trace.rows:
            assert row.x_next_idx == 0
            assert row.r0_t == 0.0

    def test_noiseless_identities(self):
        cfg = tiny_config(noise_sd=0.0)
        sample, trace = run_once(cfg)
        visited = set(trace.init_indices)
        for row in trace.rows:
            # y_plus equals the true minimum over visited points so far
            assert row.y_plus == pytest.approx(min(sample.f[i] for i in visited), abs=1e-12)
            assert row.r_t == pytest.approx(row.r0_t, abs=1e-12)
            assert row.r_t >= 0.0
            visited.add(row.x_next_idx)

    def test_determinism_bit_identical(self):
        cfg = tiny_config()
        _, t1 = run_once(cfg, seed=9)
        _, t2 = run_once(cfg, seed=9)
        assert t1 == t2

    def test_different_seeds_differ(self):
        cfg = tiny_config()
        _, t1 = run_once(cfg, seed=9)
        _, t2 = run_once(cfg, seed=10)
        assert t1 != t2

    def test_y_plus_monotone_and_r0_nonnegative(self):
        cfg = tiny_config(T=20)
        _, trace = run_once(cfg)
        y_plus = [row.y_plus for row in trace.rows]
        assert all(a >= b for a, b in zip(y_plus, y_plus[1:]))
        assert all(row.r0_t >= 0 for row in trace.rows)

    def test_r_t_bounded_below_by_noise(self):
        cfg = tiny_config(T=20, noise_sd=0.3)
        sample, trace = run_once(cfg)
        # r_t = y_plus - f_star is bounded below by -2 * max |noise| since
        # y_plus >= f_star + min eps; recover eps magnitudes from y - f
        eps_max = max(abs(row.y_next - row.f_next) for row in trace.rows)
        assert all(row.r_t >= -2 * eps_max - 1e-12 for row in trace.rows)

    def test_initial_indices_reproducible(self):
        cfg = tiny_config(T0=3, T=10)
        sample, trace = run_once(cfg, seed=5)
        from gpei.rng import derive_stream_seed

        rng_init = np.random.default_rng(derive_stream_seed(5, eiopt.INIT_STREAM))
        expected = [int(i) for i in rng_init.integers(0, cfg.grid_size, size=cfg.T0)]
        assert list(trace.init_indices) == expected

    def test_stopping_threshold(self):
        cfg_free = tiny_config(T=12)
        _, free = run_once(cfg_free)
        floor = min(row.ei_next for row in free.rows)
        ceiling = max(row.ei_next for row in free.rows)
        cfg_stop = dataclasses.replace(cfg_free, kappa=float(ceiling))
        _, stopped = run_once(cfg_stop)
        assert stopped.stopped_early
        # the threshold row is still observed and recorded, matching the loop
        # order: acquire, observe, update the posterior, then test the criterion
        assert stopped.rows[-1].ei_next < ceiling or len(stopped.rows) == 1

    def test_grid_mismatch_rejected(self):
        cfg = tiny_config()
        other = dataclasses.replace(cfg, grid_per_dim=30)
        sample = sample_prior(cfg.kernel, other.grid_points(), 5)
        with pytest.raises(ValueError):
            run(cfg, sample, 5)


def replay(config, seed):
    """The loop's trace plus its observation sequence: (init indices, init y, rows)."""
    sample, trace = run_once(config, seed)
    from gpei.rng import derive_stream_seed

    rng_noise = np.random.default_rng(derive_stream_seed(seed, eiopt.NOISE_STREAM))
    y0 = [float(sample.f[j] + config.noise_sd * rng_noise.standard_normal()) for j in trace.init_indices]
    return list(trace.init_indices), y0, trace.rows


class TestGridPosterior:
    @pytest.mark.parametrize("noise_sd,tol", [(0.05, 1e-10), (0.0, 1e-6)])
    def test_loop_moments_match_refit(self, noise_sd, tol):
        # default config: 200-point grid, SE, T=60; at every step the moments
        # the loop used equal a fresh fit + posterior_batch on the whole grid
        cfg = dataclasses.replace(ExperimentConfig(seed=11), noise_sd=noise_sd)
        grid = cfg.grid_points()
        for seed in (3, 4):
            obs_idx, y, rows = replay(cfg, seed)
            post = eiopt.GridPosterior(GridPrior.build(cfg.kernel, grid), [obs_idx], [y], cfg.noise_var, cfg.T)
            for row in rows:
                ref = fit(cfg.kernel, grid[obs_idx], np.array(y), cfg.noise_var)
                mu_r, sigma_r = gp.posterior_batch(ref, grid)
                assert np.max(np.abs(post.mu[0] - mu_r)) <= tol
                assert np.max(np.abs(post.sigma[0] - sigma_r)) <= tol
                assert row.mu_next == post.mu[0, row.x_next_idx]
                assert row.sigma_next == post.sigma[0, row.x_next_idx]
                _, _, vals = eiopt.ei_batch(ref, row.y_plus, grid)
                assert eiopt.lowest_argmax(vals) == row.x_next_idx
                post.observe([row.x_next_idx], [row.y_next])
                obs_idx.append(row.x_next_idx)
                y.append(row.y_next)

    @pytest.mark.parametrize("noise_var", [0.05**2, 0.0])
    def test_initial_observations_append_without_refit(self, monkeypatch, noise_var):
        # the T0 initial points take the append path from the prior; _refit is
        # only the fallback for a failed pivot
        grid = np.linspace(0, 1, 40)[:, None]
        prior = GridPrior.build(SE, grid)
        init = np.array([[3, 17, 30, 8, 22], [39, 0, 12, 25, 5]])
        y0 = np.random.default_rng(1).normal(size=init.shape)
        monkeypatch.setattr(eiopt.GridPosterior, "_refit", lambda *a: pytest.fail("_refit called"))
        post = eiopt.GridPosterior(prior, init, y0, noise_var, 8)
        monkeypatch.undo()
        for b in range(2):
            ref = fit(SE, grid[init[b]], y0[b], noise_var)
            mu_r, sigma_r = gp.posterior_batch(ref, grid)
            assert post.jitter[b] == ref.jitter
            assert np.max(np.abs(post.mu[b] - mu_r)) <= 1e-10
            assert np.max(np.abs(post.sigma[b] - sigma_r)) <= 1e-10

    def test_rebuilds_after_fallback(self, monkeypatch):
        # a duplicate noiseless point at jitter 1e-18 has a pivot of exactly 0,
        # so observe refits at 1e-15 and the grid moments follow the new factor
        monkeypatch.setattr(gp, "JITTER_START", 1e-18)
        grid = np.linspace(0, 1, 9)[:, None]
        post = eiopt.GridPosterior(GridPrior.build(SE, grid), [[4]], [[0.2]], 0.0, 4)
        post.observe([4], [0.2])
        ref = fit(SE, grid[[4, 4]], np.array([0.2, 0.2]), 0.0)
        assert post.jitter[0] == ref.jitter == 1e-15
        mu_r, sigma_r = gp.posterior_batch(ref, grid)
        assert np.allclose(post.mu[0], mu_r, rtol=0, atol=1e-9)
        assert np.allclose(post.sigma[0], sigma_r, rtol=0, atol=1e-9)
        post.observe([0], [-0.4])  # appends again on the refitted factor
        ref = fit(SE, grid[[4, 4, 0]], np.array([0.2, 0.2, -0.4]), 0.0)
        mu_r, sigma_r = gp.posterior_batch(ref, grid)
        assert np.allclose(post.mu[0], mu_r, rtol=0, atol=1e-9)
        assert np.allclose(post.sigma[0], sigma_r, rtol=0, atol=1e-9)

    def test_rejects_non_finite_y(self):
        post = eiopt.GridPosterior(GridPrior.build(SE, np.linspace(0, 1, 9)[:, None]), [[4]], [[0.2]], 0.05, 4)
        with pytest.raises(ValueError):
            post.observe([0], [float("nan")])

    def test_non_finite_y_in_one_trial_raises(self):
        post = eiopt.GridPosterior(GridPrior.build(SE, np.linspace(0, 1, 9)[:, None]),
                                   [[4], [2], [6]], [[0.2], [0.1], [-0.3]], 0.05, 4)
        with pytest.raises(ValueError):
            post.observe([0, 1, 8], [0.1, float("inf"), 0.3])

    def test_failed_pivot_refits_that_trial_alone(self, monkeypatch):
        # as above, trial 1 re-observes its noiseless point at jitter 1e-18 and
        # its pivot is exactly 0; trials 0 and 2 observe fresh points
        monkeypatch.setattr(gp, "JITTER_START", 1e-18)
        grid = np.linspace(0, 1, 9)[:, None]
        prior = GridPrior.build(SE, grid)
        init, y0, j, y = [[4], [4], [2]], [[0.2], [0.2], [0.1]], [0, 4, 7], [-0.4, 0.2, 0.5]
        post = eiopt.GridPosterior(prior, init, y0, 0.0, 4)
        refits = []
        original = eiopt.GridPosterior._refit
        monkeypatch.setattr(eiopt.GridPosterior, "_refit", lambda self, b: (refits.append(b), original(self, b)))
        post.observe(j, y)
        assert refits == [1]
        ref = fit(SE, grid[[4, 4]], np.array([0.2, 0.2]), 0.0)
        assert post.jitter[1] == ref.jitter == 1e-15
        mu_r, sigma_r = gp.posterior_batch(ref, grid)
        assert np.allclose(post.mu[1], mu_r, rtol=0, atol=1e-9)
        assert np.allclose(post.sigma[1], sigma_r, rtol=0, atol=1e-9)
        for b in (0, 2):
            alone = eiopt.GridPosterior(prior, [init[b]], [y0[b]], 0.0, 4)
            alone.observe([j[b]], [y[b]])
            assert np.array_equal(post.mu[b], alone.mu[0]) and np.array_equal(post.var[b], alone.var[0])
            assert post.jitter[b] == alone.jitter[0] == 1e-18

    @pytest.mark.parametrize("case", ["noisy", "noiseless_escalation", "matern_2d_duplicates"])
    def test_refit_bitwise_equals_fit_and_solve(self, monkeypatch, case):
        # _refit factors the prior's K block; gp.fit assembles the same block
        # with its own kernel call and must give the same factor and jitter
        if case == "matern_2d_duplicates":
            kernel = KernelSpec("matern", 0.2, 2.5)
            grid = ExperimentConfig(d=2, grid_per_dim=20).grid_points()
            idx, noise_var = [17, 203, 17, 399, 0, 203, 250], 0.05**2
        else:
            kernel, grid = SE, np.linspace(0, 1, 40)[:, None]
            idx = [3, 17, 30, 8, 22, 39] if case == "noisy" else [4, 9, 4, 20, 9]
            noise_var = 0.05**2 if case == "noisy" else 0.0
        prior = GridPrior.build(kernel, grid)
        if case == "noiseless_escalation":
            # duplicate noiseless points: at jitter 1e-18 the pivot is not positive
            monkeypatch.setattr(gp, "JITTER_START", 1e-18)
        y = np.random.default_rng(5).normal(size=len(idx))
        post = eiopt.GridPosterior(prior, [idx], [y], noise_var, len(idx) + 1)
        post._refit(0)
        ref = fit(kernel, grid[idx], y, noise_var)
        t = len(idx)
        assert post.jitter[0] == ref.jitter
        if case == "noiseless_escalation":
            assert ref.jitter > 1e-18
        assert np.array_equal(post._V[0, :t], gp.solve_lower(ref.chol, prior.K[idx]))
        assert np.array_equal(post._w[0, :t], gp.solve_lower(ref.chol, y))


def legacy_ei_from_moments(y_plus, mu, sigma):
    """The loop's EI before it moved into stdnormal, kept verbatim."""
    gap = y_plus - mu
    positive = sigma > 1e-12
    safe = np.where(positive, sigma, 1.0)
    vals = np.asarray(tau(gap / safe)) * safe
    return np.where(positive, vals, np.maximum(gap, 0.0))


class TestLoopEi:
    def test_block_bitwise_equals_stdnormal(self):
        rng = np.random.default_rng(8)
        mu = rng.normal(size=(6, 300))
        sigma = rng.uniform(0, 1, size=(6, 300))
        sigma[:, :5] = [0.0, 1e-13, 1e-12, 2e-12, 1.0]
        sigma[2, 100:] = 0.0
        y_plus = rng.normal(size=6)[:, None]
        vals = ei_unchecked(y_plus - mu, sigma)
        assert np.array_equal(vals, ei_ab(y_plus - mu, sigma))
        assert np.array_equal(vals, legacy_ei_from_moments(y_plus, mu, sigma))
        assert np.array_equal(vals[2, 100:], np.maximum(y_plus[2] - mu[2, 100:], 0.0))

    @pytest.mark.parametrize("noise_sd", [0.05, 0.0])
    def test_recorded_ei_equals_ei_ab(self, noise_sd):
        _, trace = run_once(tiny_config(noise_sd=noise_sd, T=20))
        for row in trace.rows:
            assert row.ei_next == ei_ab(row.y_plus - row.mu_next, row.sigma_next)

    def test_nan_in_mu_raises(self, monkeypatch):
        init = eiopt.GridPosterior.__init__

        def poisoned(self, *args):
            init(self, *args)
            self.mu[0, 3] = np.nan

        monkeypatch.setattr(eiopt.GridPosterior, "__init__", poisoned)
        with pytest.raises(ValueError, match="finite"):
            run_once(tiny_config())


def run_in_batches(config, size):
    """Traces of all the config's trials, run through ``run_batch`` in batches of ``size``."""
    prior = GridPrior.build(config.kernel, config.grid_points())
    traces = []
    for start in range(0, config.trials, size):
        seeds = [trial_seed(config.seed, i) for i in range(start, min(start + size, config.trials))]
        batch = eiopt.run_batch(config, [prior.sample(s) for s in seeds], seeds)
        traces += [batch.trace(b) for b in range(len(seeds))]
    return traces


class TestLockstep:
    def test_batch_size_rule(self):
        assert eiopt.batch_size(30, 200) == 43
        assert eiopt.batch_size(60, 200) == 21
        assert eiopt.batch_size(60, 4096) == 1

    @pytest.mark.parametrize("overrides", [
        dict(noise_sd=0.05),
        dict(noise_sd=0.0),
        dict(noise_sd=0.05, kappa=3e-3),
        dict(noise_sd=0.0, kappa=1e-3),
    ])
    def test_trace_bytes_independent_of_batch_size(self, overrides):
        cfg = tiny_config(grid_per_dim=40, T=30, trials=15, **overrides)
        whole = run_in_batches(cfg, cfg.trials)
        if cfg.kappa is not None:
            lengths = {len(tr.rows) for tr in whole}
            assert len(lengths) > 1 and max(lengths) > min(lengths)  # trials stop at different t
            assert any(tr.stopped_early for tr in whole)
        for size in (1, 7):
            assert [repr(tr) for tr in run_in_batches(cfg, size)] == [repr(tr) for tr in whole]


class TestSelectionOptimality:
    def test_no_candidate_beats_recorded_choice(self):
        cfg = tiny_config(T=10, seed=303)
        sample = sample_prior(cfg.kernel, cfg.grid_points(), 303)
        trace = run(cfg, sample, 303)
        grid = cfg.grid_points()
        # rebuild the observation sequence and refit at each step
        obs_idx = list(trace.init_indices)
        from gpei.rng import derive_stream_seed

        rng_noise = np.random.default_rng(derive_stream_seed(303, eiopt.NOISE_STREAM))
        y = [float(sample.f[j] + cfg.noise_sd * rng_noise.standard_normal()) for j in obs_idx]
        for row in trace.rows:
            state = fit(cfg.kernel, grid[obs_idx], np.array(y), cfg.noise_var)
            y_plus = min(y)
            _, _, vals = eiopt.ei_batch(state, y_plus, grid)
            assert vals.max() <= row.ei_next + 1e-12
            assert eiopt.lowest_argmax(vals) == row.x_next_idx
            obs_idx.append(row.x_next_idx)
            y.append(float(sample.f[row.x_next_idx] + cfg.noise_sd * rng_noise.standard_normal()))
