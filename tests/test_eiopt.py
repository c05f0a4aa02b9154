"""Tests for the acquisition function and the optimization loop."""

import dataclasses
import gc
import math
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpei import eiopt, gp, stdnormal
from gpei.config import ExperimentConfig
from gpei.eiopt import ei_batch, lowest_argmax
from gpei.gp import GridPrior, fit
from gpei.kernels import KernelSpec
from gpei.rng import INIT, NOISE, trial_seed
from gpei.stdnormal import SIGMA_FLOOR, ei_ab, ei_unchecked, tau
from test_gp import lattice_gram

SE = KernelSpec("se", 0.5)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def se_prior(m):
    """The prior of ``SE`` on the m-point lattice over [0, 1]."""
    return GridPrior.build(ExperimentConfig(grid_per_dim=m, kernel=SE))


def ei_at(state, y_plus, x):
    """EI at one point: ``ei_ab`` on the posterior moments there."""
    mu, sigma = gp.posterior_batch(state, np.asarray(x, dtype=float)[None, :])
    return float(ei_ab(y_plus - mu[0], sigma[0]))


def pick(state, y_plus, candidates):
    """The loop's choice among ``candidates``: the tie rule on their EI."""
    return int(lowest_argmax(ei_batch(state, y_plus, candidates)[2]))


class TestImprovement:
    # the improvement max(y_plus - f(x), 0) is EI with a known value: ei_ab(y_plus - f(x), 0)
    def test_no_improvement(self):
        assert ei_ab(1.0 - 2.0, 0.0) == 0.0

    def test_positive_improvement(self):
        assert ei_ab(2.0 - 1.5, 0.0) == 0.5

    @given(finite)
    def test_boundary(self, y):
        assert ei_ab(y - y, 0.0) == 0.0

    @given(finite, finite)
    def test_nonnegative(self, y_plus, f_x):
        assert ei_ab(y_plus - f_x, 0.0) >= 0.0


class TestEi:
    def test_z_zero_case(self):
        # empty state: posterior is (0, 1); with y_plus = 0 the value is tau(0)
        state = fit(SE, np.zeros((0, 1)), np.zeros(0), 0.0)
        assert ei_at(state, 0.0, [0.3]) == pytest.approx(tau(0.0), rel=1e-13)

    def test_exploitation_limit(self):
        # noiseless observed point: sigma ~ 0 there, EI = max(y_plus - mu, 0)
        state = fit(SE, np.array([[0.4]]), np.array([-1.0]), 0.0)
        assert ei_at(state, 0.5, [0.4]) == pytest.approx(1.5, abs=1e-6)
        assert ei_at(state, -2.0, [0.4]) == 0.0

    def test_deep_negative_z(self):
        # prior point with incumbent 3 below the mean: tau(-3) = 0.00038215...
        state = fit(SE, np.zeros((0, 1)), np.zeros(0), 0.0)
        assert ei_at(state, -3.0, [0.0]) == pytest.approx(float(tau(-3.0)), rel=1e-12)

    def test_matches_scaled_tau_identity(self):
        rng = np.random.default_rng(0)
        state = fit(SE, rng.uniform(size=(4, 1)), rng.normal(size=4), 0.09)
        for _ in range(20):
            x = rng.uniform(size=1)
            y_plus = float(rng.normal())
            mu, sigma = (float(m[0]) for m in gp.posterior_batch(state, x[None, :]))
            expected = sigma * tau((y_plus - mu) / sigma) if sigma > 1e-12 else max(y_plus - mu, 0.0)
            assert ei_at(state, y_plus, x) == pytest.approx(expected, rel=1e-12)

    def test_dominates_gap_and_nonnegative(self):
        rng = np.random.default_rng(1)
        state = fit(SE, rng.uniform(size=(3, 1)), rng.normal(size=3), 0.04)
        for _ in range(50):
            x = rng.uniform(size=1)
            y_plus = float(rng.normal())
            mu, _ = gp.posterior_batch(state, x[None, :])
            val = ei_at(state, y_plus, x)
            assert val >= 0.0
            assert val >= (y_plus - mu[0]) - 1e-12


class TestArgmaxEi:
    def test_single_candidate(self):
        state = fit(SE, np.zeros((0, 1)), np.zeros(0), 0.0)
        assert pick(state, 0.0, np.array([[0.7]])) == 0

    def test_identical_candidates_tie_break(self):
        state = fit(SE, np.zeros((0, 1)), np.zeros(0), 0.0)
        assert pick(state, 0.0, np.full((8, 1), 0.25)) == 0

    def test_matches_exhaustive_rescan(self):
        rng = np.random.default_rng(2)
        state = fit(SE, rng.uniform(size=(6, 1)), rng.normal(size=6), 0.01)
        candidates = rng.uniform(size=(50, 1))
        y_plus = -0.3
        brute = max(range(50), key=lambda j: ei_at(state, y_plus, candidates[j]))
        assert pick(state, y_plus, candidates) == brute


class TestTieRule:
    def test_relative_tolerance(self):
        top = 0.75
        assert lowest_argmax(np.array([0.1, top * (1 - 0.9e-12), top])) == 1
        assert lowest_argmax(np.array([0.1, top * (1 - 1.1e-12), top])) == 2
        assert lowest_argmax(np.array([top, 0.1, top])) == 0
        assert lowest_argmax(np.zeros(4)) == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_row_raises(self, bad):
        vals = np.zeros((3, 5))
        vals[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            lowest_argmax(vals)

    def test_mirror_pair_on_symmetric_grid(self):
        # 25 points symmetric about the observed centre: the EI of each mirror
        # pair is equal in exact arithmetic; on this grid the end pair differs
        # by one ulp, which decides a plain np.argmax differently per orientation
        grid = np.linspace(0.1, 0.7, 25)[:, None]
        kernel = KernelSpec("se", 0.2)
        state = fit(kernel, grid[12:13], np.array([0.3]), 0.0)
        idx = pick(state, 0.3, grid)
        idx_rev = pick(state, 0.3, grid[::-1])
        _, _, vals = ei_batch(state, 0.3, grid)
        assert vals[idx] != vals[24 - idx]  # the roundoff the rule absorbs
        assert idx == 0 and idx_rev == 0  # grid[0], then grid[24]: the lowest index in each orientation


def tiny_config(**kw):
    base = dict(d=1, grid_per_dim=25, kernel=KernelSpec("se", 0.2), noise_sd=0.05,
                delta=0.1, T=12, T0=1, trials=2, seed=101, theorem="thm46")
    base.update(kw)
    return ExperimentConfig(**base)


def segment(seed, k):
    """A generator at segment k of the trial stream of ``seed``: the
    generator ``default_rng(seed)`` after k * 2**64 draws."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(k * 2**64)
    return rng


@dataclasses.dataclass(frozen=True)
class GatheredRows(GridPrior):
    """A grid prior whose rows are gathered from the kernel matrix ``gram``."""

    gram: np.ndarray = None

    def rows(self, idx):
        return self.gram[idx]


def gathered(prior, gram):
    """``prior``, drawing as it draws, with its rows gathered from ``gram``."""
    return GatheredRows(**{f.name: getattr(prior, f.name) for f in dataclasses.fields(prior)}, gram=gram)


def run_once(config, seed=5):
    """The objective of ``seed`` and the loop's trace on it: a batch of one."""
    prior = GridPrior.build(config)
    return prior.draw([seed])[0], eiopt.run_batch(config, prior, [seed]).trace(0)


def kappa_stopped(batch, kappa):
    """Per trial of ``batch``, whether kappa stopped it: kappa is set and the
    last recorded EI is below it."""
    last = batch.columns["ei_next"][np.arange(batch.steps.size), batch.steps - 1]
    return np.zeros(last.shape, dtype=bool) if kappa is None else last < kappa


def record(trace):
    """Every field of a trace, arrays as Python lists, in a repr that is equal
    between two traces exactly when they are bitwise equal."""
    return repr([np.asarray(getattr(trace, f.name)).tolist() for f in dataclasses.fields(trace)])


class TestRun:
    def test_single_point_grid(self):
        cfg = tiny_config(grid_per_dim=1, T=8, noise_sd=0.1)
        _, trace = run_once(cfg)
        assert trace.t.tolist() == list(range(1, 8))
        assert (trace.x_next_idx == 0).all() and (trace.r0_t == 0.0).all()

    def test_noiseless_identities(self):
        cfg = tiny_config(noise_sd=0.0)
        f, trace = run_once(cfg)
        visited = list(trace.init_indices)
        for y_plus, j in zip(trace.y_plus, trace.x_next_idx):
            # y_plus equals the true minimum over visited points so far
            assert y_plus == pytest.approx(f[visited].min(), abs=1e-12)
            visited.append(j)
        assert np.allclose(trace.r_t, trace.r0_t, rtol=0, atol=1e-12)
        assert (trace.r_t >= 0.0).all()

    def test_determinism_bit_identical(self):
        cfg = tiny_config()
        _, t1 = run_once(cfg, seed=9)
        _, t2 = run_once(cfg, seed=9)
        assert record(t1) == record(t2)

    def test_different_seeds_differ(self):
        cfg = tiny_config()
        _, t1 = run_once(cfg, seed=9)
        _, t2 = run_once(cfg, seed=10)
        assert record(t1) != record(t2)

    def test_y_plus_monotone_and_r0_nonnegative(self):
        cfg = tiny_config(T=20)
        _, trace = run_once(cfg)
        assert (np.diff(trace.y_plus) <= 0).all()
        assert (trace.r0_t >= 0).all()

    def test_r_t_bounded_below_by_noise(self):
        cfg = tiny_config(T=20, noise_sd=0.3)
        _, trace = run_once(cfg)
        # r_t = y_plus - f_star is bounded below by -2 * max |noise| since
        # y_plus >= f_star + min eps; recover eps magnitudes from y - f
        eps_max = np.abs(trace.y_next - trace.f_next).max()
        assert (trace.r_t >= -2 * eps_max - 1e-12).all()

    def test_initial_indices_reproducible(self):
        cfg = tiny_config(T0=3, T=10)
        _, trace = run_once(cfg, seed=5)
        expected = [int(i) for i in segment(5, INIT).integers(0, cfg.grid_size, size=cfg.T0)]
        assert list(trace.init_indices) == expected

    def test_stopping_threshold(self):
        cfg_free = tiny_config(T=12)
        _, free = run_once(cfg_free)
        floor = free.ei_next.min()
        ceiling = free.ei_next.max()
        cfg_stop = dataclasses.replace(cfg_free, kappa=float(ceiling))
        _, stopped = run_once(cfg_stop)
        # kappa stopped the trial, and the threshold row is still observed and
        # recorded, matching the loop order: acquire, observe, update the
        # posterior, then test the criterion
        assert stopped.ei_next[-1] < ceiling

    def test_grid_mismatch_rejected(self):
        cfg = tiny_config()
        other = dataclasses.replace(cfg, grid_per_dim=30)
        with pytest.raises(ValueError, match="grid"):
            eiopt.run_batch(cfg, GridPrior.build(other), [5])

    def test_kernel_mismatch_rejected(self):
        cfg = tiny_config()
        prior = GridPrior.build(dataclasses.replace(cfg, kernel=KernelSpec("matern", 0.2, 2.5)))
        with pytest.raises(ValueError, match="kernel"):
            eiopt.run_batch(cfg, prior, [5])

    @pytest.mark.parametrize("seeds", [[], range(0)])
    def test_empty_seed_list_rejected(self, seeds):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="at least one seed"):
            eiopt.run_batch(cfg, GridPrior.build(cfg), seeds)


class TestTrialStream:
    """One generator per trial seed: the objective reads its stream from the
    start, the initial design from segment ``rng.INIT`` and the noise from
    segment ``rng.NOISE``.  The pool's workers run the same batches
    (``test_harness``'s serial-parallel tests)."""

    def test_objective_depends_on_seed_kernel_and_grid_alone(self):
        cfg = tiny_config(T0=2, T=12)
        prior = GridPrior.build(cfg)
        f = prior.draw([5, 6])
        assert np.array_equal(prior.draw([np.random.default_rng(6)]), f[1:])
        for other in (dict(), dict(T0=4, T=20), dict(noise_sd=0.3), dict(noise_sd=0.0, kappa=1e-3)):
            for seeds, rows in (([5, 6], f), ([6], f[1:])):
                batch = eiopt.run_batch(dataclasses.replace(cfg, **other), prior, seeds)
                assert np.array_equal(batch.f_star, rows.min(axis=1))
                for b, row in enumerate(rows):
                    tr = batch.trace(b)
                    assert np.array_equal(tr.f_next, row[tr.x_next_idx])

    @pytest.mark.parametrize("kernel", [KernelSpec("se", 0.2), KernelSpec("matern", 0.2, 0.5)],
                             ids=["se", "matern0.5"])
    def test_design_and_noise_depend_on_seed_t0_and_t_alone(self, kernel):
        cfg = tiny_config(kernel=kernel, T0=3, T=12, noise_sd=0.3)
        prior = GridPrior.build(cfg)
        seeds = [5, 6, 7]
        batch = eiopt.run_batch(cfg, prior, seeds)
        for b, seed in enumerate(seeds):
            init = segment(seed, INIT).integers(0, cfg.grid_size, size=cfg.T0)
            eps = cfg.noise_sd * segment(seed, NOISE).standard_normal(cfg.T)
            for tr in (batch.trace(b), eiopt.run_batch(cfg, prior, [seed]).trace(0)):
                assert np.array_equal(tr.init_indices, init)
                assert np.array_equal(tr.y_next, tr.f_next + eps[tr.t])


def replay(config, seed):
    """The loop's trace plus its initial observations: (init indices, init y, trace)."""
    f, trace = run_once(config, seed)
    rng_noise = segment(seed, NOISE)
    y0 = [float(f[j] + config.noise_sd * rng_noise.standard_normal()) for j in trace.init_indices]
    return trace.init_indices.tolist(), y0, trace


def exact_posterior(prior, idx, y, noise_var, jitter):
    """Posterior mean and sd on the prior's grid, a negative variance read as 0
    as ``GridPosterior.sigma`` reads it, from the prior's float64 kernel rows
    at 50 digits: the moments that a posterior at this jitter rounds, free of
    any solve's roundoff."""
    rows = prior.rows(idx)
    with mp.workdps(50):
        K = mp.matrix(rows[:, idx].tolist()) + (mp.mpf(noise_var) + mp.mpf(jitter)) * mp.eye(len(idx))
        alpha = mp.lu_solve(K, mp.matrix(list(y)))
        mu, sigma = [], []
        for j in range(rows.shape[1]):
            k = mp.matrix(rows[:, j].tolist())
            mu.append(float((k.T * alpha)[0]))
            var = 1 - (k.T * mp.lu_solve(K, k))[0]
            sigma.append(float(mp.sqrt(max(var, 0))))
    return np.array(mu), np.array(sigma)


class TestGridPosterior:
    @pytest.mark.parametrize("noise_sd,tol", [(0.05, 1e-10), (0.0, 1e-6)])
    def test_loop_moments_match_refit(self, noise_sd, tol):
        # default config: 200-point grid, SE, T=60; at every step the moments
        # the loop used equal a fresh fit + posterior_batch on the whole grid
        cfg = dataclasses.replace(ExperimentConfig(seed=11), noise_sd=noise_sd)
        grid = cfg.grid_points()
        for seed in (3, 4):
            obs_idx, y, trace = replay(cfg, seed)
            post = eiopt.GridPosterior(GridPrior.build(cfg), [obs_idx], [y], cfg.noise_var, cfg.T)
            for j, mu, sigma, y_plus, y_next in zip(
                trace.x_next_idx, trace.mu_next, trace.sigma_next, trace.y_plus, trace.y_next
            ):
                ref = fit(cfg.kernel, grid[obs_idx], np.array(y), cfg.noise_var)
                mu_r, sigma_r = gp.posterior_batch(ref, grid)
                assert np.max(np.abs(post.mu[0] - mu_r)) <= tol
                assert np.max(np.abs(post.sigma[0] - sigma_r)) <= tol
                assert mu == post.mu[0, j]
                assert sigma == post.sigma[0, j]
                _, _, vals = ei_batch(ref, y_plus, grid)
                assert lowest_argmax(vals) == j
                post.observe([j], [y_next])
                obs_idx.append(j)
                y.append(y_next)

    @pytest.mark.parametrize("noise_var", [0.05**2, 0.0])
    def test_initial_observations_append_without_refit(self, monkeypatch, noise_var):
        # the T0 initial points take the append path from the prior; _refit is
        # only the fallback for a failed pivot
        prior = se_prior(40)
        grid = prior.grid
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
        # and so it has at 1e-17 and 1e-16, where 1 + jitter rounds to 1: the
        # replay escalates to 1e-15, which gp.fit's escalation from 1e-18 also
        # reaches, and the grid moments follow the new factor.  The moments
        # are checked against the exact posterior: at the duplicate point the
        # variance is about 5e-16, where gp.fit's own solves are off by 1.3e-9
        # in sd
        monkeypatch.setattr(gp, "JITTER_START", 1e-18)
        prior = se_prior(9)
        grid = prior.grid
        post = eiopt.GridPosterior(prior, [[4]], [[0.2]], 0.0, 4)
        post.observe([4], [0.2])
        ref = fit(SE, grid[[4, 4]], np.array([0.2, 0.2]), 0.0)
        assert post.jitter[0] == ref.jitter == 1e-15
        mu_r, sigma_r = exact_posterior(prior, [4, 4], [0.2, 0.2], 0.0, 1e-15)
        assert np.allclose(post.mu[0], mu_r, rtol=0, atol=1e-9)
        assert np.allclose(post.sigma[0], sigma_r, rtol=0, atol=1e-9)
        post.observe([0], [-0.4])  # appends again on the refitted factor
        mu_r, sigma_r = exact_posterior(prior, [4, 4, 0], [0.2, 0.2, -0.4], 0.0, 1e-15)
        assert np.allclose(post.mu[0], mu_r, rtol=0, atol=1e-9)
        assert np.allclose(post.sigma[0], sigma_r, rtol=0, atol=1e-9)

    def test_rejects_non_finite_y(self):
        post = eiopt.GridPosterior(se_prior(9), [[4]], [[0.2]], 0.05, 4)
        with pytest.raises(ValueError):
            post.observe([0], [float("nan")])

    def test_non_finite_y_in_one_trial_raises(self):
        post = eiopt.GridPosterior(se_prior(9),
                                   [[4], [2], [6]], [[0.2], [0.1], [-0.3]], 0.05, 4)
        with pytest.raises(ValueError):
            post.observe([0, 1, 8], [0.1, float("inf"), 0.3])

    def test_failed_pivot_refits_that_trial_alone(self, monkeypatch):
        # as above, trial 1 re-observes its noiseless point at jitter 1e-18 and
        # its pivot is exactly 0; trials 0 and 2 observe fresh points
        monkeypatch.setattr(gp, "JITTER_START", 1e-18)
        prior = se_prior(9)
        grid = prior.grid
        init, y0, j, y = [[4], [4], [2]], [[0.2], [0.2], [0.1]], [0, 4, 7], [-0.4, 0.2, 0.5]
        post = eiopt.GridPosterior(prior, init, y0, 0.0, 4)
        # the refits of this posterior; the replay's one-trial posterior
        # escalates through its own _refit
        refits = []
        original = eiopt.GridPosterior._refit
        monkeypatch.setattr(eiopt.GridPosterior, "_refit",
                            lambda self, b: (self is post and refits.append(b), original(self, b)))
        post.observe(j, y)
        assert refits == [1]
        ref = fit(SE, grid[[4, 4]], np.array([0.2, 0.2]), 0.0)
        assert post.jitter[1] == ref.jitter == 1e-15
        mu_r, sigma_r = exact_posterior(prior, [4, 4], [0.2, 0.2], 0.0, 1e-15)
        assert np.allclose(post.mu[1], mu_r, rtol=0, atol=1e-9)
        assert np.allclose(post.sigma[1], sigma_r, rtol=0, atol=1e-9)
        for b in (0, 2):
            alone = eiopt.GridPosterior(prior, [init[b]], [y0[b]], 0.0, 4)
            alone.observe([j[b]], [y[b]])
            assert np.array_equal(post.mu[b], alone.mu[0]) and np.array_equal(post.var[b], alone.var[0])
            assert post.jitter[b] == alone.jitter[0] == 1e-18

    @pytest.mark.parametrize("noise_var", [0.05**2, 0.0])
    def test_keep_then_observe_equals_the_trial_alone(self, monkeypatch, noise_var):
        # trials 1 and 4 stop after three observations; the others step on as if
        # they had been alone all along.  Trial 2 re-observes a point at jitter
        # 1e-18, so in the noiseless case its pivot fails and it is refitted
        monkeypatch.setattr(gp, "JITTER_START", 1e-18)
        prior = se_prior(40)
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 40, size=(5, 6))
        idx[2, 4] = idx[2, 1]
        y = rng.normal(size=(5, 6))
        mask = np.array([True, False, True, True, False])
        post = eiopt.GridPosterior(prior, idx[:, :3], y[:, :3], noise_var, 6)
        post.keep(mask)
        for s in range(3, 6):
            post.observe(idx[mask, s], y[mask, s])
        for k, b in enumerate(np.flatnonzero(mask)):
            alone = eiopt.GridPosterior(prior, idx[b : b + 1, :3], y[b : b + 1, :3], noise_var, 6)
            for s in range(3, 6):
                alone.observe(idx[b : b + 1, s], y[b : b + 1, s])
            for name in ("mu", "var", "jitter", "_V", "_w"):
                assert np.array_equal(getattr(post, name)[k], getattr(alone, name)[0]), name
        assert post.jitter[1] == (1e-15 if noise_var == 0.0 else 1e-18)

    @pytest.mark.parametrize("case", ["noisy", "noiseless_escalation", "matern_2d_duplicates"])
    def test_refit_bitwise_equals_fit_and_solve(self, monkeypatch, case):
        # _refit replays the trial's observations at ten times its jitter,
        # escalating further while a pivot fails, and must give the state of
        # a fresh one-trial posterior that observes them at the jitter it
        # ends at, bit for bit, without a refit of its own, whose rows are
        # gathered from lattice_gram: on the 40-point lattice, which draws
        # through L, and on the embedded 20x20 grid
        if case == "matern_2d_duplicates":
            kernel, d, per_axis = KernelSpec("matern", 0.2, 2.5), 2, 20
            idx, noise_var = [17, 203, 17, 399, 0, 203, 250], 0.05**2
        else:
            kernel, d, per_axis = SE, 1, 40
            idx = [3, 17, 30, 8, 22, 39] if case == "noisy" else [4, 9, 4, 20, 9]
            noise_var = 0.05**2 if case == "noisy" else 0.0
        prior = GridPrior.build(ExperimentConfig(d=d, grid_per_dim=per_axis, kernel=kernel))
        assert (prior.root_eig is not None) == (case == "matern_2d_duplicates")
        reference = gathered(prior, lattice_gram(kernel, d, per_axis))
        if case == "noiseless_escalation":
            # duplicate noiseless points: at jitter 1e-18 the pivot is not positive
            monkeypatch.setattr(gp, "JITTER_START", 1e-18)
        y = np.random.default_rng(5).normal(size=len(idx))
        t = len(idx)

        def assert_fresh_replay(post):
            ref = eiopt.GridPosterior(reference, np.empty((1, 0), dtype=np.intp), np.empty((1, 0)), noise_var, t + 1)
            ref.jitter[0] = post.jitter[0]
            with monkeypatch.context() as m:
                m.setattr(eiopt.GridPosterior, "_refit", lambda *a: pytest.fail("reference refitted"))
                for j, y_j in zip(idx, y):
                    ref.observe([j], [y_j])
            for name in ("mu", "var", "jitter"):
                assert np.array_equal(getattr(post, name), getattr(ref, name)), name
            assert np.array_equal(post._V[:, :t], ref._V[:, :t]) and np.array_equal(post._w[:, :t], ref._w[:, :t])

        post = eiopt.GridPosterior(prior, [idx], [y], noise_var, t + 1)
        before = post.jitter[0]
        if case == "noiseless_escalation":
            # the duplicates refitted while the trial was built, escalating
            # 1e-17, 1e-16, 1e-15
            assert before == 1e-15
            assert_fresh_replay(post)
        post._refit(0)
        assert post.jitter[0] == 10.0 * before
        assert_fresh_replay(post)

    @pytest.mark.parametrize("case", ["noisy", "noiseless_requery", "forced_refit"])
    def test_variance_never_exceeds_one(self, monkeypatch, case):
        # sigma clips the variance at 0 only: it starts at 1, every observe
        # subtracts v*v from it and a refit rebuilds it the same way, so it
        # never exceeds 1 and sigma equals the sd clipped into [0, 1] bit for bit
        refits = []
        original = eiopt.GridPosterior._refit
        monkeypatch.setattr(eiopt.GridPosterior, "_refit", lambda self, b: (refits.append(b), original(self, b)))
        if case == "forced_refit":
            # re-queried noiseless points at jitter 1e-18 have pivots that are not positive
            monkeypatch.setattr(gp, "JITTER_START", 1e-18)
        noise_var = 0.05**2 if case == "noisy" else 0.0
        rng = np.random.default_rng(7)
        idx = rng.integers(0, 40, size=(3, 12))
        if case != "noisy":
            idx[:, 6:] = idx[:, :6]  # every point is observed twice
        y = rng.normal(size=idx.shape)
        post = eiopt.GridPosterior(se_prior(40), idx[:, :1], y[:, :1], noise_var, 12)
        for s in range(1, 12):
            post.observe(idx[:, s], y[:, s])
            assert (post.var <= 1.0).all(), s
            assert np.array_equal(post.sigma, np.sqrt(np.clip(post.var, 0.0, 1.0))), s
        assert bool(refits) == (case == "forced_refit")

    def test_refit_past_jitter_max_raises(self, monkeypatch):
        # a duplicate noiseless point: the pivot fails at 1e-18 and again at
        # 1e-17, and the next escalation would pass JITTER_MAX
        monkeypatch.setattr(gp, "JITTER_START", 1e-18)
        monkeypatch.setattr(gp, "JITTER_MAX", 1e-17)
        post = eiopt.GridPosterior(se_prior(9), [[4]], [[0.2]], 0.0, 4)
        with pytest.raises(gp.FactorizationError, match="jitter"):
            post.observe([4], [0.2])


def legacy_ei_from_moments(y_plus, mu, sigma):
    """The loop's EI before it moved into stdnormal, kept verbatim."""
    gap = y_plus - mu
    positive = sigma > 1e-12
    safe = np.where(positive, sigma, 1.0)
    vals = np.asarray(tau(gap / safe)) * safe
    return np.where(positive, vals, np.maximum(gap, 0.0))


# libm's erfc entry by entry, the erfc ``stdnormal`` uses
libm_erfc = np.vectorize(math.erfc, otypes=[float])


def masked_ei(a, b):
    """``ei_unchecked`` as one masked pass over every entry, the form it had
    before it evaluated b*tau(a/b) in place: the bitwise reference for inputs
    ``ei_ab`` rejects (NaN, inf)."""
    with np.errstate(all="ignore"):
        z = a / np.where(b > SIGMA_FLOOR, b, 1.0)
        degenerate = (b <= SIGMA_FLOOR) | ~np.isfinite(z)
        z = np.where(degenerate, 0.0, z)
        tau_z = z * (0.5 * libm_erfc(-z / math.sqrt(2.0))) + 1.0 / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * z * z)
        return np.where(degenerate, np.maximum(a, 0.0), b * tau_z)


def assert_same_bits(x, y):
    """x and y are equal bit for bit, except that any NaN matches any NaN."""
    x, y = np.asarray(x), np.asarray(y)
    nan = np.isnan(x)
    assert x.shape == y.shape and np.array_equal(nan, np.isnan(y))
    assert x[~nan].tobytes() == y[~nan].tobytes()


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
        assert_same_bits(vals, masked_ei(y_plus - mu, sigma))

        # no degenerate entry: the in-place pass without a mask
        clear = rng.uniform(1e-3, 1, size=(6, 300))
        vals = ei_unchecked(y_plus - mu, clear)
        assert np.array_equal(vals, ei_ab(y_plus - mu, clear))
        assert np.array_equal(vals, legacy_ei_from_moments(y_plus, mu, clear))
        assert_same_bits(vals, masked_ei(y_plus - mu, clear))

        # sigma just above the floor with |a| ~ 1e300: a/b overflows to
        # +-inf, and EI is the limit max(a, 0), the only such entries
        a, b = y_plus - mu, clear.copy()
        a[1, 7], a[4, 9], b[1, 7], b[4, 9] = 1e300, -1e300, 2e-12, 2e-12
        vals = ei_unchecked(a, b)
        assert (vals[1, 7], vals[4, 9]) == (1e300, 0.0)
        assert np.array_equal(vals, ei_ab(a, b))
        assert_same_bits(vals, masked_ei(a, b))

        # NaN and +inf sigma, which ei_ab rejects: NaN and +inf EI there
        b[0, 3], b[3, 0], b[5, 299] = np.nan, np.inf, np.nan
        vals = ei_unchecked(a, b)
        assert np.isnan(vals[0, 3]) and np.isnan(vals[5, 299]) and vals[3, 0] == np.inf
        assert_same_bits(vals, masked_ei(a, b))
        # and NaN or +-inf in a, alone and against a NaN or +inf sigma
        a[0, 3], a[3, 0], a[2, 50], a[2, 51], a[2, 52] = np.inf, np.nan, np.nan, np.inf, -np.inf
        assert_same_bits(ei_unchecked(a, b), masked_ei(a, b))
        assert_same_bits(ei_unchecked(a, clear), masked_ei(a, clear))

        # 0-d inputs, through ei_ab, on either path
        for x, y in [(0.3, 0.0), (0.3, 1e-12), (-0.2, 0.7), (1e300, 2e-12), (-1e300, 2e-12)]:
            ei = ei_ab(x, y)
            assert type(ei) is float and ei == masked_ei(np.array(x), np.array(y))

    @pytest.mark.parametrize("noise_sd", [0.05, 0.0])
    def test_recorded_ei_equals_ei_ab(self, noise_sd):
        _, trace = run_once(tiny_config(noise_sd=noise_sd, T=20))
        for ei_next, y_plus, mu, sigma in zip(trace.ei_next, trace.y_plus, trace.mu_next, trace.sigma_next):
            assert ei_next == ei_ab(y_plus - mu, sigma)

    def test_nan_in_mu_raises(self, monkeypatch):
        init = eiopt.GridPosterior.__init__

        def poisoned(self, *args):
            init(self, *args)
            self.mu[0, 3] = np.nan

        monkeypatch.setattr(eiopt.GridPosterior, "__init__", poisoned)
        with pytest.raises(ValueError, match="finite"):
            run_once(tiny_config())

    def test_nan_in_var_raises(self, monkeypatch):
        # a NaN variance gives a NaN sd, and the EI block must not absorb it
        init = eiopt.GridPosterior.__init__

        def poisoned(self, *args):
            init(self, *args)
            self.var[0, 3] = np.nan

        monkeypatch.setattr(eiopt.GridPosterior, "__init__", poisoned)
        with pytest.raises(ValueError, match="finite"):
            run_once(tiny_config())


def full_pick(a, b):
    """The screened pick's reference: the tie rule on EI evaluated everywhere."""
    vals = stdnormal.ei_unchecked(a, b)
    j = lowest_argmax(vals)
    return j, vals[np.arange(j.size), j]


@st.composite
def ei_blocks(draw):
    """(a, b) blocks of random moments with the entries a screen could
    mishandle mixed in: mirror-symmetric rows (exact ties), near ties,
    b at or below ``SIGMA_FLOOR`` (a = b = 0 included), |a/b| beyond double
    range, a row whose every z = a/b is far below 0 (EI from a cancelling
    z*Phi(z) + phi(z), or underflowing to 0), a row at z ~ -38.5 where EI and
    the bound are subnormal, a row whose largest bound sits where it exceeds
    EI the most (|z| = 0.778) while exact entries (b = 0) hold larger EI,
    and NaN or infinite entries."""
    B, n = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(B, n)) * 10.0 ** draw(st.integers(-10, 2))
    b = rng.uniform(0.0, 1.0, size=(B, n)) ** draw(st.integers(1, 8))
    kinds = draw(st.sets(st.sampled_from(
        ["mirror", "near", "floor", "zero", "overflow", "deep", "subnormal", "tight", "nan", "inf"])))
    some = lambda: rng.uniform(size=(B, n)) < 0.2  # noqa: E731
    if "deep" in kinds:
        a[0] = -rng.uniform(5.0, 45.0, size=n) * b[0]
    if "subnormal" in kinds:
        a[-1] = -rng.uniform(38.3, 38.7, size=n) * b[-1]
    if "tight" in kinds:
        # bound 0.1836*b, EI 0.1250*b at entry 0; EI = bound = a in (0.1255*b, 0.1836*b) elsewhere
        a[0, 0], b[0, 1:] = -0.778 * b[0, 0], 0.0
        a[0, 1:] = rng.uniform(0.1255, 0.1836, size=n - 1) * b[0, 0]
    if "floor" in kinds:
        m = some()
        b[m] = rng.choice([0.0, 1e-13, SIGMA_FLOOR], size=m.sum())
    if "zero" in kinds:
        m = some()
        a[m] = b[m] = 0.0
    if "overflow" in kinds:
        m = some()
        a[m], b[m] = rng.choice([-1e300, 1e300], size=m.sum()), 2e-12
    if "nan" in kinds:
        m = some() & some()
        (a if draw(st.booleans()) else b)[m] = np.nan
    if "inf" in kinds:
        m = some() & some()
        a[m] = rng.choice([-np.inf, np.inf], size=m.sum())
        b[some() & some()] = np.inf
    if "near" in kinds and n > 1:
        a[:, 0], b[:, 0] = a[:, -1] * (1.0 + 1e-13), b[:, -1]
    if "mirror" in kinds:
        with np.errstate(invalid="ignore"):  # inf - inf
            a, b = (a + a[:, ::-1]) * 0.5, (b + b[:, ::-1]) * 0.5
    return a, b


class TestScreenedPick:
    def test_bound_ratio_below_screen_ratio(self):
        # the screen's bound over EI is phi(x)/(1 + x^2) / tau(-x) at x = |a/b|
        # (with max(a, 0) added to both for a > 0, which lowers the ratio)
        with mp.workdps(30):
            ratio = [mp.npdf(x) / (1 + x * x) / (mp.npdf(x) - x * mp.ncdf(-x))
                     for x in (mp.mpf(k) / 200 for k in range(0, 2001))]
        assert 1.4696 < max(ratio) < 1.4697 < eiopt._SCREEN_RATIO
        assert ratio[0] == 1 and ratio[-1] < 1.02

    @given(ei_blocks())
    def test_equals_full_evaluation_bit_for_bit(self, block):
        a, b = block
        try:
            j, ei = full_pick(a, b)
        except ValueError:
            with pytest.raises(ValueError, match="finite"):
                eiopt.pick(a, b)
            return
        j_screened, ei_screened = eiopt.pick(a, b)
        assert np.array_equal(j_screened, j)
        assert ei_screened.tobytes() == ei.tobytes()

    def test_non_finite_entries(self):
        a, b = np.full((1, 6), -0.5), np.full((1, 6), 0.5)
        # a = -inf against b = +inf: z is NaN, and EI takes the limit max(a, 0) = 0
        a[0, 2], b[0, 2] = -np.inf, np.inf
        assert np.array_equal(eiopt.pick(a, b)[0], [0])
        for bad_a, bad_b in [(np.nan, 0.5), (-0.5, np.nan), (np.inf, 0.5), (-0.5, np.inf)]:
            a[0, 4], b[0, 4] = bad_a, bad_b
            with pytest.raises(ValueError, match="finite"):
                eiopt.pick(a, b)

    def test_bound_overflow_keeps_larger_finite_ei(self):
        # entry 0's bound overflows to inf with its EI finite; entry 1 has a
        # larger EI below a finite bound, and must still pass the screen
        big = np.finfo(float).max
        a = np.array([[big / (1 + 1.35e-4), big * (1 - 1e-6)]])
        b = a / [[3.0, 5.0]]
        vals = ei_unchecked(a, b)
        assert np.isfinite(vals).all() and vals[0, 1] > vals[0, 0]
        j, ei = eiopt.pick(a, b)
        assert j.tolist() == [1] and ei.tobytes() == vals[0, 1:].tobytes()

    def test_floored_entry_bounds_its_ei_exactly(self):
        # b = 1e-13 is below the floor, so EI = max(a, 0) = 0 there, under the
        # b*phi(0) = 4e-14 that the bound formula gives; the other entries' EI
        # is ~1e-22, and the largest of them is the pick
        a = np.array([[-0.009, 0.0, -0.0095, -0.009]])
        b = np.array([[1e-3, 1e-13, 1e-3, 1e-3]])
        j, ei = eiopt.pick(a, b)
        vals = ei_unchecked(a, b)
        assert 0 < vals[0, 0] < 1e-20 and vals[0, 1] == 0.0
        assert j.tolist() == [0] and ei.tobytes() == vals[0, :1].tobytes()

    def test_loop_reaches_the_floored_branch(self, monkeypatch):
        # noiseless re-queries at jitter 1e-20 leave posterior sds at or below
        # the floor: 9 of this run's 19 steps hand pick such a block (none at
        # the default jitter), and each pick is still the full evaluation's
        cfg = ExperimentConfig(grid_per_dim=20, noise_sd=0.0, T=20, trials=4, seed=1)
        prior = GridPrior.build(cfg)
        monkeypatch.setattr(gp, "JITTER_START", 1e-20)
        screened, picks = eiopt.pick, []

        def recording(a, b):
            j, ei = screened(a, b)
            picks.append((a.copy(), b.copy(), j, ei))
            return j, ei

        monkeypatch.setattr(eiopt, "pick", recording)
        eiopt.run_batch(cfg, prior, [trial_seed(cfg.seed, i) for i in range(cfg.trials)])
        floored = sum(b.min() <= SIGMA_FLOOR for _, b, _, _ in picks)
        assert len(picks) == 19 and 0 < floored < 19
        for a, b, j, ei in picks:
            j_full, ei_full = full_pick(a, b)
            assert np.array_equal(j, j_full) and ei.tobytes() == ei_full.tobytes()

    @pytest.mark.parametrize("overrides", [dict(noise_sd=0.05), dict(noise_sd=0.0), dict(noise_sd=0.05, kappa=3e-3)],
                             ids=["noisy", "noiseless_refit", "kappa"])
    def test_run_batch_equals_full_evaluation(self, monkeypatch, overrides):
        cfg = tiny_config(grid_per_dim=200, T=30, trials=8, **overrides)
        prior = GridPrior.build(cfg)
        refits = []
        if cfg.noise_sd == 0.0:
            # noiseless re-queries at jitter 1e-18 have pivots that are not positive
            monkeypatch.setattr(gp, "JITTER_START", 1e-18)
            original = eiopt.GridPosterior._refit
            monkeypatch.setattr(eiopt.GridPosterior, "_refit", lambda self, b: (refits.append(b), original(self, b)))
        evaluated = []
        monkeypatch.setattr(stdnormal, "ei_unchecked", lambda a, b: (evaluated.append(a.size), ei_unchecked(a, b))[1])
        seeds = [trial_seed(cfg.seed, i) for i in range(cfg.trials)]
        screened = eiopt.run_batch(cfg, prior, seeds)
        screened_size = sum(evaluated)
        evaluated.clear()
        monkeypatch.setattr(eiopt, "pick", full_pick)
        full = eiopt.run_batch(cfg, prior, seeds)
        for name in eiopt.COLUMNS:
            assert screened.columns[name].tobytes() == full.columns[name].tobytes(), name
        assert np.array_equal(screened.steps, full.steps)
        assert np.array_equal(kappa_stopped(screened, cfg.kappa), kappa_stopped(full, cfg.kappa))
        assert bool(refits) == (cfg.noise_sd == 0.0)
        assert kappa_stopped(full, cfg.kappa).any() == (cfg.kappa is not None)
        # the screen evaluated exact EI on a small part of the blocks
        assert screened_size < 0.25 * sum(evaluated)


def run_in_batches(config, size):
    """Traces of all the config's trials, run through ``run_batch`` in batches of ``size``."""
    prior = GridPrior.build(config)
    traces = []
    for start in range(0, config.trials, size):
        seeds = [trial_seed(config.seed, i) for i in range(start, min(start + size, config.trials))]
        batch = eiopt.run_batch(config, prior, seeds)
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
            lengths = {tr.t.size for tr in whole}
            assert len(lengths) > 1 and max(lengths) > min(lengths)  # trials stop at different t
            assert any(tr.ei_next[-1] < cfg.kappa for tr in whole)
        for size in (1, 7):
            assert [record(tr) for tr in run_in_batches(cfg, size)] == [record(tr) for tr in whole]


    def test_traces_keep_no_posterior_alive(self, monkeypatch):
        # a trace holds slices of the batch's columns, never of the posterior's V buffer
        made = []

        class Recording(eiopt.GridPosterior):
            def __init__(self, *args):
                super().__init__(*args)
                made.extend((weakref.ref(self), weakref.ref(self._V)))

        monkeypatch.setattr(eiopt, "GridPosterior", Recording)
        traces = run_in_batches(tiny_config(grid_per_dim=40, T=30, trials=5), 5)
        gc.collect()
        assert len(made) == 2 and all(ref() is None for ref in made) and len(traces) == 5


class TestFallbackLattice:
    @pytest.mark.parametrize("overrides", [dict(noise_sd=0.05), dict(noise_sd=0.0), dict(noise_sd=0.05, kappa=3e-3)],
                             ids=["noisy", "noiseless_refit", "kappa"])
    def test_lattice_gram_rows_give_the_same_bits(self, monkeypatch, overrides):
        # SE with lengthscale 1 needs a torus too large to pay off, so its
        # 200-point lattice draws through L and reads its rows as windows of
        # the kernel at lattice offsets; the same prior with its rows gathered
        # from lattice_gram records the same bits
        cfg = tiny_config(grid_per_dim=200, kernel=KernelSpec("se", 1.0), T=30, trials=8, **overrides)
        windows = GridPrior.build(cfg)
        assert windows.root_eig is None and windows.L is not None and windows.k_offsets is not None
        reference = gathered(windows, lattice_gram(cfg.kernel, 1, 200))
        refits = []
        if cfg.noise_sd == 0.0:
            # noiseless re-queries at jitter 1e-18 have pivots that are not
            # positive; the prior is built first, with its own factor's
            # jitter
            monkeypatch.setattr(gp, "JITTER_START", 1e-18)
            original = eiopt.GridPosterior._refit
            monkeypatch.setattr(eiopt.GridPosterior, "_refit", lambda self, b: (refits.append(b), original(self, b)))
        seeds = [trial_seed(cfg.seed, i) for i in range(cfg.trials)]
        a, b = (eiopt.run_batch(cfg, prior, seeds) for prior in (reference, windows))
        for name in eiopt.COLUMNS:
            assert a.columns[name].tobytes() == b.columns[name].tobytes(), name
        assert np.array_equal(a.steps, b.steps)
        assert np.array_equal(kappa_stopped(a, cfg.kappa), kappa_stopped(b, cfg.kappa))
        assert bool(refits) == (cfg.noise_sd == 0.0)
        assert kappa_stopped(a, cfg.kappa).any() == (cfg.kappa is not None)


def assert_picks_are_ei_maxima(cfg, seed):
    """Every pick of the loop's run of ``seed`` is the lowest-index tied
    maximum of EI recomputed from a ``gp.fit`` on the observations so far."""
    f, trace = run_once(cfg, seed)
    grid = cfg.grid_points()
    # rebuild the observation sequence and refit at each step
    obs_idx = trace.init_indices.tolist()
    rng_noise = segment(seed, NOISE)
    y = [float(f[j] + cfg.noise_sd * rng_noise.standard_normal()) for j in obs_idx]
    for j, ei_next in zip(trace.x_next_idx.tolist(), trace.ei_next):
        state = fit(cfg.kernel, grid[obs_idx], np.array(y), cfg.noise_var)
        y_plus = min(y)
        _, _, vals = ei_batch(state, y_plus, grid)
        # the loop's moments match the refit's to 1e-10 with noise, 1e-6 without
        assert vals.max() <= ei_next + (1e-12 if cfg.noise_sd > 0 else 1e-6)
        assert lowest_argmax(vals) == j
        obs_idx.append(j)
        y.append(float(f[j] + cfg.noise_sd * rng_noise.standard_normal()))


class TestSelectionOptimality:
    def test_no_candidate_beats_recorded_choice(self):
        assert_picks_are_ei_maxima(tiny_config(T=10, seed=303), 303)

    # both grids' posteriors read windows of the kernel at lattice offsets;
    # the 600-point grid is embedded, the 25-point one draws through L
    @pytest.mark.parametrize("noise_sd,grid_per_dim", [(0.0, 25), (0.05, 600), (0.0, 600)],
                             ids=["noiseless-25", "noisy-600", "noiseless-600"])
    def test_picks_are_ei_maxima(self, noise_sd, grid_per_dim):
        cfg = tiny_config(T=10, seed=303, noise_sd=noise_sd, grid_per_dim=grid_per_dim)
        assert (GridPrior.build(cfg).L is None) == (grid_per_dim == 600)
        assert_picks_are_ei_maxima(cfg, 303)
