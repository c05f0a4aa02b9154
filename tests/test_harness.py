"""Tests for config handling, campaign persistence, lemma plumbing, and figures."""

import concurrent.futures
import dataclasses
import math
import multiprocessing
import os
import re

import mpmath as mp
import numpy as np
import pytest

from gpei import bounds, eiopt, gp, harness
from gpei.stdnormal import ei_unchecked
from gpei.config import _FLAT_KEYS, ExperimentConfig, config_hash, from_flat, load_config, parse_config_file
from gpei.kernels import KernelSpec
from gpei.rng import NOISE, splitmix64, trial_seed


def tiny_config(**kw):
    base = dict(d=1, grid_per_dim=30, kernel=KernelSpec("se", 0.2), noise_sd=0.05,
                delta=0.1, T=20, T0=1, trials=3, seed=2024, theorem="thm46")
    base.update(kw)
    return ExperimentConfig(**base)


def scale_sigma(monkeypatch, factor):
    """Mutant: the grid posterior's sd times ``factor``."""
    sigma = eiopt.GridPosterior.sigma
    monkeypatch.setattr(eiopt.GridPosterior, "sigma", property(lambda self: factor * sigma.fget(self)))


def freeze_variance(monkeypatch):
    """Mutant: ``observe`` updates the posterior mean and restores the variance."""
    observe = eiopt.GridPosterior.observe

    def frozen(self, j, y):
        var = self.var.copy()
        observe(self, j, y)
        self.var = var

    monkeypatch.setattr(eiopt.GridPosterior, "observe", frozen)


class TestRngDerivation:
    def test_splitmix_reference_values(self):
        # reference outputs of the splitmix64 sequence from seed 0 and 1
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1

    def test_trial_seed_is_xor_of_splitmix(self):
        assert trial_seed(1234, 7) == 1234 ^ splitmix64(7)

    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig()
        cfg.validate()
        assert cfg.grid_size == 200
        assert cfg.kernel.lengthscale == pytest.approx(0.2 * cfg.r)

    @pytest.mark.parametrize("d", [1, 2])
    def test_grid_shape(self, d):
        cfg = tiny_config(d=d, grid_per_dim=7, T=6)
        pts = cfg.grid_points()
        assert pts.shape == (7**d, d)
        assert pts.min() == 0.0 and pts.max() == cfg.r
        if d == 1:
            assert pts[:, 0].tobytes() == np.linspace(0.0, cfg.r, 7).tobytes()

    def test_grid_cap(self):
        with pytest.raises(ValueError):
            tiny_config(d=4, grid_per_dim=10, T=12).validate()  # 10^4 > 4096

    def test_budget_must_fit_grid(self):
        with pytest.raises(ValueError):
            tiny_config(grid_per_dim=8, T=12).validate()

    @pytest.mark.parametrize("r", [1e152, 1e-150])
    def test_extreme_r_keeps_the_prior_and_picks_of_r_1(self, r):
        # with the lengthscale scaled along, r only rescales the lattice; the
        # spacing and the lengthscale are each rounded once more
        base = tiny_config()
        scaled = dataclasses.replace(base, r=r, kernel=KernelSpec("se", 0.2 * r))
        gap = np.max(np.abs(gp.GridPrior.build(base).k_offsets - gp.GridPrior.build(scaled).k_offsets))
        assert gap <= 4 * np.finfo(float).eps
        for a, b in zip(harness.run_campaign(base).traces, harness.run_campaign(scaled).traces, strict=True):
            assert a.x_next_idx.tolist() == b.x_next_idx.tolist()

    @pytest.mark.parametrize("r", [1.0, 1e-150, 1e152])
    def test_lengthscale_bound_scales_with_r(self, r):
        bound = 44.0 * r / math.sqrt(0.6 * np.finfo(float).max)
        tiny_config(r=r, kernel=KernelSpec("matern", bound, 2.5)).validate()
        with pytest.raises(ValueError, match="kernel_lengthscale"):
            tiny_config(r=r, kernel=KernelSpec("matern", np.nextafter(bound, 0.0), 2.5)).validate()

    def test_one_point_grid_exempt_from_budget_cap(self):
        tiny_config(grid_per_dim=1, T=8).validate()

    @pytest.mark.parametrize("field", ["d", "grid_per_dim", "T", "T0", "trials", "seed"])
    def test_bool_is_not_an_integer(self, field):
        # True == 1 passes every range check, but config.txt would say
        # "True", which load_config refuses
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: True}).validate()

    def test_theorem_and_delta_validation(self):
        with pytest.raises(ValueError):
            tiny_config(theorem="thm99").validate()
        with pytest.raises(ValueError):
            tiny_config(delta=0.0).validate()

    def test_flat_roundtrip(self):
        cfg = tiny_config(kernel=KernelSpec("matern", 0.3, nu=1.5), kappa=1e-6)
        rebuilt = from_flat(cfg.to_flat())
        assert rebuilt == cfg

    def test_hash_stability_and_sensitivity(self):
        cfg = tiny_config()
        assert config_hash(cfg) == config_hash(tiny_config())
        assert config_hash(cfg) != config_hash(tiny_config(seed=2025))

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# campaign setup\n"
            "d = 1\n"
            "grid_per_dim = 30\n"
            "T = 12\n"
            "noise_sd = 0.0\n"
            "kernel_family = se\n"
            "theorem = thm42\n"
        )
        cfg = load_config(str(path))
        assert cfg.noise_sd == 0.0
        assert cfg.theorem == "thm42"
        assert cfg.T == 12

    def test_cli_overrides_beat_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 1\ntrials = 5\nT = 12\ngrid_per_dim = 30\n")
        cfg = load_config(str(path), overrides={"seed": "99"})
        assert cfg.seed == 99 and cfg.trials == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            from_flat({"gamma": "3"})

    def test_lengthscale_defaults_to_fifth_of_box(self):
        cfg = from_flat({"r": "5.0", "grid_per_dim": "30", "T": "12"})
        assert cfg.kernel.lengthscale == pytest.approx(1.0)

    def test_kernel_nu_carries_over_within_its_family_only(self):
        matern = tiny_config(kernel=KernelSpec("matern", 0.3, nu=1.5))
        assert from_flat({"kernel_lengthscale": "0.5"}, base=matern).kernel == KernelSpec("matern", 0.5, 1.5)
        assert from_flat({"kernel_family": "se"}, base=matern).kernel == KernelSpec("se", 0.2)
        with pytest.raises(ValueError, match="kernel_nu"):
            from_flat({"kernel_family": "se", "kernel_nu": "1.5"}, base=matern)

    def test_bad_config_file_line(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("this is not a key value pair\n")
        with pytest.raises(ValueError):
            parse_config_file(str(path))


class TestFlatFormat:
    """The exact text behind ``config_hash`` and ``config.txt``."""

    def test_int_valued_floats_render_as_floats(self):
        cfg = ExperimentConfig(r=1, noise_sd=0, kappa=1)
        assert cfg.flat_text() == (
            "d = 1\nr = 1.0\ngrid_per_dim = 200\nkernel_family = se\nkernel_lengthscale = 0.2\n"
            "kernel_nu = \nnoise_sd = 0.0\ndelta = 0.1\nT = 60\nT0 = 1\ntrials = 200\nseed = 42\n"
            "theorem = thm46\nkappa = 1.0\n"
        )
        assert config_hash(cfg) == "316ccb9ffd87"

    def test_matern_with_nu_and_no_kappa(self):
        cfg = ExperimentConfig(d=2, r=2, grid_per_dim=16, kernel=KernelSpec("matern", 1, 2.5), delta=0.05,
                               T=30, T0=2, trials=5, seed=7, theorem="thm42", kappa=None)
        assert cfg.flat_text() == (
            "d = 2\nr = 2.0\ngrid_per_dim = 16\nkernel_family = matern\nkernel_lengthscale = 1.0\n"
            "kernel_nu = 2.5\nnoise_sd = 0.05\ndelta = 0.05\nT = 30\nT0 = 2\ntrials = 5\nseed = 7\n"
            "theorem = thm42\nkappa = \n"
        )
        assert config_hash(cfg) == "24e07684af18"

    def test_default_config(self):
        assert config_hash(ExperimentConfig()) == "5da4ba40e309"

    def test_every_field_has_exactly_one_key(self):
        # the twelve config fields, the kernel's three in its place, as 14 keys
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert len(fields) == 12
        paths = [f"kernel.{f.name}" for f in dataclasses.fields(KernelSpec)]
        paths += [name for name in fields if name != "kernel"]
        assert sorted(path for _, path, _ in _FLAT_KEYS.values()) == sorted(paths)
        assert list(ExperimentConfig().to_flat()) == [
            "d", "r", "grid_per_dim", "kernel_family", "kernel_lengthscale", "kernel_nu", "noise_sd", "delta",
            "T", "T0", "trials", "seed", "theorem", "kappa",
        ]


class TestCampaign:
    def test_files_written(self, tmp_path):
        cfg = tiny_config()
        result = harness.run_experiment(cfg, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["config.txt", "coverage.csv", "summary.txt", "traces.csv"]
        rows = (tmp_path / "traces.csv").read_text().splitlines()[2:]
        assert sorted({row.split(",")[0] for row in rows}) == [str(b) for b in range(cfg.trials)]
        assert result.variance_checked and result.variance_violations == 0

    def test_trace_csv_schema(self, tmp_path):
        cfg = tiny_config(T=20)
        harness.run_experiment(cfg, str(tmp_path))
        lines = (tmp_path / "traces.csv").read_text().splitlines()
        assert lines[0] == f"# config_hash={config_hash(cfg)} seed={cfg.seed}"
        assert lines[1] == (
            "trial,t,x_next_0,y_next,y_plus,mu_next,sigma_next,ei_next,"
            "sigma_at_star,r_t,r0_t,bound,holds"
        )
        assert [line.split(",")[0] for line in lines[2:]] == [
            str(b) for b in range(cfg.trials) for _ in range(cfg.T - cfg.T0)
        ]

    def test_coverage_csv_schema(self, tmp_path):
        cfg = tiny_config(T=12, noise_sd=0.0)
        result = harness.run_experiment(cfg, str(tmp_path))
        lines = (tmp_path / "coverage.csv").read_text().splitlines()
        assert lines[0] == f"# config_hash={config_hash(cfg)} seed={cfg.seed}"
        assert lines[1] == (
            "theorem,t,trials,holds,holds_frequency,wilson_lower,bound_mean,bound_min,"
            "r_t_mean,r_t_max,margin_min,sigma_win_mean,sigma_win_min_mean,passed"
        )
        row = result.coverage[0]
        assert lines[2] == ",".join(
            [row.theorem, str(row.t), str(row.trials), str(row.holds)]
            + [repr(row.holds_frequency), repr(row.wilson_lower), repr(row.bound_mean), repr(row.bound_min),
               repr(row.r_t_mean), repr(row.r_t_max), repr(row.margin_min), repr(row.sigma_win_mean),
               repr(row.sigma_win_min_mean), str(int(row.passed))]
        )
        assert len(lines) == 2 + len(result.coverage)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config()
        a, b = tmp_path / "a", tmp_path / "b"
        harness.run_experiment(cfg, str(a))
        harness.run_experiment(cfg, str(b))
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_rerun_with_fewer_trials_leaves_no_stale_traces(self, tmp_path):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        harness.run_experiment(tiny_config(trials=12), str(reused))
        (reused / "notes.txt").write_text("kept")
        (reused / "trace_0007.csv.bak").write_text("kept")
        harness.run_experiment(tiny_config(trials=5), str(reused))
        harness.run_experiment(tiny_config(trials=5), str(fresh))
        assert (reused / "notes.txt").read_text() == (reused / "trace_0007.csv.bak").read_text() == "kept"
        names = sorted(os.listdir(fresh))
        assert sorted(set(os.listdir(reused)) - {"notes.txt", "trace_0007.csv.bak"}) == names
        for name in names:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_campaign_adds_four_files_and_deletes_none(self, tmp_path):
        # the kappa-stopped d=2, 16x16 Matern-5/2 noiseless campaign, in batches
        # of 25 and 5 trials (two pool tasks with two workers)
        cfg = ExperimentConfig(d=2, grid_per_dim=16, kernel=KernelSpec("matern", 0.2, 2.5), T=40, trials=30,
                               seed=42, kappa=1e-3, noise_sd=0.0, theorem="thm42")
        assert [len(c) for c in harness.trial_chunks(cfg)] == [25, 5]
        texts = []
        for workers in (1, 2):
            out = tmp_path / str(workers)
            out.mkdir()
            (out / "trace_0000.csv").write_text("legacy")
            (out / "notes.txt").write_text("kept")
            result = harness.run_experiment(cfg, str(out), workers=workers)
            assert sorted(os.listdir(out)) == [
                "config.txt", "coverage.csv", "notes.txt", "summary.txt", "trace_0000.csv", "traces.csv",
            ]
            assert (out / "trace_0000.csv").read_text() == "legacy" and (out / "notes.txt").read_text() == "kept"
            text = (out / "traces.csv").read_text()
            rows = [line.split(",") for line in text.splitlines()[2:]]
            y_next = 2 + cfg.d  # after trial, t and x_next_*
            expected = [[str(b), str(t), repr(y)] for b, tr in enumerate(result.traces)
                        for t, y in zip(tr.t.tolist(), tr.y_next.tolist(), strict=True)]
            assert [[cells[0], cells[1], cells[y_next]] for cells in rows] == expected
            assert len({tr.t.size for tr in result.traces}) > 1  # kappa stopped some trials early
            texts.append(text)
        assert texts[0] == texts[1]

    def test_pool_workers_take_the_parents_prior(self, tmp_path, monkeypatch):
        # a forked worker inherits the patch and its one recorded call, so a
        # worker that factored the prior again would fail its chunk (a spawned
        # worker imports the real GridPrior.build and is checked by the bytes only)
        cfg = tiny_config(grid_per_dim=400, T=60, trials=12)
        a, b = tmp_path / "serial", tmp_path / "parallel"
        harness.run_experiment(cfg, str(a), workers=1)
        calls, original = [], gp.GridPrior.build

        def build_once(config):
            calls.append(os.getpid())
            if len(calls) > 1:
                raise AssertionError(f"GridPrior.build called again in process {os.getpid()}")
            return original(config)

        monkeypatch.setattr(gp.GridPrior, "build", build_once)
        harness.run_experiment(cfg, str(b), workers=2)
        assert calls == [os.getpid()]
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_spawned_workers_match_serial(self, tmp_path, monkeypatch):
        # a spawned worker receives the prior pickled, without its windows
        # view, and rebuilds the view where it reads rows
        spawn = multiprocessing.get_context("spawn")

        class SpawnPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kw):
                super().__init__(max_workers, mp_context=spawn, **kw)

        cfg = tiny_config(grid_per_dim=400, T=60, trials=12)
        a, b = tmp_path / "serial", tmp_path / "parallel"
        harness.run_experiment(cfg, str(a), workers=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpawnPool)
        harness.run_experiment(cfg, str(b), workers=2)
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_pool_task_returns_its_batch_alone(self, monkeypatch):
        # the parent slices each trial's trace from the batch, so a task
        # pickles no trace
        cfg = tiny_config(grid_per_dim=400, T=60, trials=12)
        monkeypatch.setattr(harness, "_worker_campaign", (cfg, gp.GridPrior.build(cfg)))
        batch = harness._worker_trials(harness.trial_chunks(cfg)[0])
        assert isinstance(batch, eiopt.Batch) and batch.seeds == tuple(trial_seed(cfg.seed, i) for i in range(10))

    def test_one_config_hash_per_campaign(self, monkeypatch):
        # two batches, one hash: it lives on the result, not on each trace
        cfg = tiny_config(grid_per_dim=400, T=60, trials=12)
        assert len(harness.trial_chunks(cfg)) == 2
        hashed = []
        monkeypatch.setattr(harness, "config_hash", lambda c: (hashed.append(c), config_hash(c))[1])
        result = harness.run_campaign(cfg)
        assert hashed == [cfg] and result.config_hash == config_hash(cfg)

    @pytest.mark.parametrize("overrides,sizes", [(dict(), [3]), (dict(grid_per_dim=400, T=60, trials=12), [10, 2])])
    def test_pool_starts_one_worker_per_chunk_at_most(self, tmp_path, monkeypatch, overrides, sizes):
        # a pool worker given no chunk would only cost a process start; a
        # single chunk runs in-process with no pool; 400 points and T=60 give
        # batches of 10 trials, so 12 trials are two pool tasks and two serial
        # batches, and the two runs write the same bytes
        started = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kw):
                started.append(max_workers)
                super().__init__(max_workers, **kw)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = tiny_config(**overrides)
        assert [len(c) for c in harness.trial_chunks(cfg)] == sizes
        chunks = len(sizes)
        a, b = tmp_path / "serial", tmp_path / "parallel"
        harness.run_experiment(cfg, str(a), workers=1)
        harness.run_experiment(cfg, str(b), workers=4)
        assert started == ([chunks] if chunks > 1 else [])
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_noiseless_campaign_skips_variance_check(self, tmp_path):
        cfg = tiny_config(noise_sd=0.0, T=12)
        result = harness.run_experiment(cfg, str(tmp_path))
        assert not result.variance_checked
        assert "variance_sum SKIPPED" in (tmp_path / "summary.txt").read_text()
        # noiseless window divisor 2 admits small t, so coverage rows exist
        assert len(result.coverage) > 0

    @pytest.mark.parametrize("noise_sd", [0.05, 0.0])
    def test_stored_checks_match_fresh_evaluation(self, tmp_path, noise_sd):
        cfg = ExperimentConfig(trials=2, noise_sd=noise_sd)
        result = harness.run_experiment(cfg, str(tmp_path))
        c = bounds.constants_for(cfg.theorem, cfg.delta, noisy=noise_sd > 0)
        valid = bounds.valid_ts(c, cfg.T0, cfg.T)
        checks = result.checks
        assert checks.t.tolist() == valid != []
        assert checks.bound.shape == (cfg.trials, len(valid)) and not np.isnan(checks.r_t).any()
        rows = [line.split(",") for line in (tmp_path / "traces.csv").read_text().splitlines()[2:]]
        for i, trace in enumerate(result.traces):
            for k, t in enumerate(valid):
                fresh = bounds.empirical_bound_check(trace, c, trace.f_abs_max, noise_sd, t)
                assert (checks.bound[i, k], checks.r_t[i, k], checks.holds[i, k]) == fresh
                window = (checks.sigma_win_max[i, k], checks.sigma_win_min[i, k])
                assert window == bounds.window_sigma(trace, c, t)
            trial_rows = [cells for cells in rows if cells[0] == str(i)]
            assert len(trial_rows) == trace.t.size
            for cells in trial_rows:
                t = int(cells[1])
                if t not in valid:
                    assert cells[-2:] == ["", ""]
                else:
                    k = valid.index(t)
                    assert cells[-2:] == [repr(float(checks.bound[i, k])), str(int(checks.holds[i, k]))]

    @pytest.mark.parametrize("noise_sd", [0.05, 0.0])
    def test_both_bound_families_run_the_same_trajectories(self, noise_sd):
        # the theorem picks the bound that is checked, never a step of the loop
        thm42, thm46 = (harness.run_campaign(ExperimentConfig(trials=8, T=30, noise_sd=noise_sd, theorem=theorem))
                        for theorem in ("thm42", "thm46"))
        for a, b in zip(thm42.traces, thm46.traces, strict=True):
            for field in dataclasses.fields(eiopt.Trace):
                x, y = np.asarray(getattr(a, field.name)), np.asarray(getattr(b, field.name))
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name

    def test_valid_bound_ts_are_the_defined_iterations(self):
        for theorem in ("thm42", "thm46"):
            for noise_sd in (0.05, 0.0):
                for delta in (0.5, 0.1, 0.01):
                    c = bounds.constants_for(theorem, delta, noisy=noise_sd > 0)
                    for T0, T in ((1, 2), (1, 30), (7, 60), (25, 26), (3, 4)):
                        cfg = tiny_config(theorem=theorem, noise_sd=noise_sd, delta=delta, T0=T0, T=T)
                        defined = [t for t in range(T0, T) if t > c.window_divisor and t >= c.t_min]
                        assert bounds.valid_ts(c, cfg.T0, cfg.T) == defined, (theorem, noise_sd, delta, T0, T)

    @pytest.mark.parametrize("overrides", [dict(T=18), dict(T=2, noise_sd=0.0, theorem="thm42")])
    def test_campaign_that_checks_no_bound_is_rejected(self, monkeypatch, overrides):
        # noisy thm46 needs t >= t_min ~ 17.7 (T=18 ends at t=17); noiseless thm42 needs t > 2
        cfg = tiny_config(**overrides)
        c = bounds.constants_for(cfg.theorem, cfg.delta, noisy=cfg.noise_sd > 0)
        assert bounds.valid_ts(c, cfg.T0, cfg.T) == []
        monkeypatch.setattr(gp.GridPrior, "build", lambda config: pytest.fail("the prior was built"))
        names = rf"t > {c.window_divisor} \(the window divisor\).*t_min={re.escape(repr(c.t_min))}"
        with pytest.raises(ValueError, match=names):
            harness.run_campaign(cfg)

    def test_single_point_grid_trivial_coverage(self, tmp_path):
        cfg = tiny_config(grid_per_dim=1, T=20, trials=1)
        result = harness.run_experiment(cfg, str(tmp_path))
        assert result.passed and len(result.coverage) > 0
        for row in result.coverage:
            assert row.holds_frequency == 1.0

    def test_coverage_row_invariants(self):
        cfg = tiny_config(T=12, noise_sd=0.0)
        result = harness.run_campaign(cfg)
        for row in result.coverage:
            assert 0.0 <= row.holds_frequency <= 1.0
            assert row.wilson_lower <= row.holds_frequency
            assert row.trials == cfg.trials

    def test_kappa_stopped_rows_judged_at_their_trial_count(self, tmp_path):
        # kappa stopping leaves fewer than 6 trials at late t; such a row's
        # target is the one at its own trial count, lower than the 6-trial one
        cfg = ExperimentConfig(d=2, grid_per_dim=16, T=40, trials=6, seed=42, kappa=1e-3,
                               noise_sd=0.0, theorem="thm42")
        result = harness.run_experiment(cfg, str(tmp_path))
        row = next((r for r in result.coverage if r.trials < cfg.trials), None)
        assert row is not None
        assert row.target == harness.coverage_target(cfg.delta, row.trials) < harness.coverage_target(cfg.delta, 6)
        assert {r.trials for r in result.coverage} > {6, row.trials}
        summary = (tmp_path / "summary.txt").read_text().splitlines()
        for r in result.coverage:
            line = next(x for x in summary if x.startswith(f"check coverage[thm42,t={r.t}] "))
            assert f" target={r.target!r} trials={r.trials} " in line
            assert r.target == harness.coverage_target(cfg.delta, r.trials)
            assert r.passed == (r.holds_frequency >= r.target)

    def test_two_dimensional_campaign(self, tmp_path):
        cfg = tiny_config(d=2, grid_per_dim=12, T=20, trials=2)
        result = harness.run_experiment(cfg, str(tmp_path))
        assert result.passed and len(result.coverage) > 0
        header = (tmp_path / "traces.csv").read_text().splitlines()[1]
        assert header.startswith("trial,t,x_next_0,x_next_1,y_next")

    def test_matern_noiseless_campaign(self):
        cfg = tiny_config(
            kernel=KernelSpec("matern", 0.2, nu=1.5), noise_sd=0.0, T=20,
            grid_per_dim=40, theorem="thm42",
        )
        result = harness.run_campaign(cfg)
        assert result.passed and not result.variance_checked


def coverage_row(t, hits, n, delta=0.1):
    freq, target, wilson, passed = harness._verdict(hits, n, delta)
    return harness.CoverageRow("thm46", t, n, hits, freq, wilson, *[0.0] * 7, target, passed)


class TestSummaryLines:
    """Each kind of summary line, pinned to the bytes the hand-written formats
    wrote before every ``check`` line came from one renderer."""

    def summary(self, rows, violations, noise_sd, passed):
        cfg = tiny_config(trials=20, noise_sd=noise_sd)
        result = harness.CampaignResult(cfg, config_hash(cfg), tuple(rows), (), None, violations, noise_sd > 0, passed)
        return harness.campaign_summary_lines(result)

    def test_coverage_fail_and_variance_fail(self):
        lines = self.summary([coverage_row(18, 20, 20), coverage_row(19, 13, 20)], 1, 0.05, False)
        assert lines == [
            "# config_hash=c29cee202eab seed=2024",
            "target holds_frequency >= (1-delta) minus 3 SE at the row's trial count",
            "check coverage[thm46,t=18] PASS holds_frequency=1.0 target=0.698753882025019 trials=20 "
            "wilson_lower=0.7508945989012465",
            "check coverage[thm46,t=19] FAIL holds_frequency=0.65 target=0.698753882025019 trials=20 "
            "wilson_lower=0.37166182104731277",
            "check variance_sum FAIL violations=1/20",
            "overall FAIL",
        ]

    def test_variance_pass(self):
        lines = self.summary([coverage_row(18, 19, 20)], 0, 0.05, True)
        assert lines[2:] == [
            "check coverage[thm46,t=18] PASS holds_frequency=0.95 target=0.698753882025019 trials=20 "
            "wilson_lower=0.681702888085763",
            "check variance_sum PASS violations=0/20",
            "overall PASS",
        ]

    def test_noiseless_skipped(self):
        lines = self.summary([coverage_row(43, 1, 1)], 0, 0.0, True)
        assert lines == [
            "# config_hash=67758361f68e seed=2024",
            "target holds_frequency >= (1-delta) minus 3 SE at the row's trial count",
            "check coverage[thm46,t=43] PASS holds_frequency=1.0 target=-1.1102230246251565e-16 trials=1 "
            "wilson_lower=0.13097754328018593",
            "check variance_sum SKIPPED (noiseless run)",
            "overall PASS",
        ]

    def test_lemma_lines(self):
        assert harness.verify_lemma("tail_bound", tiny_config()).line == (
            "check lemma[tail_bound] PASS points=400.0 min_margin=5.709986717119945e-15")
        report = harness.LemmaReport("fmu", False, (("n", 500.0), ("frequency", 0.1 + 0.2)))
        assert report.line == "check lemma[fmu] FAIL n=500.0 frequency=0.30000000000000004"


LOOP_CAMPAIGNS = [
    dict(noise_sd=0.05),
    dict(noise_sd=0.0),
    dict(noise_sd=0.05, kappa=3e-3),
    dict(noise_sd=0.0, kappa=1e-3, theorem="thm42"),
]


class TestLoopConsistency:
    """The loop's rules, as one array expression per column of every trace."""

    @pytest.mark.parametrize("overrides", LOOP_CAMPAIGNS)
    def test_trace_columns_obey_the_loop_rules(self, overrides):
        cfg = tiny_config(grid_per_dim=40, T=30, trials=12, **overrides)
        result = harness.run_campaign(cfg)
        stopped = [] if cfg.kappa is None else [tr.ei_next[-1] < cfg.kappa for tr in result.traces]
        assert any(stopped) == (cfg.kappa is not None)
        prior = gp.GridPrior.build(cfg)
        for tr in result.traces:
            assert np.array_equal(tr.ei_next, ei_unchecked(tr.y_plus - tr.mu_next, tr.sigma_next))
            assert np.array_equal(tr.r_t, tr.y_plus - tr.f_star)
            assert (tr.r0_t >= 0).all()
            f = prior.draw([tr.seed])[0]
            rng = np.random.default_rng(tr.seed)
            rng.bit_generator.advance(NOISE * 2**64)  # the trial stream's noise segment
            eps = cfg.noise_sd * rng.standard_normal(cfg.T)
            y0 = f[tr.init_indices] + eps[: cfg.T0]
            assert np.array_equal(tr.f_next, f[tr.x_next_idx])
            assert np.array_equal(tr.y_next, tr.f_next + eps[tr.t])
            running = np.minimum.accumulate(np.concatenate([[y0.min()], tr.y_next]))
            assert np.array_equal(tr.y_plus, running[:-1])


def reference_bound(c, t, m, noise_sd, s):
    """The scalar bound expression in plain Python floats, operation for operation."""
    if c.flavor.endswith("-noisy"):
        c_t = 2.0 * math.log(math.pi**2 * t * t / (2.0 * c.delta))
        decay = c.lead * (m + math.sqrt(c_t) * noise_sd) * 6.0 / (t - 3)
    else:
        decay = c.lead * m * 4.0 / (t - 2)
    return c.outer * (decay + c.window * s)


class TestVectorisedChecks:
    """The campaign's array evaluation of every (trial, t) check and coverage
    row is bitwise equal to a plain-Python evaluation one (trial, t) at a time."""

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(d=2, grid_per_dim=16, T=40, trials=6, seed=42, kappa=1e-3, noise_sd=0.0, theorem="thm42"),
        ExperimentConfig(d=2, grid_per_dim=16, T=40, trials=40, seed=42, kappa=3e-3, theorem="thm46"),
        ExperimentConfig(T0=7, trials=30, seed=2718),
        ExperimentConfig(T0=7, trials=30, seed=2718, noise_sd=0.0, theorem="thm42"),
    ], ids=["kappa_2d_noiseless", "kappa_2d_noisy", "t0_7_noisy", "t0_7_noiseless"])
    def test_checks_and_coverage_equal_the_scalar_reference(self, cfg):
        result = harness.run_campaign(cfg)
        c = bounds.constants_for(cfg.theorem, cfg.delta, noisy=cfg.noise_sd > 0)
        checks = result.checks
        ts = checks.t.tolist()
        assert ts == bounds.valid_ts(c, cfg.T0, cfg.T)
        if cfg.kappa is not None:
            assert 0 < np.isnan(checks.r_t).sum() < checks.r_t.size  # trials stop at different t
        per_t = {t: [] for t in ts}
        for i, tr in enumerate(result.traces):
            row_at = dict(zip(tr.t.tolist(), zip(tr.sigma_next.tolist(), tr.r_t.tolist())))
            for k, t in enumerate(ts):
                if t not in row_at:
                    got = (checks.sigma_win_max[i, k], checks.sigma_win_min[i, k], checks.bound[i, k], checks.r_t[i, k])
                    assert np.isnan(got).all() and not checks.holds[i, k]
                    continue
                lo, hi = bounds.window_range(c, t)
                window = [s for u, (s, _) in row_at.items() if lo <= u <= hi]
                r_t = row_at[t][1]
                bound = reference_bound(c, t, tr.f_abs_max, cfg.noise_sd, max(window))
                assert bound == bounds.bound_value(c, t, tr.f_abs_max, cfg.noise_sd, max(window))
                got = (checks.sigma_win_max[i, k], checks.sigma_win_min[i, k], checks.bound[i, k], checks.r_t[i, k])
                assert got == (max(window), min(window), bound, r_t)
                assert checks.holds[i, k] == (r_t <= bound)
                per_t[t].append((bound, r_t, r_t <= bound, max(window), min(window)))
        rows = [(t, at) for t, at in per_t.items() if at]
        assert [row.t for row in result.coverage] == [t for t, _ in rows]
        for row, (t, at) in zip(result.coverage, rows):
            bound, r_t, holds, smax, smin = (np.array(x) for x in zip(*at))
            assert (row.trials, row.holds) == (len(at), int(holds.sum()))
            expected = (np.mean(bound), np.min(bound), np.mean(r_t), np.max(r_t), np.min(bound - r_t),
                        np.mean(smax), np.mean(smin))
            got = (row.bound_mean, row.bound_min, row.r_t_mean, row.r_t_max, row.margin_min,
                   row.sigma_win_mean, row.sigma_win_min_mean)
            assert got == expected, t


def poison_filler(run_batch):
    """``run_batch`` with every column entry after a trial's steps (the filler a
    kappa stop leaves) replaced by a value that no check may see: sigma_next
    0.75, inside the domain of ``bounds.bound_value``, and 10**9 elsewhere."""

    def poisoned(config, prior, seeds):
        batch = run_batch(config, prior, seeds)
        filler = np.arange(config.T - config.T0) >= batch.steps[:, None]
        columns = {name: col.copy() for name, col in batch.columns.items()}
        for name, col in columns.items():
            col[filler] = 0.75 if name == "sigma_next" else 10**9
        return dataclasses.replace(batch, columns=columns)

    return poisoned


class TestBatchColumns:
    """A campaign checks the columns of its batches, filler included, and masks
    every (trial, t) past the trial's steps."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checks_equal_each_trace_alone(self, tmp_path, monkeypatch, workers):
        # the kappa-stopped d=2, 16x16 Matern-5/2 noiseless campaign, in batches
        # of 25 and 5 trials (two pool tasks with two workers); forked workers
        # inherit the poisoned run_batch
        cfg = ExperimentConfig(d=2, grid_per_dim=16, kernel=KernelSpec("matern", 0.2, 2.5), T=40, trials=30,
                               seed=42, kappa=1e-3, noise_sd=0.0, theorem="thm42")
        assert [len(c) for c in harness.trial_chunks(cfg)] == [25, 5]
        clean, poisoned = tmp_path / "clean", tmp_path / "poisoned"
        harness.run_experiment(cfg, str(clean), workers=workers)
        monkeypatch.setattr(eiopt, "run_batch", poison_filler(eiopt.run_batch))
        result = harness.run_experiment(cfg, str(poisoned), workers=workers)
        assert sorted(os.listdir(clean)) == sorted(os.listdir(poisoned))
        for name in sorted(os.listdir(clean)):
            assert (clean / name).read_bytes() == (poisoned / name).read_bytes(), name

        c = bounds.constants_for(cfg.theorem, cfg.delta, noisy=False)
        ts = bounds.valid_ts(c, cfg.T0, cfg.T)
        stopped = 0
        for i, tr in enumerate(result.traces):
            k = sum(t - cfg.T0 < tr.t.size for t in ts)  # the checked t this trial recorded
            alone = bounds.check_columns(c, ts[:k], cfg.T0, tr.sigma_next[:, None], tr.r_t[:, None], [tr.t.size],
                                         [tr.f_abs_max], cfg.noise_sd)
            for name in ("sigma_win_max", "sigma_win_min", "bound", "r_t"):
                got = getattr(result.checks, name)[i]
                assert got[:k].tobytes() == getattr(alone, name)[0].tobytes(), name
                assert np.isnan(got[k:]).all(), name
            assert result.checks.holds[i].tolist() == alone.holds[0].tolist() + [False] * (len(ts) - k)
            stopped += k < len(ts)
        assert 0 < stopped < cfg.trials


class TestOneKernelSource:
    def test_campaign_and_lemmas_run_without_fit_or_full_gram(self, monkeypatch):
        # every posterior of a campaign or lemma protocol takes its kernel
        # values from the prior's rows: the reference fit never runs, also
        # when a failed pivot forces a refit, and a campaign on an embedded
        # 600-point grid assembles no n-by-n Gram matrix
        from gpei import kernels

        refits, gram_sizes = [], []
        original_refit, original_gram = eiopt.GridPosterior._refit, kernels.gram
        monkeypatch.setattr(eiopt.GridPosterior, "_refit", lambda self, b: (refits.append(b), original_refit(self, b)))
        monkeypatch.setattr(gp, "fit", lambda *a: pytest.fail("gp.fit called"))
        monkeypatch.setattr(kernels, "gram", lambda spec, X: (gram_sizes.append(len(X)), original_gram(spec, X))[1])
        for lemma in ("fmu", "iei_add", "iei_ratio"):
            assert harness.verify_lemma(lemma, tiny_config(), n=500).passed, lemma
        assert not refits
        cfg = tiny_config(grid_per_dim=600, noise_sd=0.0)
        prior = gp.GridPrior.build(cfg)
        assert prior.root_eig is not None and prior.L is None
        # noiseless re-queries at jitter 1e-18 have pivots that are not
        # positive; the prior is built first, since the embedding's own
        # tolerance is the jitter
        monkeypatch.setattr(gp.GridPrior, "build", lambda config: prior)
        monkeypatch.setattr(gp, "JITTER_START", 1e-18)
        result = harness.run_campaign(cfg)
        assert refits and result.passed
        assert cfg.grid_size not in gram_sizes

    @pytest.mark.parametrize("kernel", [KernelSpec("se", 0.2), KernelSpec("se", 1.0)], ids=["embedded", "fallback"])
    def test_campaign_and_verify_all_call_no_kernel_matrix(self, tmp_path, monkeypatch, capsys, kernel):
        # every kernel value a prior holds comes from its lattice offsets: a
        # campaign and verify all call neither gram nor cross_matrix, on a
        # lattice that is embedded and on one that falls back
        from gpei import cli, kernels

        cfg = tiny_config(grid_per_dim=200, kernel=kernel)
        assert (gp.GridPrior.build(cfg).L is None) == (kernel.lengthscale == 0.2)
        for name in ("gram", "cross_matrix"):
            monkeypatch.setattr(kernels, name, lambda *a, name=name: pytest.fail(f"kernels.{name} called"))
        assert harness.run_campaign(cfg).passed
        path = tmp_path / "exp.cfg"
        path.write_text(cfg.flat_text())
        assert cli.main(["verify", "all", "--config", str(path), "--trials", "500", "--out", str(tmp_path / "v")]) == 0
        assert capsys.readouterr().out.count(" PASS ") == len(harness.LEMMA_IDS)


class TestPriorFactorization:
    # an n-by-n chol_with_jitter during a campaign can only be the prior's
    # factorization; a refit factors a t-by-t block
    @pytest.mark.parametrize("overrides,expected", [
        (dict(trials=4), 0),
        (dict(d=2, grid_per_dim=16, kernel=KernelSpec("matern", 0.2, 2.5), T=30, trials=2), 0),
        (dict(kernel=KernelSpec("se", 1.0), T=30, trials=2), 1),
    ], ids=["default_1d", "matern52_16x16", "se_lengthscale_r"])
    def test_full_size_factorizations(self, monkeypatch, overrides, expected):
        cfg = ExperimentConfig(**overrides)
        shapes = []
        original = gp.chol_with_jitter
        monkeypatch.setattr(gp, "chol_with_jitter", lambda K: (shapes.append(K.shape), original(K))[1])
        harness.run_campaign(cfg)
        assert shapes.count((cfg.grid_size, cfg.grid_size)) == expected

    def test_fmu_factors_only_a_fallback_prior(self, monkeypatch):
        # fmu runs the loop on the config grid's prior: its one factorization
        # is that prior's n-by-n K on a lattice that falls back, and there is
        # none on a lattice that embeds
        factored = []
        original = gp.chol_with_jitter
        monkeypatch.setattr(gp, "chol_with_jitter", lambda K: (factored.append(K.copy()), original(K))[1])
        for kernel, fallback in ((KernelSpec("se", 0.2), False), (KernelSpec("se", 1.0), True)):
            cfg = ExperimentConfig(kernel=kernel)
            factored.clear()
            assert harness.verify_lemma("fmu", cfg, n=500).passed
            assert len(factored) == fallback
            if fallback:
                assert np.array_equal(factored[0], gp.GridPrior.build(cfg).rows(np.arange(cfg.grid_size)))


class TestWilson:
    def test_lower_bound_properties(self):
        assert harness.wilson_lower(100, 100) < 1.0
        assert harness.wilson_lower(0, 50) == 0.0
        assert harness.wilson_lower(95, 100) < 0.95
        mid = harness.wilson_lower(50, 100)
        assert 0.3 < mid < 0.5


class TestBinomialTails:
    @pytest.mark.parametrize("n", [10, 2000])
    @pytest.mark.parametrize("p", [0.05, 0.5, 0.9, 0.968])
    def test_against_mpmath(self, n, p):
        with mp.workdps(50):
            pmf = [mp.binomial(n, k) * mp.mpf(p) ** k * (1 - mp.mpf(p)) ** (n - k) for k in range(n + 1)]
            for hits in sorted({0, 1, n // 3, round(n * p), n - 1, n}):
                lower, upper = harness.binomial_tails(hits, n, p)
                for got, want in ((lower, mp.fsum(pmf[: hits + 1])), (upper, mp.fsum(pmf[hits:]))):
                    if want > 1e-300:  # below that the double underflows
                        assert abs(got - want) <= 1e-10 * want
        assert harness.binomial_tails(0, n, p)[1] == pytest.approx(1.0, rel=1e-12)  # P(X >= 0)
        assert harness.binomial_tails(n, n, p)[0] == pytest.approx(1.0, rel=1e-12)  # P(X <= n)

    def test_certain_success_and_bad_counts(self):
        assert harness.binomial_tails(4, 10, 1.0) == (0.0, 1.0)
        assert harness.binomial_tails(10, 10, 1.0) == (1.0, 1.0)
        for hits in (-1, 11):
            with pytest.raises(ValueError):
                harness.binomial_tails(hits, 10, 0.5)


class TestVerifyLemmaPlumbing:
    def test_unknown_lemma(self):
        with pytest.raises(ValueError):
            harness.verify_lemma("no_such_lemma", tiny_config())

    def test_mc_lemma_requires_500(self):
        with pytest.raises(ValueError):
            harness.verify_lemma("fmu", tiny_config(), n=100)

    def test_closed_form_lemmas_pass(self):
        cfg = tiny_config()
        for lemma in ("tail_bound", "tau_vs_phi", "ei_monotone"):
            report = harness.verify_lemma(lemma, cfg)
            assert report.passed, lemma

    def test_verify_lemmas_builds_the_prior_once_and_only_when_read(self, monkeypatch):
        # fmu, fmu_t, iei_add and iei_ratio read the config grid's prior:
        # verify_lemmas builds it once for all of them, not at all for the
        # closed-form lemmas alone, and not before every id is known (the
        # CLI test of verify all checks its bytes against one id at a time)
        cfg = tiny_config(grid_per_dim=40, T=30)
        builds, original = [], gp.GridPrior.build
        monkeypatch.setattr(gp.GridPrior, "build", lambda config: (builds.append(config), original(config))[1])
        with pytest.raises(ValueError, match="unknown lemma"):
            harness.verify_lemmas(["fmu", "no_such_lemma"], cfg)
        closed = harness.verify_lemmas(["tail_bound", "tau_vs_phi", "ei_monotone"], cfg)
        assert builds == [] and all(report.passed for report in closed)
        reports = harness.verify_lemmas(harness.LEMMA_IDS, cfg, n=500)
        assert builds == [cfg] and [report.lemma for report in reports] == list(harness.LEMMA_IDS)

    def test_fmu_t_is_refused_before_anything_runs(self, monkeypatch):
        # fmu_t's 30-step runs do not fit a 6-point grid: verify_lemmas
        # refuses them with its up-front checks, so neither the prior nor
        # fmu, which comes first, is computed for nothing
        calls = []
        monkeypatch.setattr(gp.GridPrior, "build", lambda config: calls.append("build"))
        for key, (protocol, size, reads_prior) in list(harness._LEMMAS.items()):
            recorded = lambda config, n, prior, key=key: calls.append(key)
            monkeypatch.setitem(harness._LEMMAS, key, (recorded, size, reads_prior))
        cfg = ExperimentConfig(grid_per_dim=6, T=6)
        with pytest.raises(ValueError, match="T=30 exceeds grid size 6"):
            harness.verify_lemmas(harness.LEMMA_IDS, cfg)
        assert calls == []
        harness.verify_lemmas(["fmu", "tail_bound"], cfg)
        assert calls == ["build", "fmu", "tail_bound"]

    def test_one_step_runs_are_refused_before_anything_runs(self, monkeypatch):
        # the pointwise lemmas' one-step runs have budget T0 + 1 = 3, more
        # than a 2-point grid holds: verify_lemmas refuses them before the
        # prior or tail_bound, which comes first, is computed
        calls = []
        monkeypatch.setattr(gp.GridPrior, "build", lambda config: calls.append("build"))
        for key, (protocol, size, run_config) in list(harness._LEMMAS.items()):
            recorded = lambda config, n, prior, key=key: calls.append(key)
            monkeypatch.setitem(harness._LEMMAS, key, (recorded, size, run_config))
        cfg = ExperimentConfig(grid_per_dim=2, T=2, T0=2)
        for lemma in ("fmu", "iei_add", "iei_ratio"):
            with pytest.raises(ValueError, match="T=3 exceeds grid size 2"):
                harness.verify_lemmas(["tail_bound", lemma], cfg)
        assert calls == []

    def test_pointwise_lemmas_run_on_a_two_point_grid(self):
        # one-step runs fit every grid of at least T0 + 1 = 2 points
        reports = harness.verify_lemmas(["fmu", "iei_add", "iei_ratio"], ExperimentConfig(grid_per_dim=2, T=2), n=500)
        assert all(report.passed for report in reports)

    def test_fmu_smoke(self):
        report = harness.verify_lemma("fmu", tiny_config(grid_per_dim=30, T=12), n=500)
        assert report.passed
        assert report.metric("n") == 500

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("noise_sd", [0.05, 0.0])
    @pytest.mark.parametrize("seed", [42, 2718])
    def test_fmu_two_sided_passes(self, seed, noise_sd, delta):
        cfg = ExperimentConfig(seed=seed, noise_sd=noise_sd, delta=delta)
        report = harness.verify_lemma("fmu", cfg)
        beta = 2.0 * math.log(1.0 / delta)
        assert report.metric("p_exact") == pytest.approx(math.erf(math.sqrt(beta / 2.0)), abs=1e-15)
        assert report.passed and report.metric("two_sided_p") >= 1e-3

    def test_fmu_two_sided_catches_a_shrunk_sd(self, monkeypatch):
        # sigma * 0.8 makes the exact probability 0.914: above the one-sided
        # target 0.880, far below the true 0.968
        scale_sigma(monkeypatch, 0.8)
        report = harness.verify_lemma("fmu", ExperimentConfig())
        assert not report.passed
        assert report.metric("frequency") >= report.metric("target")
        assert report.metric("two_sided_p") < 1e-3

    # n = 2000 first picks at delta = 0.1 and two seeds, all fixed before any
    # mutant ran.  A frozen variance keeps sigma = 1 at every pick; the pick
    # re-queries x_1 about half the time, where the true sd is small, so
    # fmu's hit rate moves from 0.968 to about 0.984 and n = 2000 resolves
    # that at seed 2718 (p = 6.2e-6) but not at seed 42 (p = 0.0043).
    @pytest.mark.parametrize("mutant, seed", [
        pytest.param(lambda mp: scale_sigma(mp, 0.9), 42, id="sd_x0.9-42"),
        pytest.param(lambda mp: scale_sigma(mp, 0.9), 2718, id="sd_x0.9-2718"),
        pytest.param(freeze_variance, 42, id="frozen_variance-42",
                     marks=pytest.mark.xfail(strict=True, reason="the mutant survives at this seed")),
        pytest.param(freeze_variance, 2718, id="frozen_variance-2718"),
    ])
    def test_fmu_fails_a_wrong_posterior_sd(self, monkeypatch, mutant, seed):
        mutant(monkeypatch)
        report = harness.verify_lemma("fmu", ExperimentConfig(seed=seed))
        assert not report.passed and report.metric("two_sided_p") < 1e-3

    def test_icdf_tolerance_scales_with_draws(self):
        cfg = tiny_config()
        default = harness.verify_lemma("icdf", cfg)
        assert default.metric("tolerance") == 0.01 and default.passed
        small = harness.verify_lemma("icdf", cfg, n=500)
        # 4 binomial SE at the worst of the four a values (p near 1/2)
        assert 0.01 < small.metric("tolerance") <= 4 * 0.5 / np.sqrt(500)
        assert small.passed

    def test_report_file(self, tmp_path):
        cfg = tiny_config()
        report = harness.verify_lemma("tail_bound", cfg)
        path = harness.write_lemma_report(str(tmp_path), report, cfg)
        text = open(path).read()
        assert text.splitlines()[0].startswith("# config_hash=")
        assert "passed,1" in text

    @pytest.mark.parametrize("passed", [True, False])
    def test_report_csv_layout(self, tmp_path, passed):
        cfg = tiny_config()
        report = harness.LemmaReport("fmu", passed, (("n", 500.0), ("frequency", 0.1 + 0.2)))
        path = harness.write_lemma_report(str(tmp_path), report, cfg)
        assert os.path.basename(path) == "verify_fmu.csv"
        assert open(path).read() == (
            f"# config_hash={config_hash(cfg)} seed={cfg.seed}\n"
            "metric,value\n"
            "n,500.0\n"
            "frequency,0.30000000000000004\n"
            f"passed,{int(passed)}\n"
        )

    @pytest.mark.parametrize("delta", [0.1, 0.05, 0.2, 0.01])
    def test_iei_ratio_is_the_reciprocal_c_tau(self, delta):
        # bitwise equal to tau(-sqrt(beta))/tau(sqrt(beta)) at these deltas;
        # elsewhere the two can differ by roundoff
        from gpei.stdnormal import tau

        report = harness.verify_lemma("iei_ratio", tiny_config(delta=delta), n=500)
        beta = report.metric("beta")
        assert report.metric("ratio") == 1.0 / bounds.c_tau_of(beta) == tau(-np.sqrt(beta)) / tau(np.sqrt(beta))


class TestFigures:
    def test_f1_schema_and_tail_bound(self, tmp_path):
        path = harness.emit_figure_data("F1_PhiTau", str(tmp_path / "f1.csv"))
        lines = open(path).read().splitlines()
        assert lines[1] == "z,cdf_neg_z,half_gauss,tau_neg_z"
        assert len(lines) == 2 + 601
        for line in lines[2:]:
            z, c, g, t = map(float, line.split(","))
            assert c <= g
            assert t <= c or z == 0.0  # tau(-z) < cdf(-z) for z > 0

    def test_f2_matches_scalar_ei_ab(self, tmp_path):
        from gpei.stdnormal import ei_ab

        path = harness.emit_figure_data("F2_EiContour", str(tmp_path / "f2.csv"))
        lines = open(path).read().splitlines()
        assert lines[1] == "a,b,ei" and len(lines) == 2 + 121 * 100
        for j in range(0, 121, 12):
            for k in range(1, 101, 11):
                a, b = -3.0 + j * 0.05, k / 100.0
                assert lines[2 + 100 * j + k - 1] == f"{a!r},{b!r},{ei_ab(a, b)!r}"

    def test_f3_slice_minimum_location(self, tmp_path):
        path = harness.emit_figure_data("F3_BarTau", str(tmp_path / "f3.csv"))
        rows = [line.split(",") for line in open(path).read().splitlines()[2:]]
        slice_rows = [(float(r[2]), float(r[3]), float(r[4])) for r in rows if r[0] == "slice"]
        rho_step = slice_rows[1][0] - slice_rows[0][0]
        best_rho = min(slice_rows, key=lambda x: x[1])[0]
        from gpei.stdnormal import BarTauParams, find_rho_bar

        rho_bar = find_rho_bar(BarTauParams(z=1e-3, w=2.0, c3=18.0))
        assert abs(best_rho - rho_bar) <= rho_step
        assert all(margin > 0 for _, _, margin in slice_rows)

    def test_f4_slice_positive_margin(self, tmp_path):
        path = harness.emit_figure_data("F4_TildeTau", str(tmp_path / "f4.csv"))
        rows = [line.split(",") for line in open(path).read().splitlines()[2:]]
        assert all(float(r[4]) > 0 for r in rows if r[0] == "slice")

    def test_f5_matches_compare_coefficients(self, tmp_path):
        path = harness.emit_figure_data("F5_Coeffs", str(tmp_path / "f5.csv"))
        rows = [line.split(",") for line in open(path).read().splitlines()[2:]]
        row = next(r for r in rows if float(r[0]) == 0.1)
        c42, c46 = bounds.compare_coefficients(0.1)
        assert float(row[1]) == np.log10(c42.c4)
        assert float(row[2]) == np.log10(c42.c5)
        assert float(row[3]) == np.log10(c46.c4)
        assert float(row[4]) == np.log10(c46.c5)

    @pytest.mark.parametrize("fig_id", ["F3_BarTau", "F4_TildeTau"])
    def test_sweep_bytes_match_the_reference_loops(self, tmp_path, fig_id):
        path = harness.emit_figure_data(fig_id, str(tmp_path / "f.csv"))
        assert open(path).read() == "\n".join(reference_sweep_lines(fig_id)) + "\n"

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(ValueError):
            harness.emit_figure_data("F9_Nope", str(tmp_path / "x.csv"))


def reference_sweep_lines(fig_id):
    """F3/F4 CSV lines as two separate contour-plus-slice loops wrote them."""
    import math

    from gpei.stdnormal import BarTauParams, bar_tau, tau, tilde_tau

    def fmt(x):
        return repr(float(x))

    if fig_id == "F3_BarTau":
        p = BarTauParams(z=1e-3, w=2.0, c3=18.0)
        lines = ["# figure=F3_BarTau seed=0", "part,z,rho,log10_bar_tau,bar_tau_minus_tau"]
        for i in range(50):
            z = -5.0 + i * 0.1
            pz = BarTauParams(z=z, w=p.w, c3=p.c3)
            for j in range(1, 101):
                rho = pz.rho_max * j / 101.0
                val = bar_tau(rho, pz)
                lines.append(",".join(["contour", fmt(z), fmt(rho), fmt(math.log10(val)), fmt(val - tau(z))]))
        for j in range(1, 201):
            rho = p.rho_max * j / 201.0
            val = bar_tau(rho, p)
            lines.append(",".join(["slice", fmt(p.z), fmt(rho), fmt(math.log10(val)), fmt(val - tau(p.z))]))
        return lines
    w, c1, c3 = 3.0, 741.0, 296.0
    lines = ["# figure=F4_TildeTau seed=0", "part,z,rho,log10_tilde_tau,tilde_tau_minus_tau"]
    for i in range(51):
        z = i * 0.1
        for j in range(1, 101):
            rho = w / c3 * j / 101.0
            val = tilde_tau(rho, z, w, c1, c3)
            lines.append(",".join(["contour", fmt(z), fmt(rho), fmt(math.log10(val)), fmt(val - tau(z))]))
    for j in range(1, 201):
        rho = w / c3 * j / 201.0
        val = tilde_tau(rho, 0.0, w, c1, c3)
        lines.append(",".join(["slice", fmt(0.0), fmt(rho), fmt(math.log10(val)), fmt(val - tau(0.0))]))
    return lines
