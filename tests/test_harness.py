"""Tests for config handling, campaign persistence, lemma plumbing, and figures."""

import os

import numpy as np
import pytest

from gpei import bounds, harness
from gpei.config import ExperimentConfig, config_hash, from_flat, load_config, parse_config_file
from gpei.kernels import KernelSpec
from gpei.rng import splitmix64, trial_seed


def tiny_config(**kw):
    base = dict(d=1, grid_per_dim=30, kernel=KernelSpec("se", 0.2), noise_sd=0.05,
                delta=0.1, T=12, T0=1, trials=3, seed=2024, theorem="thm46")
    base.update(kw)
    return ExperimentConfig(**base)


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

    def test_grid_shape(self):
        cfg = tiny_config(d=2, grid_per_dim=7, T=12)
        pts = cfg.grid_points()
        assert pts.shape == (49, 2)
        assert pts.min() == 0.0 and pts.max() == cfg.r

    def test_grid_cap(self):
        with pytest.raises(ValueError):
            tiny_config(d=4, grid_per_dim=10, T=12).validate()  # 10^4 > 4096

    def test_budget_must_fit_grid(self):
        with pytest.raises(ValueError):
            tiny_config(grid_per_dim=8, T=12).validate()

    def test_one_point_grid_exempt_from_budget_cap(self):
        tiny_config(grid_per_dim=1, T=8).validate()

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

    def test_bad_config_file_line(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("this is not a key value pair\n")
        with pytest.raises(ValueError):
            parse_config_file(str(path))


class TestCampaign:
    def test_files_written(self, tmp_path):
        cfg = tiny_config()
        result = harness.run_experiment(cfg, str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        assert "coverage.csv" in names
        assert "summary.txt" in names
        assert "config.txt" in names
        assert sum(n.startswith("trace_") for n in names) == cfg.trials
        assert result.variance_checked and result.variance_violations == 0

    def test_trace_csv_schema(self, tmp_path):
        cfg = tiny_config(T=12)
        harness.run_experiment(cfg, str(tmp_path))
        lines = (tmp_path / "trace_0000.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == (
            "trial,t,x_next_0,y_next,y_plus,mu_next,sigma_next,ei_next,"
            "sigma_at_star,r_t,r0_t,bound,holds"
        )
        assert len(lines) == 2 + (cfg.T - cfg.T0)

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

    def test_parallel_matches_serial(self, tmp_path):
        cfg = tiny_config(trials=4)
        a, b = tmp_path / "serial", tmp_path / "parallel"
        harness.run_experiment(cfg, str(a), workers=1)
        harness.run_experiment(cfg, str(b), workers=2)
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

    def test_parallel_matches_serial_across_batches(self, tmp_path):
        # 400 points and T=60 give batches of 10 trials: 12 trials are two
        # tasks for the pool and two batches for the serial run
        cfg = tiny_config(grid_per_dim=400, T=60, trials=12)
        assert [len(c) for c in harness.trial_chunks(cfg)] == [10, 2]
        a, b = tmp_path / "serial", tmp_path / "parallel"
        harness.run_experiment(cfg, str(a), workers=1)
        harness.run_experiment(cfg, str(b), workers=2)
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_pool_workers_take_the_parents_prior(self, tmp_path, monkeypatch):
        # a forked worker inherits the patch and its one recorded call, so a
        # worker that factored the prior again would fail its chunk (a spawned
        # worker imports the real grid_prior and is checked by the bytes only)
        cfg = tiny_config(grid_per_dim=400, T=60, trials=12)
        a, b = tmp_path / "serial", tmp_path / "parallel"
        harness.run_experiment(cfg, str(a), workers=1)
        calls, original = [], harness.grid_prior

        def grid_prior_once(config):
            calls.append(os.getpid())
            if len(calls) > 1:
                raise AssertionError(f"grid_prior called again in process {os.getpid()}")
            return original(config)

        monkeypatch.setattr(harness, "grid_prior", grid_prior_once)
        harness.run_experiment(cfg, str(b), workers=2)
        assert calls == [os.getpid()]
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_one_config_hash_per_batch(self, monkeypatch):
        cfg = tiny_config(grid_per_dim=400, T=60, trials=12)
        hashed = []
        monkeypatch.setattr(harness, "config_hash", lambda c: (hashed.append(c), config_hash(c))[1])
        result = harness.run_campaign(cfg)
        assert len(hashed) == len(harness.trial_chunks(cfg)) + 1  # each batch, then the result
        assert {trace.config_hash for trace in result.traces} == {config_hash(cfg)}

    @pytest.mark.parametrize("overrides,chunks", [(dict(), 1), (dict(grid_per_dim=400, T=60, trials=12), 2)])
    def test_pool_starts_one_worker_per_chunk_at_most(self, tmp_path, monkeypatch, overrides, chunks):
        # a pool worker given no chunk would only cost a process start; a
        # single chunk runs in-process with no pool
        started = []

        class RecordingPool(harness.ProcessPoolExecutor):
            def __init__(self, max_workers, **kw):
                started.append(max_workers)
                super().__init__(max_workers, **kw)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        cfg = tiny_config(**overrides)
        assert len(harness.trial_chunks(cfg)) == chunks
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
        valid = harness.valid_bound_ts(cfg, c)
        assert len(result.checks) == cfg.trials
        for i, (trace, checks) in enumerate(zip(result.traces, result.checks)):
            assert [ch.t for ch in checks] == [row.t for row in trace.rows if row.t in valid] != []
            for ch in checks:
                fresh = bounds.empirical_bound_check(trace, c, trace.f_abs_max, noise_sd, ch.t)
                assert (ch.bound, ch.r_t, ch.holds) == fresh
                assert (ch.sigma_win_max, ch.sigma_win_min) == bounds.window_sigma(trace, c, ch.t)
            check_at = {ch.t: ch for ch in checks}
            for line in (tmp_path / f"trace_{i:04d}.csv").read_text().splitlines()[2:]:
                cells = line.split(",")
                ch = check_at.get(int(cells[1]))
                if ch is None:
                    assert cells[-2:] == ["", ""]
                else:
                    assert cells[-2:] == [repr(ch.bound), str(int(ch.holds))]

    def test_single_point_grid_trivial_coverage(self, tmp_path):
        cfg = tiny_config(grid_per_dim=1, T=8, trials=1)
        result = harness.run_experiment(cfg, str(tmp_path))
        assert result.passed
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
        # kappa stopping leaves 3 of 6 trials at t=20; that row's target is the
        # 3-trial one (0.38), not the 6-trial one (0.53)
        cfg = ExperimentConfig(d=2, grid_per_dim=16, T=40, trials=6, seed=42, kappa=1e-3,
                               noise_sd=0.0, theorem="thm42")
        result = harness.run_experiment(cfg, str(tmp_path))
        row = next(r for r in result.coverage if r.t == 20)
        assert row.trials == 3
        assert row.target == harness.coverage_target(cfg.delta, 3) < harness.coverage_target(cfg.delta, 6)
        assert {r.trials for r in result.coverage} > {6, 3}
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
        header = (tmp_path / "trace_0000.csv").read_text().splitlines()[1]
        assert header.startswith("trial,t,x_next_0,x_next_1,y_next")

    def test_matern_noiseless_campaign(self):
        cfg = tiny_config(
            kernel=KernelSpec("matern", 0.2, nu=1.5), noise_sd=0.0, T=20,
            grid_per_dim=40, theorem="thm42",
        )
        result = harness.run_campaign(cfg)
        assert result.passed and not result.variance_checked


class TestOneKernelSource:
    def test_campaign_and_lemmas_run_without_fit_or_cross_matrix(self, monkeypatch):
        # every posterior of a campaign or lemma protocol reads the prior's K:
        # neither the reference fit nor a cross-covariance kernel call runs,
        # also when a failed pivot forces a refit
        from gpei import eiopt, gp, kernels

        refits = []
        original = eiopt.GridPosterior._refit
        monkeypatch.setattr(eiopt.GridPosterior, "_refit", lambda self, b: (refits.append(b), original(self, b)))
        monkeypatch.setattr(gp, "fit", lambda *a: pytest.fail("gp.fit called"))
        monkeypatch.setattr(kernels, "cross_matrix", lambda *a: pytest.fail("kernels.cross_matrix called"))
        for lemma in ("fmu", "iei_add", "iei_ratio"):
            assert harness.verify_lemma(lemma, tiny_config(), n=500).passed, lemma
        assert not refits
        # noiseless re-queries at jitter 1e-18 have pivots that are not positive
        monkeypatch.setattr(gp, "JITTER_START", 1e-18)
        result = harness.run_campaign(tiny_config(noise_sd=0.0, T=20))
        assert refits and result.passed


class TestWilson:
    def test_lower_bound_properties(self):
        assert harness.wilson_lower(100, 100) < 1.0
        assert harness.wilson_lower(0, 50) == 0.0
        assert harness.wilson_lower(95, 100) < 0.95
        mid = harness.wilson_lower(50, 100)
        assert 0.3 < mid < 0.5


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

    def test_fmu_smoke(self):
        report = harness.verify_lemma("fmu", tiny_config(grid_per_dim=30, T=12), n=500)
        assert report.passed
        assert report.metric("n") == 500

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
        cmp_ = bounds.compare_coefficients(0.1)
        assert float(row[1]) == np.log10(cmp_.c4_42)
        assert float(row[2]) == np.log10(cmp_.c5_42)
        assert float(row[3]) == np.log10(cmp_.c4_46)
        assert float(row[4]) == np.log10(cmp_.c5_46)

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
