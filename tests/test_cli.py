"""Tests for the command-line interface: subcommands, outputs, exit codes."""

import dataclasses
import os
import subprocess
import sys

import pytest

import gpei
from gpei import gp, harness
from gpei.cli import main
from gpei.config import ExperimentConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestCoeffs:
    def test_prints_all_constants(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--delta", "0.1")
        assert code == 0
        values = {}
        for line in out.splitlines():
            key, _, val = line.partition(" = ")
            values[key] = float(val)
        assert values["beta_42"] == pytest.approx(8.18869, abs=1e-3)
        assert abs(values["C4_42"] - 4632) / 4632 < 0.02
        assert abs(values["C5_42"] - 15103) / 15103 < 0.02
        assert abs(values["beta_46"] - 9.17) / 9.17 < 0.02
        assert abs(values["C1_46"] - 345) / 345 < 0.02
        assert abs(values["C2_46"] - 141) / 141 < 0.02
        assert abs(values["C5_46"] - 1187) / 1187 < 0.02

    def test_bad_delta_usage_error(self, capsys):
        # bounds rejects delta outside (0, 1), NaN included, and main exits 2
        for delta, shown in (("1.5", "1.5"), ("0", "0.0"), ("1", "1.0"), ("nan", "nan")):
            code, out, err = run_cli(capsys, "coeffs", "--delta", delta)
            assert (code, out) == (2, "")
            assert err == f"error: delta must lie in (0, 1), got {shown}\n"

    @pytest.mark.parametrize("delta,beta", [("1e-320", "inf"), ("1e-307", "1417.3707660368002")])
    def test_overflowing_constants_usage_error(self, capsys, delta, beta):
        code, out, err = run_cli(capsys, "coeffs", "--delta", delta)
        assert code == 2 and out == ""
        assert err == f"error: c_tau overflows at beta={beta}\n"


class TestVerifyCommand:
    def test_closed_form_pass(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "tau_vs_phi", "--out", str(tmp_path))
        assert code == 0
        assert "PASS" in out
        assert os.path.exists(tmp_path / "verify_tau_vs_phi.csv")
        assert os.path.exists(tmp_path / "verify_summary.txt")

    def test_unknown_lemma_usage_error(self, capsys, tmp_path):
        code = main(["verify", "nope", "--out", str(tmp_path)])
        assert code == 2

    def test_undersized_mc_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "fmu", "--trials", "50", "--out", str(tmp_path))
        assert code == 2
        assert "500" in err

    def test_workers_flag_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "tau_vs_phi", "--workers", "2", "--out", str(tmp_path))
        assert code == 2
        assert "--workers" in err

    def test_all_matches_single_ids(self, capsys, tmp_path, monkeypatch):
        # verify all builds the grid prior once for the four protocols that
        # read it; one id at a time, each of them builds its own
        builds, original = [], gp.GridPrior.build
        monkeypatch.setattr(gp.GridPrior, "build", lambda config: (builds.append(config), original(config))[1])
        cfg = tmp_path / "grid40.cfg"
        cfg.write_text("grid_per_dim = 40\nT = 30\n")
        code, out, _ = run_cli(capsys, "verify", "all", "--config", str(cfg), "--out", str(tmp_path / "all"))
        assert code == 0
        assert len(out.splitlines()) == 8
        assert len(builds) == 1
        for lemma in harness.LEMMA_IDS:
            assert run_cli(capsys, "verify", lemma, "--config", str(cfg), "--out", str(tmp_path / "one"))[0] == 0
        assert len(builds) == 1 + 4
        files = dir_bytes(tmp_path / "all")
        assert sorted(files) == sorted([f"verify_{lemma}.csv" for lemma in harness.LEMMA_IDS] + ["verify_summary.txt"])
        summary = files["verify_summary.txt"].decode().splitlines()
        assert len(summary) == 8 and summary == sorted(summary)
        assert files == dir_bytes(tmp_path / "one")

    @pytest.mark.parametrize("grid_per_dim", [6, 30])
    def test_all_writes_nothing_when_a_protocol_refuses(self, capsys, tmp_path, grid_per_dim):
        # fmu_t runs 30 steps, more than a 6-point grid holds: verify all
        # refuses it before any protocol runs, and exits 2 with nothing
        # written; on 30 points every report is written
        cfg = tmp_path / "small.cfg"
        cfg.write_text(f"grid_per_dim = {grid_per_dim}\nT = 6\n")
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, "verify", "all", "--config", str(cfg), "--trials", "500", "--out", str(out_dir))
        if grid_per_dim == 6:
            assert (code, out) == (2, "") and "T=30 exceeds grid size 6" in err
            assert not out_dir.exists()
        else:
            assert code == 0 and out.count(" PASS ") == len(harness.LEMMA_IDS)
            assert sorted(dir_bytes(out_dir)) == sorted(
                [f"verify_{lemma}.csv" for lemma in harness.LEMMA_IDS] + ["verify_summary.txt"])

    def test_all_twice_into_one_dir_equals_once(self, capsys, tmp_path):
        cfg = tmp_path / "grid40.cfg"
        cfg.write_text("grid_per_dim = 40\nT = 30\n")
        argv = ["verify", "all", "--config", str(cfg), "--trials", "500", "--out"]
        assert run_cli(capsys, *argv, str(tmp_path / "once"))[0] == 0
        for _ in range(2):
            assert run_cli(capsys, *argv, str(tmp_path / "twice"))[0] == 0
        assert dir_bytes(tmp_path / "twice") == dir_bytes(tmp_path / "once")

    def test_run_and_verify_share_a_directory(self, capsys, tmp_path):
        # a campaign writes summary.txt and a lemma verify_summary.txt, so
        # neither command touches the other's files in one --out
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("grid_per_dim = 30\nT = 20\ntrials = 2\n")
        out_dir = tmp_path / "o"
        run = ["run", "--config", str(cfg), "--out", str(out_dir)]
        assert run_cli(capsys, *run)[0] == 0
        campaign = dir_bytes(out_dir)
        assert run_cli(capsys, "verify", "tail_bound", "--out", str(out_dir))[0] == 0
        lemma = {name: data for name, data in dir_bytes(out_dir).items() if name not in campaign}
        assert sorted(lemma) == ["verify_summary.txt", "verify_tail_bound.csv"]
        assert dir_bytes(out_dir) == {**campaign, **lemma}
        assert run_cli(capsys, *run)[0] == 0
        assert dir_bytes(out_dir) == {**campaign, **lemma}
        # a lemma summary with any other line is refused before anything is written
        (out_dir / "verify_summary.txt").write_text("overall PASS\n")
        before = dir_bytes(out_dir)
        code, out, err = run_cli(capsys, "verify", "tail_bound", "--out", str(out_dir))
        assert (code, out) == (2, "") and "not a lemma check" in err
        assert dir_bytes(out_dir) == before

    def test_fmu_t_needs_a_step_after_t0(self, capsys, tmp_path):
        # fmu_t's runs have budget T = 30, which leaves no step after T0 = 30:
        # it, and verify all, exit 2 before anything is written; T0 = 29 runs
        cfg = tmp_path / "t0.cfg"
        out_dir = tmp_path / "o"
        cfg.write_text("T = 30\nT0 = 30\n")
        for lemma in ("fmu_t", "all"):
            code, out, err = run_cli(capsys, "verify", lemma, "--config", str(cfg), "--out", str(out_dir))
            assert (code, out) == (2, "") and "T=30 make no step after T0=30" in err
            assert not out_dir.exists()
        cfg.write_text("T = 30\nT0 = 29\n")
        code, out, _ = run_cli(capsys, "verify", "fmu_t", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0 and out.startswith("check lemma[fmu_t] PASS n=500.0 ") and " steps=30.0" in out

    def test_all_exits_1_when_one_lemma_fails(self, capsys, tmp_path, monkeypatch):
        failing = lambda config, n, prior: harness.LemmaReport("fmu_t", False, (("n", float(n)),))
        monkeypatch.setitem(harness._LEMMAS, "fmu_t", (failing, *harness._LEMMAS["fmu_t"][1:]))
        code, out, _ = run_cli(capsys, "verify", "all", "--out", str(tmp_path))
        assert code == 1
        assert "check lemma[fmu_t] FAIL" in out and out.count(" PASS ") == 7
        assert len(list(tmp_path.glob("verify_*.csv"))) == 8


class TestFiguresCommand:
    def test_writes_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "figures", "F1_PhiTau", "--out", str(tmp_path))
        assert code == 0
        assert os.path.exists(tmp_path / "F1_PhiTau.csv")

    def test_all_matches_single_ids(self, capsys, tmp_path):
        assert run_cli(capsys, "figures", "all", "--out", str(tmp_path / "all"))[0] == 0
        for figure in harness.FIGURE_IDS:
            assert run_cli(capsys, "figures", figure, "--out", str(tmp_path / "one"))[0] == 0
        files = dir_bytes(tmp_path / "all")
        assert sorted(files) == sorted(f"{figure}.csv" for figure in harness.FIGURE_IDS)
        assert files == dir_bytes(tmp_path / "one")


class TestRunCommand:
    def test_small_campaign(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("grid_per_dim = 30\nT = 20\ntrials = 2\nseed = 7\n")
        code, out, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--out", str(tmp_path / "out")
        )
        assert code == 0
        assert "overall PASS" in out
        assert os.path.exists(tmp_path / "out" / "coverage.csv")

    def test_config_error_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid_per_dim = 2\nT = 60\n")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "exceeds grid size" in err

    @pytest.mark.parametrize("key", ["d", "grid_per_dim", "T", "T0", "trials", "seed", "r", "noise_sd",
                                     "delta", "kernel_lengthscale", "kernel_nu", "kappa"])
    def test_non_numeric_value_names_its_key(self, capsys, tmp_path, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"kernel_family = matern\n{key} = abc\n")
        out_dir = tmp_path / "o"
        code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out_dir))
        assert code == 2
        assert f"config key {key!r} must be" in err and "'abc'" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key,lines", [
        ("kernel_family", "kernel_family = rbf\n"),
        ("kernel_lengthscale", "kernel_lengthscale = -1\n"),
        ("kernel_nu", "kernel_family = matern\nkernel_nu = 2.0\n"),
    ], ids=["kernel_family", "kernel_lengthscale", "kernel_nu"])
    def test_refused_kernel_value_names_its_key(self, capsys, tmp_path, key, lines):
        # KernelSpec refuses the value; the config names the flat key that holds it
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines)
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert f"config key {key!r}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("nu", ["2.5", "", "none"])
    def test_kernel_nu_on_se_kernel_exits_2_and_writes_nothing(self, capsys, tmp_path, nu):
        # an SE kernel used to drop a set kernel_nu silently and echo it empty
        cfg = tmp_path / "se.cfg"
        cfg.write_text(f"grid_per_dim = 30\nT = 20\ntrials = 2\nkernel_nu = {nu}\n")
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out_dir))
        if nu == "2.5":
            assert (code, out) == (2, "") and "kernel_nu" in err and "2.5" in err
            assert not out_dir.exists()
        else:
            assert code == 0 and "kernel_nu = \n" in (out_dir / "config.txt").read_text()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_usage_error(self, capsys, tmp_path, workers):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("grid_per_dim = 30\nT = 12\ntrials = 2\n")
        out_dir = tmp_path / "o"
        code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--workers", workers, "--out", str(out_dir))
        assert code == 2
        assert "workers" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("theorem", ["thm42", "thm46"])
    @pytest.mark.parametrize("noise_sd", [0.05, 0.0])
    def test_flavour_config_matches_library(self, capsys, tmp_path, theorem, noise_sd):
        cfg = tmp_path / "flavour.cfg"
        cfg.write_text(f"grid_per_dim = 30\nT = 20\ntheorem = {theorem}\nnoise_sd = {noise_sd}\n")
        argv = ["run", "--config", str(cfg), "--trials", "3", "--seed", "42", "--out", str(tmp_path / "cli")]
        assert run_cli(capsys, *argv)[0] == 0
        config = dataclasses.replace(
            ExperimentConfig(), grid_per_dim=30, T=20, trials=3, seed=42, theorem=theorem, noise_sd=noise_sd
        )
        harness.run_experiment(config, str(tmp_path / "lib"))
        assert dir_bytes(tmp_path / "cli") == dir_bytes(tmp_path / "lib")

    def test_campaign_that_checks_no_bound_exits_2_and_writes_nothing(self, capsys, tmp_path):
        # noisy thm46 has t_min ~ 17.7, so a budget of T = 12 reaches no checkable t
        cfg = tmp_path / "short.cfg"
        cfg.write_text("grid_per_dim = 30\nT = 12\ntrials = 3\n")
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out_dir))
        assert code == 2 and out == ""
        assert "t_min=17.72" in err and "window divisor" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("noise_sd, t_first", [("0.05", 18), ("0.0", 3)])
    def test_campaign_with_no_coverage_row_exits_1(self, capsys, tmp_path, noise_sd, t_first):
        # EI < kappa = 10 at step 0 stops every trial before its first checkable t
        cfg = tmp_path / "kappa.cfg"
        cfg.write_text(f"grid_per_dim = 30\nT = 20\ntrials = 3\nkappa = 10\nnoise_sd = {noise_sd}\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        variance = "check variance_sum PASS violations=0/3" if noise_sd != "0.0" else \
            "check variance_sum SKIPPED (noiseless run)"
        assert out.splitlines()[2:] == [f"check coverage FAIL rows=0 t_first={t_first}", variance, "overall FAIL"]

    @pytest.mark.parametrize("noise_sd", ["1e-170", "1e-155", "1e-150", "1e155", "1e154"])
    def test_noise_sd_whose_variance_is_not_normal_exits_2(self, capsys, tmp_path, noise_sd):
        # 1e-170 squares to 0 and 1e-155 to the subnormal 1e-310, on which the
        # campaign failed only after every trial had run; 1e155 squares to inf,
        # on which the posterior's Cholesky failed; the variances 1e-300 of
        # 1e-150 and 1e308 of 1e154 are normal floats
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"grid_per_dim = 40\nT = 20\ntrials = 3\nnoise_sd = {noise_sd}\n")
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out_dir))
        if noise_sd in ("1e-150", "1e154"):
            assert code == 0 and "overall PASS" in out
        else:
            assert (code, out) == (2, "") and f"noise_sd={float(noise_sd)!r}" in err
            assert not out_dir.exists()

    @pytest.mark.parametrize("r", ["1e160", "1e-160", "1e152", "1e-150"])
    def test_r_whose_squared_offsets_leave_the_normal_floats_exits_2(self, capsys, tmp_path, r):
        # at 1e160 the squared offsets overflowed and the prior turned to white
        # noise; at 1e-160 they all underflowed to 0 and its Cholesky failed
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"grid_per_dim = 40\nT = 20\ntrials = 3\nr = {r}\n")
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out_dir))
        if r in ("1e152", "1e-150"):
            assert code == 0 and "overall PASS" in out
        else:
            assert (code, out) == (2, "") and f"r={float(r)!r}" in err and "lie in" in err
            assert not out_dir.exists()

    @pytest.mark.parametrize("family,nu,lengthscale", [
        ("matern", "1.5", "5e-309"), ("matern", "2.5", "1e-300"), ("se", "", "1e-320"), ("matern", "2.5", "4.25e-153"),
    ])
    def test_lengthscale_the_kernel_cannot_evaluate_exits_2(self, capsys, tmp_path, family, nu, lengthscale):
        # the Matern lengthscales made the prior's kernel values NaN, reported
        # as "K must be finite", and the SE one overflowed to a white-noise
        # prior; 4.25e-153 lies just above the bound 4.237e-153 and runs (the
        # suite turns a RuntimeWarning into an error)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"grid_per_dim = 40\nT = 20\ntrials = 3\nkernel_family = {family}\nkernel_nu = {nu}\n"
                       f"kernel_lengthscale = {lengthscale}\n")
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out_dir))
        if lengthscale == "4.25e-153":
            assert code == 0 and "overall PASS" in out
        else:
            assert (code, out) == (2, "") and f"kernel_lengthscale={float(lengthscale)!r}" in err
            assert not out_dir.exists()

    def test_missing_subcommand_usage_error(self, capsys):
        assert main([]) == 2


class TestSeedOverride:
    def test_seed_flag_changes_outputs(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("grid_per_dim = 30\nT = 20\ntrials = 2\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "run", "--config", str(cfg), "--seed", "1", "--out", str(a))[0] == 0
        assert run_cli(capsys, "run", "--config", str(cfg), "--seed", "2", "--out", str(b))[0] == 0
        assert (a / "traces.csv").read_bytes() != (b / "traces.csv").read_bytes()


class TestModuleEntry:
    def test_python_m_gpei_coeffs(self):
        src = os.path.dirname(os.path.dirname(gpei.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "gpei", "coeffs", "--delta", "0.1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("delta = 0.1\n")


# Imports the CLI and runs, printing after each whether scipy is loaded: a
# tiny default campaign; a campaign on the SE lengthscale-r grid, whose prior
# falls back to a Cholesky factor; ``verify all``, whose lemmas run the loop
# on the default grid's prior; and a forced posterior refit (a duplicate
# noiseless point at jitter 1e-18).
_IMPORT_PROBE = """
import contextlib, io, sys, tempfile
import gpei.cli
from gpei import eiopt, gp, harness
from gpei.config import ExperimentConfig
from gpei.kernels import KernelSpec
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
harness.run_experiment(ExperimentConfig(trials=2, T=25), tempfile.mkdtemp())
print(loaded())
fallback = ExperimentConfig(kernel=KernelSpec("se", 1.0), trials=2, T=25)
assert gp.GridPrior.build(fallback).L is not None
harness.run_experiment(fallback, tempfile.mkdtemp())
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert gpei.cli.main(["verify", "all", "--out", tempfile.mkdtemp()]) == 0
print(loaded())
gp.JITTER_START = 1e-18
post = eiopt.GridPosterior(gp.GridPrior.build(ExperimentConfig()), [[4]], [[0.2]], 0.0, 2)
post.observe([4], [0.2])
assert post.jitter[0] > 1e-18
print(loaded())
"""


# Builds the default prior and the 64x64 Matern-5/2 prior, then runs a
# one-trial default campaign, and prints whether numpy.ma is loaded: numpy
# imports it on the first np.unique, and a prior takes its lattice from the
# config, so nothing here needs it.
_NUMPY_MA_PROBE = """
import sys
from gpei import gp, harness
from gpei.config import ExperimentConfig
from gpei.kernels import KernelSpec
gp.GridPrior.build(ExperimentConfig())
gp.GridPrior.build(ExperimentConfig(d=2, grid_per_dim=64, kernel=KernelSpec("matern", 0.2, 2.5)))
harness.run_campaign(ExperimentConfig(trials=1))
print("numpy.ma" in sys.modules)
"""


# Runs ``verify all``, ``figures all``, ``coeffs`` and a one-worker campaign,
# then prints whether the process pool's module is loaded: only a campaign
# with several workers starts a pool.
_POOL_PROBE = """
import contextlib, io, sys, tempfile
import gpei.cli
from gpei import harness
from gpei.config import ExperimentConfig
with contextlib.redirect_stdout(io.StringIO()):
    assert gpei.cli.main(["verify", "all", "--out", tempfile.mkdtemp()]) == 0
    assert gpei.cli.main(["figures", "all", "--out", tempfile.mkdtemp()]) == 0
    assert gpei.cli.main(["coeffs", "--delta", "0.1"]) == 0
harness.run_experiment(ExperimentConfig(trials=30, T=25), tempfile.mkdtemp(), workers=1)
print("concurrent.futures.process" in sys.modules)
"""


def run_probe(code):
    """Run ``code`` in a fresh interpreter that imports this gpei; its stdout lines."""
    src = os.path.dirname(os.path.dirname(gpei.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


# Imports the harness with numpy already loaded and builds the default
# config, then prints whether hashlib is loaded: only hashing a config needs
# it, and it costs a fresh process some milliseconds of start-up.
_HASHLIB_PROBE = """
import sys
import numpy
assert "hashlib" not in sys.modules
from gpei import harness
from gpei.config import ExperimentConfig
ExperimentConfig().validate()
print("hashlib" in sys.modules)
"""


class TestImportPath:
    def test_scipy_is_never_loaded(self):
        assert run_probe(_IMPORT_PROBE) == ["[]"] * 4

    def test_priors_and_a_campaign_do_not_load_numpy_ma(self):
        assert run_probe(_NUMPY_MA_PROBE) == ["False"]

    def test_commands_without_a_pool_do_not_load_it(self):
        assert run_probe(_POOL_PROBE) == ["False"]

    def test_building_a_config_does_not_load_hashlib(self):
        assert run_probe(_HASHLIB_PROBE) == ["False"]


class TestPackage:
    def test_every_exported_name_resolves(self):
        assert len(set(gpei.__all__)) == len(gpei.__all__)
        for name in gpei.__all__:
            assert getattr(gpei, name, None) is not None, name
