"""Tests for the command-line interface: subcommands, outputs, exit codes."""

import dataclasses
import os
import subprocess
import sys

import pytest

import gpei
from gpei import harness
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
        code, _, err = run_cli(capsys, "coeffs", "--delta", "1.5")
        assert code == 2
        assert "delta" in err

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
        assert os.path.exists(tmp_path / "summary.txt")

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

    def test_all_matches_single_ids(self, capsys, tmp_path):
        cfg = tmp_path / "grid40.cfg"
        cfg.write_text("grid_per_dim = 40\nT = 30\n")
        code, out, _ = run_cli(capsys, "verify", "all", "--config", str(cfg), "--out", str(tmp_path / "all"))
        assert code == 0
        assert len(out.splitlines()) == 8
        for lemma in harness.LEMMA_IDS:
            assert run_cli(capsys, "verify", lemma, "--config", str(cfg), "--out", str(tmp_path / "one"))[0] == 0
        files = dir_bytes(tmp_path / "all")
        assert sorted(files) == sorted([f"verify_{lemma}.csv" for lemma in harness.LEMMA_IDS] + ["summary.txt"])
        summary = files["summary.txt"].decode().splitlines()
        assert len(summary) == 8 and summary == sorted(summary)
        assert files == dir_bytes(tmp_path / "one")

    def test_all_exits_1_when_one_lemma_fails(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(
            harness._LEMMA_FUNCS, "fmu_t", lambda config, n: harness.LemmaReport("fmu_t", False, (("n", float(n)),))
        )
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
        cfg.write_text("grid_per_dim = 30\nT = 12\ntrials = 2\nseed = 7\n")
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
        cfg.write_text(f"grid_per_dim = 30\nT = 12\ntheorem = {theorem}\nnoise_sd = {noise_sd}\n")
        argv = ["run", "--config", str(cfg), "--trials", "3", "--seed", "42", "--out", str(tmp_path / "cli")]
        assert run_cli(capsys, *argv)[0] == 0
        config = dataclasses.replace(
            ExperimentConfig(), grid_per_dim=30, T=12, trials=3, seed=42, theorem=theorem, noise_sd=noise_sd
        )
        harness.run_experiment(config, str(tmp_path / "lib"))
        assert dir_bytes(tmp_path / "cli") == dir_bytes(tmp_path / "lib")

    def test_missing_subcommand_usage_error(self, capsys):
        assert main([]) == 2


class TestSeedOverride:
    def test_seed_flag_changes_outputs(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("grid_per_dim = 30\nT = 12\ntrials = 2\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "run", "--config", str(cfg), "--seed", "1", "--out", str(a))[0] == 0
        assert run_cli(capsys, "run", "--config", str(cfg), "--seed", "2", "--out", str(b))[0] == 0
        assert (a / "trace_0000.csv").read_bytes() != (b / "trace_0000.csv").read_bytes()


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
