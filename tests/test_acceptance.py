"""Acceptance gate: one test per criterion, each printing a pass/fail line;
criteria 7 and 8 also test that their gate fails a named wrong input.

The campaign-backed criteria share a session fixture that runs the default
desk-scale campaign (d=1, SE lengthscale 0.2, 200-point grid, T=60,
200 trials, delta=0.1) in all four flavor combinations: {noisy sigma=0.05,
noiseless} x {baseline bound, improved bound}.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from gpei import bounds, harness
from gpei.cli import main as cli_main
from gpei.config import ExperimentConfig
from gpei.stdnormal import BarTauParams, bar_tau, cdf, ei_ab, find_rho_bar, pdf, tau, theta

DELTA = 0.1


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="session")
def campaigns():
    """The four default campaigns, plus their wall-clock cost."""
    start = time.time()
    results = {}
    for noise_sd in (0.05, 0.0):
        for theorem in ("thm42", "thm46"):
            cfg = dataclasses.replace(ExperimentConfig(), noise_sd=noise_sd, theorem=theorem)
            results[(noise_sd, theorem)] = harness.run_campaign(cfg)
    return results, time.time() - start


class TestCriterion1RemarkConstants:
    def test_coeffs_cli_matches_printed_constants(self, capsys):
        start = time.time()
        code = cli_main(["coeffs", "--delta", "0.1"])
        out = capsys.readouterr().out
        elapsed = time.time() - start
        values = dict(
            (k, float(v)) for k, _, v in (line.partition(" = ") for line in out.splitlines())
        )
        checks = {
            "C4_42": 4632.0,
            "C5_42": 15103.0,
            "beta_46": 9.17,
            "C1_46": 345.0,
            "C2_46": 141.0,
            "C5_46": 1187.0,
        }
        rel_errors = {k: abs(values[k] - v) / v for k, v in checks.items()}
        ok = (
            code == 0
            and round(values["beta_42"], 3) == 8.189
            and all(e <= 0.02 for e in rel_errors.values())
            and elapsed < 1.0
        )
        report(1, ok, f"max_rel_err={max(rel_errors.values()):.4f} elapsed={elapsed:.2f}s")
        assert code == 0
        assert round(values["beta_42"], 3) == 8.189
        for key, err in rel_errors.items():
            assert err <= 0.02, f"{key} off by {err:.3%}"
        assert elapsed < 1.0


class TestCriterion2Figure3Minimum:
    def test_rho_bar_location_and_slice_positivity(self, tmp_path):
        start = time.time()
        rho_bar = find_rho_bar(BarTauParams(z=1e-3, w=2.0, c3=18.0))
        path = harness.emit_figure_data("F3_BarTau", str(tmp_path / "f3.csv"))
        rows = [line.split(",") for line in open(path).read().splitlines()[2:]]
        margins = [float(r[4]) for r in rows if r[0] == "slice"]
        elapsed = time.time() - start
        ok = rho_bar is not None and 0.018 <= rho_bar <= 0.028 and min(margins) > 0 and elapsed < 1.0
        report(2, ok, f"rho_bar={rho_bar:.5f} min_slice_margin={min(margins):.4f} elapsed={elapsed:.2f}s")
        assert 0.018 <= rho_bar <= 0.028
        assert min(margins) > 0
        assert elapsed < 1.0


class TestCriterion3ClosedFormSuites:
    def test_all_property_scans(self):
        start = time.time()
        failures = []

        c = np.logspace(-3, math.log10(8.0), 400)
        if not np.all(np.asarray(cdf(-c)) <= 0.5 * np.exp(-0.5 * c * c)):
            failures.append("normal tail bound")

        z = np.linspace(-10, 10, 2001)
        tv = np.asarray(tau(z))
        if not (np.all(tv > 0) and np.all(np.diff(tv) > 0)):
            failures.append("tau positivity/monotonicity")

        h = 1e-5
        zg = np.linspace(-6, 6, 121)
        fd = (np.asarray(tau(zg + h)) - np.asarray(tau(zg - h))) / (2 * h)
        if np.max(np.abs(fd - np.asarray(cdf(zg)))) >= 1e-6:
            failures.append("tau derivative")

        zs = np.linspace(-8, 8, 801)
        if np.max(np.abs(np.asarray(tau(zs)) - np.asarray(tau(-zs)) - zs)) >= 1e-12:
            failures.append("tau shift identity")

        zp = np.linspace(1e-3, 10, 1000)
        if not np.all(np.asarray(cdf(-zp)) > np.asarray(tau(-zp))):
            failures.append("cdf dominates tau")

        if not harness.verify_lemma("ei_monotone", ExperimentConfig()).passed:
            failures.append("ei monotone partials")

        rng = np.random.default_rng(12345)
        a_s = rng.uniform(-5, 5, size=500)
        b_s = rng.uniform(0, 1, size=500)
        eis = np.array([ei_ab(float(a), float(b)) for a, b in zip(a_s, b_s)])
        if not np.all(eis >= np.maximum(a_s, 0.0) - 1e-12 * np.maximum(1.0, np.abs(a_s))):
            failures.append("ei dominates exploitation")

        p = BarTauParams(z=1e-3, w=2.0, c3=18.0)
        rho = np.linspace(1e-4, p.rho_max * 0.9999, 500)
        th = np.asarray(theta(rho, p))
        if not np.all(np.diff(th) < 0):
            failures.append("theta monotone")

        for params in (p, BarTauParams(z=0.0, w=3.0, c3=296.0)):
            rb = find_rho_bar(params)
            hstep = 1e-5 * rb
            first = (bar_tau(rb + hstep, params) - bar_tau(rb - hstep, params)) / (2 * hstep)
            second = (
                bar_tau(rb + hstep, params) - 2 * bar_tau(rb, params) + bar_tau(rb - hstep, params)
            ) / (hstep * hstep)
            if not (abs(first) < 1e-6 and second > 0):
                failures.append("bar_tau stationarity")

        elapsed = time.time() - start
        ok = not failures and elapsed < 10.0
        report(3, ok, f"failures={failures or 'none'} elapsed={elapsed:.2f}s")
        assert not failures, failures
        assert elapsed < 10.0


class TestCriterion4LemmaCoverage:
    def test_monte_carlo_lemmas(self):
        start = time.time()
        lines = []
        all_ok = True
        for delta in (0.05, 0.1):
            cfg = dataclasses.replace(ExperimentConfig(), delta=delta)
            for rep in harness.verify_lemmas(("fmu", "fmu_t", "iei_add", "iei_ratio"), cfg):
                all_ok &= rep.passed
                lines.append(
                    f"{rep.lemma}@{delta}: freq={rep.metric('frequency'):.4f} target={rep.metric('target'):.4f}"
                )
        # pointwise prediction-error lemma also holds at the looser delta
        rep = harness.verify_lemma("fmu", dataclasses.replace(ExperimentConfig(), delta=0.3))
        all_ok &= rep.passed
        lines.append(f"fmu@0.3: freq={rep.metric('frequency'):.4f} target={rep.metric('target'):.4f}")

        icdf = harness.verify_lemma("icdf", ExperimentConfig())
        all_ok &= icdf.passed
        lines.append(f"icdf: max_abs_err={icdf.metric('max_abs_error'):.5f} (tol 0.01)")

        elapsed = time.time() - start
        ok = all_ok and elapsed < 300.0
        report(4, ok, f"elapsed={elapsed:.1f}s :: " + " | ".join(lines))
        assert all_ok, lines
        assert elapsed < 300.0


class TestCriterion5TheoremCoverage:
    def test_coverage_at_every_valid_t(self, campaigns):
        results, elapsed = campaigns
        worst = 1.0
        for (noise_sd, theorem), res in results.items():
            assert len(res.coverage) > 0, (noise_sd, theorem)
            for row in res.coverage:
                worst = min(worst, row.holds_frequency)
        ok = worst >= 1.0 - DELTA and elapsed < 600.0
        report(5, ok, f"min_holds_frequency={worst:.3f} (target >= 0.9) campaigns_elapsed={elapsed:.1f}s")
        assert worst >= 1.0 - DELTA
        assert elapsed < 600.0

    def test_improved_bound_smaller_at_every_evaluation_point(self, campaigns):
        results, _ = campaigns
        worst_gap = -math.inf
        points = 0
        for noise_sd in (0.05, 0.0):
            noisy = noise_sd > 0
            c42 = bounds.constants_thm42(DELTA, noisy=noisy)
            c46 = bounds.constants_thm46(DELTA, noisy=noisy)
            res = results[(noise_sd, "thm46")]
            ts = bounds.valid_ts(c42, res.config.T0, res.config.T)
            # the campaign's columns: one row per iteration from T0, one column per trace
            sigma_next, r_t = (np.stack([getattr(tr, name) for tr in res.traces], axis=1)
                               for name in ("sigma_next", "r_t"))
            steps = [tr.t.size for tr in res.traces]
            f_bound = [tr.f_abs_max for tr in res.traces]
            b42, b46 = (bounds.check_columns(c, ts, res.config.T0, sigma_next, r_t, steps, f_bound, noise_sd).bound
                        for c in (c42, c46))
            assert b42.shape == (len(res.traces), len(ts)) and not np.isnan(b42).any()
            worst_gap = max(worst_gap, float(np.max(b46 - b42)))
            points += b42.size
        ok = worst_gap < 0
        report(5, ok, f"improved bound smaller at all {points} points (worst b46-b42={worst_gap:.3g})")
        assert worst_gap < 0


class TestCriterion6VarianceSum:
    def test_holds_on_all_noisy_traces(self, campaigns):
        results, _ = campaigns
        violations = 0
        checked = 0
        for (noise_sd, _), res in results.items():
            if noise_sd == 0.0:
                continue
            violations += res.variance_violations
            checked += len(res.traces)
        ok = violations == 0 and checked > 0
        report(6, ok, f"variance-sum inequality held on {checked - violations}/{checked} noisy traces")
        assert checked > 0
        assert violations == 0


def rate_gate(coverage, d: int) -> tuple[bool, float, float]:
    """Criterion 7's gate, (ok, measured, envelope): the log-log slopes over
    the coverage rows' t of their mean window sd and of the noisy SE envelope
    t^(-1/2) * log(t)^((d+1)/2), the paper's noisy SE rate (arXiv 2501.09262:
    the baseline bound with the SE information gain gamma_t =
    O(log(t)^(d+1)) of Srinivas et al. 2010).  ok when the window sd decays at
    least as fast as the envelope, up to a slope slack of 0.15."""
    ts = np.array([row.t for row in coverage], dtype=float)
    logt = np.log(ts)
    envelope = float(np.polyfit(logt, np.log(ts**-0.5 * logt ** ((d + 1) / 2.0)), 1)[0])
    measured = float(np.polyfit(logt, np.log([row.sigma_win_mean for row in coverage]), 1)[0])
    return measured <= envelope + 0.15, measured, envelope


class TestCriterion7RateShape:
    def test_sigma_term_preserves_envelope_slope(self, campaigns):
        """The window sd that the improved noisy bound reads decays at least as
        fast as the SE envelope.  At desk scale it decays much faster (the
        finite grid saturates), consistent with the envelope's role as an
        upper bound.  The 60 s limit covers the campaigns it reads as well as
        the gate."""
        results, campaigns_elapsed = campaigns
        start = time.time()
        res = results[(0.05, "thm46")]
        ok, slope_measured, slope_env = rate_gate(res.coverage, res.config.d)
        elapsed = campaigns_elapsed + time.time() - start
        report(
            7,
            ok and elapsed < 60.0,
            f"measured_campaign_slope={slope_measured:.4f} <= envelope_slope={slope_env:.4f} + 0.15; "
            f"elapsed={elapsed:.2f}s",
        )
        assert ok
        assert elapsed < 60.0

    def test_gate_fails_a_window_sigma_that_does_not_decay(self, campaigns):
        results, _ = campaigns
        res = results[(0.05, "thm46")]
        flat = [dataclasses.replace(row, sigma_win_mean=res.coverage[0].sigma_win_mean) for row in res.coverage]
        assert rate_gate(res.coverage, res.config.d)[0]
        assert not rate_gate(flat, res.config.d)[0]


RKHS_NORMS = (1.0, 2.0, 4.0, 8.0, 16.0)


def c_r(B: float) -> float:
    """c_r(B) = tau(B)(B + phi(0)) / (Phi(-B)*B + B + phi(0)): the factor by
    which the improved noiseless bound at sqrt(beta) = B beats the baseline
    one in both leading constants, for an objective of RKHS norm B."""
    return tau(B) * (B + pdf(0.0)) / (cdf(-B) * B + B + pdf(0.0))


def improved_at(B: float) -> bounds.BoundConstants:
    """The program's improved noiseless constants at sqrt(beta) = w = B."""
    return bounds._constants(None, False, B * B, B)


def ratios_exceed_c_r(improved=improved_at) -> bool:
    """Criterion 8's gate: at every RKHS norm B, the baseline noiseless
    constants at sqrt(beta) = B over ``improved(B)`` exceed c_r(B) in both C4
    and C5."""
    ok = True
    for B in RKHS_NORMS:
        base, imp = bounds._constants(None, False, B * B), improved(B)
        c4_ratio, c5_ratio = base.c4 / imp.c4, base.c5 / imp.c5
        ok &= c4_ratio > c_r(B) and c5_ratio > c_r(B)
    return ok


class TestCriterion8RkhsCoefficients:
    def test_ratio_inequality_and_monotone_inverse(self):
        start = time.time()
        ok = ratios_exceed_c_r()
        inv_c_r = [1.0 / c_r(B) for B in RKHS_NORMS]
        decreasing = all(a > b for a, b in zip(inv_c_r, inv_c_r[1:]))
        elapsed = time.time() - start
        ok = ok and decreasing and elapsed < 1.0
        report(8, ok, f"1/c_r={['%.4f' % v for v in inv_c_r]} strictly decreasing={decreasing}")
        assert ok

    def test_gate_fails_a_window_coefficient_ten_times_too_large(self):
        def inflated(B):
            c = improved_at(B)
            return dataclasses.replace(c, window=10.0 * c.window)

        assert ratios_exceed_c_r()
        assert not ratios_exceed_c_r(inflated)


class TestCriterion9Reproducibility:
    def test_byte_identical_outputs(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("grid_per_dim = 40\nT = 20\ntrials = 3\nseed = 31415\n")

        pairs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"run_{tag}"
            assert cli_main(["run", "--config", str(cfg_file), "--out", str(out_dir)]) == 0
            pairs.append(out_dir)
        run_same = all(
            (pairs[0] / n).read_bytes() == (pairs[1] / n).read_bytes()
            for n in sorted(p.name for p in pairs[0].iterdir())
        )

        v_dirs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"verify_{tag}"
            assert cli_main(["verify", "fmu", "--trials", "500", "--out", str(out_dir)]) == 0
            v_dirs.append(out_dir)
        verify_same = (v_dirs[0] / "verify_fmu.csv").read_bytes() == (v_dirs[1] / "verify_fmu.csv").read_bytes()

        f_paths = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"fig_{tag}"
            assert cli_main(["figures", "F5_Coeffs", "--out", str(out_dir)]) == 0
            f_paths.append(out_dir / "F5_Coeffs.csv")
        figures_same = f_paths[0].read_bytes() == f_paths[1].read_bytes()

        capsys.readouterr()  # drain output of the subcommands above
        outs = []
        for _ in range(2):
            assert cli_main(["coeffs", "--delta", "0.1"]) == 0
            outs.append(capsys.readouterr().out)
        coeffs_same = outs[0] == outs[1]

        ok = run_same and verify_same and figures_same and coeffs_same
        report(
            9,
            ok,
            f"run={run_same} verify={verify_same} figures={figures_same} coeffs={coeffs_same}",
        )
        assert ok
