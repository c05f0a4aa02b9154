"""Experiment campaigns, Monte-Carlo lemma verification, and figure-data emission.

A campaign factors the GP prior on the config grid once (one ``GridPrior``
per campaign, which its pool workers share), samples one objective per trial
from it, runs the optimization loop on chunks of at most ``eiopt.batch_size``
trials in lockstep (one chunk per pool task with several workers),
evaluates the configured error bound at every valid iteration, and
aggregates coverage (how often the bound held) against the nominal
1 - delta.  Coverage checks pass when the empirical
frequency is at least (1 - delta) - 3*sqrt(delta*(1-delta)/trials), with
trials the number of trials recorded at that t (kappa stopping can leave
fewer at late t): the theorems state exact probabilities and sampling noise
must not be flagged as a violation.

Everything is deterministic given the config: trial substreams are derived
as seed XOR splitmix64(trial_index), floats are serialized with shortest
round-trip repr, and rows are sorted by trial index before writing, so reruns
reproduce output files byte for byte.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds, eiopt, gp
from .config import ExperimentConfig, config_hash
from .eiopt import Trace
from .rng import derive_stream_seed, trial_seed
from .stdnormal import BarTauParams, bar_tau, cdf, ei_ab, pdf, tau, tilde_tau

# 99% two-sided normal quantile, used by the Wilson score interval.
_WILSON_Z = 2.5758293035489004

# Purpose tags for lemma-campaign substreams.
_FMU_STREAM = 0x464D55
_IEI_STREAM = 0x494549
_ICDF_STREAM = 0x494344

# Fixed Monte-Carlo protocol sizes (draws for the pointwise lemmas, full runs
# for the all-t lemma, function draws for the improvement CDF).
LEMMA_DEFAULT_N = {
    "fmu": 2000,
    "iei_add": 2000,
    "iei_ratio": 2000,
    "fmu_t": 500,
    "icdf": 100_000,
}
_MC_LEMMAS = frozenset(LEMMA_DEFAULT_N)
_FMU_T_STEPS = 30
_ICDF_TOLERANCE = 0.01
_DESIGN_SIZE = 5

# Absolute slack on concentration comparisons; covers posterior-arithmetic
# roundoff when a predictive sd degenerates to ~0, nothing more.
_ROUNDOFF_GUARD = 1e-9


def wilson_lower(successes: int, n: int, z: float = _WILSON_Z) -> float:
    """Lower Wilson score limit for a binomial proportion (99% confidence)."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = successes / n
    denom = 1.0 + z * z / n
    center = p + z * z / (2 * n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, (center - half) / denom)


def coverage_target(delta: float, trials: int) -> float:
    """(1 - delta) minus three binomial standard errors."""
    return (1.0 - delta) - 3.0 * math.sqrt(delta * (1.0 - delta) / trials)


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageRow:
    theorem: str
    t: int
    trials: int
    holds: int
    holds_frequency: float
    wilson_lower: float
    bound_mean: float
    bound_min: float
    r_t_mean: float
    r_t_max: float
    margin_min: float
    sigma_win_mean: float
    sigma_win_min_mean: float
    target: float  # coverage_target at this row's trial count
    passed: bool


@dataclass(frozen=True)
class BoundCheck:
    """The configured bound evaluated on one trace at one valid iteration t."""

    t: int
    bound: float
    r_t: float
    holds: bool
    sigma_win_max: float
    sigma_win_min: float


@dataclass(frozen=True)
class CampaignResult:
    config: ExperimentConfig
    config_hash: str
    coverage: tuple[CoverageRow, ...]
    traces: tuple[Trace, ...]
    checks: tuple[tuple[BoundCheck, ...], ...]  # per trace, one per recorded valid t
    variance_violations: int
    variance_checked: bool
    passed: bool


def grid_prior(config: ExperimentConfig) -> gp.GridPrior:
    """The factored prior on the config's grid, shared by all of a campaign's trials."""
    return gp.GridPrior.build(config.kernel, config.grid_points())


def run_trial(cfg_hash: str, batch: eiopt.Batch, b: int) -> Trace:
    """Trial ``b`` of a finished batch as its ``Trace``; called once per trial."""
    return batch.trace(b, cfg_hash)


def run_trials(config: ExperimentConfig, prior: gp.GridPrior, indices) -> list[Trace]:
    """Sample one objective per trial index from ``prior`` and run the loop on
    all of them in lockstep; each trace is fully determined by config and index."""
    seeds = [trial_seed(config.seed, i) for i in indices]
    batch = eiopt.run_batch(config, [prior.sample(s) for s in seeds], seeds)
    cfg_hash = config_hash(config)
    return [run_trial(cfg_hash, batch, b) for b in range(len(seeds))]


def trial_chunks(config: ExperimentConfig) -> list[range]:
    """The config's trial indices in consecutive chunks of at most ``eiopt.batch_size``."""
    size = eiopt.batch_size(config.T, config.grid_size)
    return [range(i, min(i + size, config.trials)) for i in range(0, config.trials, size)]


# (config, prior) of the campaign a pool worker serves; set once per worker
# process by _init_worker to the parent's prior, so no task carries the n^2
# prior and no worker factors it again.
_worker_campaign: tuple[ExperimentConfig, gp.GridPrior] | None = None


def _init_worker(config: ExperimentConfig, prior: gp.GridPrior) -> None:
    global _worker_campaign
    _worker_campaign = (config, prior)


def _worker_trials(indices: range) -> list[Trace]:
    config, prior = _worker_campaign
    return run_trials(config, prior, indices)


def valid_bound_ts(config: ExperimentConfig, constants: bounds.BoundConstants) -> list[int]:
    """Iterations at which the configured bound is defined and recorded."""
    return [
        t
        for t in range(config.T0, config.T)
        if t > constants.window_divisor and t >= constants.t_min
    ]


def _bound_check(trace: Trace, constants: bounds.BoundConstants, noise_sd: float, t: int) -> BoundCheck:
    window = bounds.window_sigma(trace, constants, t)
    bound, r_t, holds = bounds.empirical_bound_check(trace, constants, trace.f_abs_max, noise_sd, t, window)
    return BoundCheck(t, bound, r_t, holds, *window)


def run_campaign(config: ExperimentConfig, workers: int = 1) -> CampaignResult:
    """Run all trials and aggregate bound coverage; no file output."""
    config.validate()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    constants = bounds.constants_for(config.theorem, config.delta, noisy=config.noise_sd > 0)
    chunks = trial_chunks(config)
    prior = grid_prior(config)
    # pool workers inherit the prior (pickled once per worker under a non-fork
    # start method): start none without a chunk, and run a single chunk here
    workers = min(workers, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(config, prior)) as pool:
            traces = list(itertools.chain.from_iterable(pool.map(_worker_trials, chunks)))
    else:
        traces = [trace for chunk in chunks for trace in run_trials(config, prior, chunk)]

    checkable = set(valid_bound_ts(config, constants))
    checks = tuple(
        tuple(_bound_check(trace, constants, config.noise_sd, row.t) for row in trace.rows if row.t in checkable)
        for trace in traces
    )

    by_t: dict[int, list[BoundCheck]] = {}
    for check in itertools.chain.from_iterable(checks):
        by_t.setdefault(check.t, []).append(check)
    rows: list[CoverageRow] = []
    for t, at_t in sorted(by_t.items()):
        bvals = np.array([c.bound for c in at_t])
        rvals = np.array([c.r_t for c in at_t])
        holds = sum(c.holds for c in at_t)
        freq = holds / len(at_t)
        target = coverage_target(config.delta, len(at_t))  # kappa stopping can leave fewer trials
        rows.append(
            CoverageRow(
                theorem=config.theorem,
                t=t,
                trials=len(at_t),
                holds=holds,
                holds_frequency=freq,
                wilson_lower=wilson_lower(holds, len(at_t)),
                bound_mean=float(np.mean(bvals)),
                bound_min=float(np.min(bvals)),
                r_t_mean=float(np.mean(rvals)),
                r_t_max=float(np.max(rvals)),
                margin_min=float(np.min(bvals - rvals)),
                sigma_win_mean=float(np.mean([c.sigma_win_max for c in at_t])),
                sigma_win_min_mean=float(np.mean([c.sigma_win_min for c in at_t])),
                target=target,
                passed=freq >= target,
            )
        )

    variance_checked = config.noise_sd > 0
    violations = 0
    if variance_checked:
        for trace in traces:
            _, _, ok = gp.variance_sum_check(trace.sigma_at_next(), config.noise_var)
            violations += int(not ok)

    passed = all(row.passed for row in rows) and violations == 0
    return CampaignResult(
        config=config,
        config_hash=config_hash(config),
        coverage=tuple(rows),
        traces=tuple(traces),
        checks=checks,
        variance_violations=violations,
        variance_checked=variance_checked,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _cell(v: float | int | str) -> str:
    """A CSV cell: a float as its shortest round-trip repr, a str as is, an int
    in decimal (a bool as 0/1)."""
    if isinstance(v, float):
        return _fmt(v)
    return v if isinstance(v, str) else str(int(v))


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_table(path: str, meta: str, header, rows) -> None:
    """The one artifact layout: a meta line, the CSV header, then one line per
    row of rendered cells."""
    _write_lines(path, itertools.chain((meta, ",".join(header)), map(",".join, rows)))


def _meta_line(cfg_hash: str, seed: int) -> str:
    return f"# config_hash={cfg_hash} seed={seed}"


def write_trace_csv(path: str, trial_index: int, trace: Trace, config: ExperimentConfig,
                    checks: tuple[BoundCheck, ...]) -> None:
    d = config.d
    header = (
        ["trial", "t"]
        + [f"x_next_{i}" for i in range(d)]
        + ["y_next", "y_plus", "mu_next", "sigma_next", "ei_next", "sigma_at_star", "r_t", "r0_t", "bound", "holds"]
    )
    meta = f"{_meta_line(trace.config_hash, config.seed)} trial={trial_index} trial_seed={trace.seed}"
    check_cells = {c.t: [_fmt(c.bound), str(int(c.holds))] for c in checks}
    rows = (
        [str(trial_index), str(row.t)]
        + [_fmt(c) for c in row.x_next]
        + [
            _fmt(row.y_next),
            _fmt(row.y_plus),
            _fmt(row.mu_next),
            _fmt(row.sigma_next),
            _fmt(row.ei_next),
            _fmt(row.sigma_at_star),
            _fmt(row.r_t),
            _fmt(row.r0_t),
        ]
        + check_cells.get(row.t, ["", ""])
        for row in trace.rows
    )
    _write_table(path, meta, header, rows)


# coverage.csv columns: every CoverageRow field but the target, in field order
_COVERAGE_COLUMNS = tuple(f.name for f in dataclasses.fields(CoverageRow) if f.name != "target")
_coverage_cells = operator.attrgetter(*_COVERAGE_COLUMNS)


def write_coverage_csv(path: str, result: CampaignResult) -> None:
    rows = (map(_cell, _coverage_cells(row)) for row in result.coverage)
    _write_table(path, _meta_line(result.config_hash, result.config.seed), _COVERAGE_COLUMNS, rows)


def campaign_summary_lines(result: CampaignResult) -> list[str]:
    cfg = result.config
    lines = [
        _meta_line(result.config_hash, cfg.seed),
        "target holds_frequency >= (1-delta) minus 3 SE at the row's trial count",
    ]
    for row in result.coverage:
        lines.append(
            f"check coverage[{row.theorem},t={row.t}] {'PASS' if row.passed else 'FAIL'} "
            f"holds_frequency={_fmt(row.holds_frequency)} target={_fmt(row.target)} "
            f"trials={row.trials} wilson_lower={_fmt(row.wilson_lower)}"
        )
    if result.variance_checked:
        ok = result.variance_violations == 0
        lines.append(
            f"check variance_sum {'PASS' if ok else 'FAIL'} violations={result.variance_violations}/{cfg.trials}"
        )
    else:
        lines.append("check variance_sum SKIPPED (noiseless run)")
    lines.append(f"overall {'PASS' if result.passed else 'FAIL'}")
    return lines


_TRACE_NAME = re.compile(r"trace_[0-9]+\.csv")


def run_experiment(config: ExperimentConfig, out_dir: str, workers: int = 1) -> CampaignResult:
    """Run a campaign and persist per-trial traces, coverage, and a summary.

    Any other ``trace_<digits>.csv`` in ``out_dir`` is deleted, so the
    directory holds this campaign's traces only."""
    result = run_campaign(config, workers=workers)
    os.makedirs(out_dir, exist_ok=True)
    width = max(4, len(str(config.trials - 1)))
    names = [f"trace_{i:0{width}d}.csv" for i in range(len(result.traces))]
    for i, (name, trace, checks) in enumerate(zip(names, result.traces, result.checks)):
        write_trace_csv(os.path.join(out_dir, name), i, trace, config, checks)
    for name in set(filter(_TRACE_NAME.fullmatch, os.listdir(out_dir))) - set(names):
        os.remove(os.path.join(out_dir, name))
    write_coverage_csv(os.path.join(out_dir, "coverage.csv"), result)
    _write_lines(os.path.join(out_dir, "config.txt"), result.config.flat_text().splitlines())
    _write_lines(os.path.join(out_dir, "summary.txt"), campaign_summary_lines(result))
    return result


# ---------------------------------------------------------------------------
# Lemma verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    passed: bool
    metrics: tuple[tuple[str, float], ...]

    def metric(self, name: str) -> float:
        for key, value in self.metrics:
            if key == name:
                return value
        raise KeyError(name)

    def lines(self) -> list[str]:
        body = " ".join(f"{k}={_fmt(v)}" for k, v in self.metrics)
        return [f"check lemma[{self.lemma}] {'PASS' if self.passed else 'FAIL'} {body}"]


def _lemma_fixture(config: ExperimentConfig):
    """Fixed 5-point design plus a fixed off-design query on the config grid."""
    grid = config.grid_points()
    n = grid.shape[0]
    if n < _DESIGN_SIZE + 1:
        raise ValueError(f"lemma fixture needs a grid of at least {_DESIGN_SIZE + 1} points, got {n}")
    design = sorted({int(round(i)) for i in np.linspace(0, n - 1, _DESIGN_SIZE)})
    query = int(0.35 * (n - 1))
    while query in design:
        query = (query + 1) % n
    pts = np.vstack([grid[design], grid[query][None, :]])
    return pts


def _joint_draws(config: ExperimentConfig, n_draws: int, stream: int):
    """Draw n_draws joint objective vectors on (design, query) and noisy observations.

    Returns (f_design, f_query, y_design, posterior mean at query, sigma at
    query), with the moments from one ``eiopt.GridPosterior`` of the n_draws
    draws over the fixture's prior.
    """
    prior = gp.GridPrior.build(config.kernel, _lemma_fixture(config))
    k = prior.grid.shape[0] - 1
    rng = np.random.default_rng(derive_stream_seed(config.seed, stream))
    z = rng.standard_normal((n_draws, k + 1))
    f = z @ prior.L.T
    eps = config.noise_sd * rng.standard_normal((n_draws, k))
    y = f[:, :k] + eps

    design = np.broadcast_to(np.arange(k), y.shape)
    post = eiopt.GridPosterior(prior, design, y, config.noise_var, k)
    return f[:, :k], f[:, k], y, post.mu[:, k], float(post.sigma[0, k])


def _coverage_metrics(indicator: np.ndarray, delta: float) -> tuple[bool, tuple[tuple[str, float], ...]]:
    n = indicator.size
    freq = float(np.mean(indicator))
    target = coverage_target(delta, n)
    return freq >= target, (
        ("n", float(n)),
        ("delta", delta),
        ("frequency", freq),
        ("target", target),
        ("wilson_lower", wilson_lower(int(np.sum(indicator)), n)),
    )


def _verify_fmu(config: ExperimentConfig, n: int) -> LemmaReport:
    _, f_q, _, mu_q, sigma_q = _joint_draws(config, n, _FMU_STREAM)
    beta = 2.0 * math.log(1.0 / config.delta)
    ok = np.abs(f_q - mu_q) <= math.sqrt(beta) * sigma_q + _ROUNDOFF_GUARD
    passed, metrics = _coverage_metrics(ok, config.delta)
    return LemmaReport("fmu", passed, metrics + (("beta", beta),))


def _iei_draws(config: ExperimentConfig, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(improvement, EI, sigma) at the query over n joint draws, with y+ the best noisy observation."""
    _, f_q, y, mu_q, sigma_q = _joint_draws(config, n, _IEI_STREAM)
    y_plus = y.min(axis=1)
    improve = np.maximum(y_plus - f_q, 0.0)
    return improve, ei_ab(y_plus - mu_q, sigma_q), sigma_q


def _verify_iei_add(config: ExperimentConfig, n: int) -> LemmaReport:
    improve, ei_vals, sigma_q = _iei_draws(config, n)
    beta = max(1.44, 2.0 * math.log(bounds.C_ALPHA / config.delta))
    ok = np.abs(improve - ei_vals) <= math.sqrt(beta) * sigma_q + _ROUNDOFF_GUARD
    passed, metrics = _coverage_metrics(ok, config.delta)
    return LemmaReport("iei_add", passed, metrics + (("beta", beta),))


def _verify_iei_ratio(config: ExperimentConfig, n: int) -> LemmaReport:
    improve, ei_vals, _ = _iei_draws(config, n)
    beta = 2.0 * math.log(1.0 / config.delta)
    ratio = 1.0 / bounds.c_tau_of(beta)
    ok = ratio * improve <= ei_vals + _ROUNDOFF_GUARD
    passed, metrics = _coverage_metrics(ok, config.delta)
    return LemmaReport("iei_ratio", passed, metrics + (("beta", beta), ("ratio", float(ratio))))


def _verify_fmu_t(config: ExperimentConfig, n: int) -> LemmaReport:
    """Fraction of full runs where the all-t prediction-error bound never fails."""
    run_cfg = dataclasses.replace(config, T=_FMU_T_STEPS, trials=n)
    run_cfg.validate()
    prior = grid_prior(run_cfg)
    root_beta = [math.sqrt(bounds.beta_t_seq(t + 1, config.delta)) for t in range(_FMU_T_STEPS)]
    successes = np.zeros(n, dtype=bool)
    for chunk in trial_chunks(run_cfg):  # one batch of traces held at a time
        for i, trace in zip(chunk, run_trials(run_cfg, prior, chunk)):
            successes[i] = not any(
                abs(row.f_next - row.mu_next) > root_beta[row.t] * row.sigma_next + _ROUNDOFF_GUARD
                for row in trace.rows
            )
    passed, metrics = _coverage_metrics(successes, config.delta)
    return LemmaReport("fmu_t", passed, metrics + (("steps", float(_FMU_T_STEPS)),))


def _verify_icdf(config: ExperimentConfig, n: int) -> LemmaReport:
    """Improvement CDF: MC frequency of I <= a against Phi(a/sigma - z).

    The tolerance is max(0.01, 4 binomial standard errors at the worst a), so
    it stays 0.01 at the default 100 000 draws and widens with fewer.
    """
    mu, sigma, y_plus = 0.3, 0.6, 0.5
    z_t = (y_plus - mu) / sigma
    rng = np.random.default_rng(derive_stream_seed(config.seed, _ICDF_STREAM))
    f = mu + sigma * rng.standard_normal(n)
    improve = np.maximum(y_plus - f, 0.0)
    worst = se = 0.0
    for a in (0.0, 0.5 * sigma, sigma, 2.0 * sigma):
        freq = float(np.mean(improve <= a))
        predicted = cdf(a / sigma - z_t)
        worst = max(worst, abs(freq - predicted))
        se = max(se, math.sqrt(predicted * (1.0 - predicted) / n))
    tolerance = max(_ICDF_TOLERANCE, 4.0 * se)
    return LemmaReport(
        "icdf",
        worst <= tolerance,
        (("n", float(n)), ("max_abs_error", worst), ("tolerance", tolerance)),
    )


def _verify_tail_bound(config: ExperimentConfig, n: int) -> LemmaReport:
    c = np.logspace(-3, math.log10(8.0), 400)
    margin = 0.5 * np.exp(-0.5 * c * c) - np.asarray(cdf(-c))
    worst = float(np.min(margin))
    return LemmaReport("tail_bound", worst >= 0.0, (("points", 400.0), ("min_margin", worst)))


def _verify_tau_vs_phi(config: ExperimentConfig, n: int) -> LemmaReport:
    z = np.linspace(1e-3, 10.0, 1000)
    margin = np.asarray(cdf(-z)) - np.asarray(tau(-z))
    worst = float(np.min(margin))
    return LemmaReport("tau_vs_phi", worst > 0.0, (("points", 1000.0), ("min_margin", worst)))


def _verify_ei_monotone(config: ExperimentConfig, n: int) -> LemmaReport:
    """Finite-difference partials of ei_ab match Phi(a/b) and phi(a/b).

    The grid keeps |a/b| <= 6: beyond that the b-partial phi(a/b) drops below
    the rounding floor of a central difference (~eps*|ei|/h) and its sign can
    no longer be resolved numerically.
    """
    h = 1e-5
    a = np.linspace(-1.8, 1.8, 19)[:, None]
    b = np.linspace(0.3, 1.0, 8)[None, :]
    a_grid = np.broadcast_to(a, (19, 8))
    b_grid = np.broadcast_to(b, (19, 8))
    fd_a = (np.asarray(ei_ab(a_grid + h, b_grid)) - np.asarray(ei_ab(a_grid - h, b_grid))) / (2 * h)
    fd_b = (np.asarray(ei_ab(a_grid, b_grid + h)) - np.asarray(ei_ab(a_grid, b_grid - h))) / (2 * h)
    err_a = float(np.max(np.abs(fd_a - np.asarray(cdf(a_grid / b_grid)))))
    err_b = float(np.max(np.abs(fd_b - np.asarray(pdf(a_grid / b_grid)))))
    positive = bool(np.all(fd_a > 0) and np.all(fd_b > 0))
    passed = positive and err_a <= 1e-6 and err_b <= 1e-6
    return LemmaReport(
        "ei_monotone",
        passed,
        (("max_err_da", err_a), ("max_err_db", err_b), ("all_positive", float(positive))),
    )


_LEMMA_FUNCS = {
    "fmu": _verify_fmu,
    "fmu_t": _verify_fmu_t,
    "iei_add": _verify_iei_add,
    "iei_ratio": _verify_iei_ratio,
    "icdf": _verify_icdf,
    "tail_bound": _verify_tail_bound,
    "tau_vs_phi": _verify_tau_vs_phi,
    "ei_monotone": _verify_ei_monotone,
}
LEMMA_IDS = tuple(_LEMMA_FUNCS)


def verify_lemma(lemma_id: str, config: ExperimentConfig, n: int | None = None) -> LemmaReport:
    """Run one lemma's verification protocol and report pass/fail.

    ``n`` overrides the protocol's default Monte-Carlo size; Monte-Carlo
    protocols require n >= 500.  Closed-form lemmas scan fixed grids and
    ignore n.
    """
    key = lemma_id.strip().lower()
    if key not in _LEMMA_FUNCS:
        raise ValueError(f"unknown lemma id {lemma_id!r}; known: {LEMMA_IDS}")
    config.validate()
    size = n if n is not None else LEMMA_DEFAULT_N.get(key, 0)
    if key in _MC_LEMMAS and size < 500:
        raise ValueError(f"Monte-Carlo lemma {key!r} requires at least 500 draws, got {size}")
    return _LEMMA_FUNCS[key](config, size)


def write_lemma_report(out_dir: str, report: LemmaReport, config: ExperimentConfig) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"verify_{report.lemma}.csv")
    rows = [(key, _cell(value)) for key, value in (*report.metrics, ("passed", report.passed))]
    _write_table(path, _meta_line(config_hash(config), config.seed), ("metric", "value"), rows)

    # summary.txt accumulates one line per check; merge-by-name keeps the
    # final file deterministic regardless of how many lemmas share the dir
    summary_path = os.path.join(out_dir, "summary.txt")
    existing: dict[str, str] = {}
    if os.path.exists(summary_path):
        with open(summary_path, "r", encoding="utf-8") as fh:
            for line in fh:
                name = line.split(" ", 2)[1] if line.startswith("check ") else line.strip()
                existing[name] = line.rstrip("\n")
    for line in report.lines():
        existing[line.split(" ", 2)[1]] = line
    _write_lines(summary_path, [existing[k] for k in sorted(existing)])
    return path


# ---------------------------------------------------------------------------
# Figure data
# ---------------------------------------------------------------------------

_F3_PARAMS = BarTauParams(z=1e-3, w=2.0, c3=18.0)
_F4_W, _F4_C1, _F4_C3 = 3.0, 741.0, 296.0


def _f1_rows() -> tuple[list[str], list[list]]:
    header = ["z", "cdf_neg_z", "half_gauss", "tau_neg_z"]
    zs = [i / 100.0 for i in range(601)]
    return header, [[z, cdf(-z), 0.5 * math.exp(-0.5 * z * z), tau(-z)] for z in zs]


def _f2_rows() -> tuple[list[str], list[list]]:
    header = ["a", "b", "ei"]
    a = [-3.0 + j * 0.05 for j in range(121)]
    b = [k / 100.0 for k in range(1, 101)]
    ei = np.asarray(ei_ab(np.repeat(a, len(b)), np.tile(b, len(a)))).tolist()
    return header, [[x, y, e] for (x, y), e in zip(itertools.product(a, b), ei)]


def _sweep(label: str, fn, zs, z_slice: float, rho_max: float) -> tuple[list[str], list[list]]:
    """fn(rho, z) at 100 rho in (0, rho_max) per z of zs (the contour), then at
    200 rho for z_slice (the slice); each row carries log10 of the value and
    its margin over tau(z)."""
    header = ["part", "z", "rho", f"log10_{label}", f"{label}_minus_tau"]
    rows = []
    for part, part_zs, steps in (("contour", zs, 101), ("slice", [z_slice], 201)):
        for z in part_zs:
            ref = tau(z)
            for j in range(1, steps):
                rho = rho_max * j / steps
                val = fn(rho, z)
                rows.append([part, z, rho, math.log10(val), val - ref])
    return header, rows


def _f3_rows() -> tuple[list[str], list[list]]:
    p = _F3_PARAMS
    zs = [-5.0 + i * 0.1 for i in range(50)]
    return _sweep("bar_tau", lambda rho, z: bar_tau(rho, dataclasses.replace(p, z=z)), zs, p.z, p.rho_max)


def _f4_rows() -> tuple[list[str], list[list]]:
    zs = [i * 0.1 for i in range(51)]
    return _sweep("tilde_tau", lambda rho, z: tilde_tau(rho, z, _F4_W, _F4_C1, _F4_C3), zs, 0.0, _F4_W / _F4_C3)


def _f5_rows() -> tuple[list[str], list[list]]:
    header = ["delta", "log10_c4_42", "log10_c5_42", "log10_c4_46", "log10_c5_46"]
    rows = []
    for i in range(89):
        delta = (2 + i) / 100.0
        cmp_ = bounds.compare_coefficients(delta)
        rows.append([delta, *map(math.log10, (cmp_.c4_42, cmp_.c5_42, cmp_.c4_46, cmp_.c5_46))])
    return header, rows


_FIGURE_ROWS = {
    "F1_PhiTau": _f1_rows,
    "F2_EiContour": _f2_rows,
    "F3_BarTau": _f3_rows,
    "F4_TildeTau": _f4_rows,
    "F5_Coeffs": _f5_rows,
}
FIGURE_IDS = tuple(_FIGURE_ROWS)


def emit_figure_data(fig_id: str, out_path: str) -> str:
    """Write one figure's CSV; deterministic, no randomness involved."""
    if fig_id not in _FIGURE_ROWS:
        raise ValueError(f"unknown figure id {fig_id!r}; known: {FIGURE_IDS}")
    header, rows = _FIGURE_ROWS[fig_id]()
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    _write_table(out_path, f"# figure={fig_id} seed=0", header, (map(_cell, row) for row in rows))
    return out_path
