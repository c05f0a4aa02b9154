"""Experiment campaigns, Monte-Carlo lemma verification, and figure-data emission.

A campaign builds the GP prior on the config grid once (one ``GridPrior``
per campaign, which its pool workers share), samples one objective per trial
from it, runs the optimization loop on chunks of at most ``eiopt.batch_size``
trials in lockstep (one chunk per pool task with several workers),
evaluates the configured error bound at every valid iteration of every trial
as one (trials, t) array (``bounds.check_columns``; a budget with no valid
iteration is refused), and aggregates coverage (how often the bound held)
against the nominal 1 - delta.  Coverage checks pass when the empirical
frequency is at least (1 - delta) - 3*sqrt(delta*(1-delta)/trials), with
trials the number of trials recorded at that t (kappa stopping can leave
fewer at late t): the theorems state exact probabilities and sampling noise
must not be flagged as a violation.  A campaign in which no trial reached a
checkable t has no coverage row, and fails.

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

_FMU_T_STEPS = 30
_ICDF_TOLERANCE = 0.01

# Significance of the two-sided exact binomial test of the fmu frequency
# against its exact probability.
_FMU_ALPHA = 1e-3

# Absolute slack on concentration comparisons; covers posterior-arithmetic
# roundoff when a predictive sd degenerates to ~0, nothing more.
_ROUNDOFF_GUARD = 1e-9


def wilson_lower(successes: int, n: int) -> float:
    """Lower Wilson score limit for a binomial proportion (99% confidence)."""
    if n <= 0:
        raise ValueError("n must be positive")
    p, z = successes / n, _WILSON_Z
    denom = 1.0 + z * z / n
    center = p + z * z / (2 * n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, (center - half) / denom)


def binomial_tails(hits: int, n: int, p: float) -> tuple[float, float]:
    """P(X <= hits) and P(X >= hits) for X ~ Binomial(n, p), 0 < p <= 1: exact
    sums of the pmf, each term exp(log C(n, k) + k log p + (n - k) log(1 - p))
    with the binomial coefficient from ``math.lgamma``, added by ``math.fsum``."""
    if not 0 <= hits <= n:
        raise ValueError(f"need 0 <= hits <= n, got hits={hits}, n={n}")
    log_p, log_q = math.log(p), math.log1p(-p) if p < 1 else -math.inf
    pmf = [
        math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_p
                 + ((n - k) * log_q if k < n else 0.0))
        for k in range(n + 1)
    ]
    return math.fsum(pmf[: hits + 1]), math.fsum(pmf[hits:])


def coverage_target(delta: float, trials: int) -> float:
    """(1 - delta) minus three binomial standard errors."""
    return (1.0 - delta) - 3.0 * math.sqrt(delta * (1.0 - delta) / trials)


def _verdict(hits: int, n: int, delta: float) -> tuple[float, float, float, bool]:
    """(frequency, target, Wilson lower limit, passed) of ``hits`` in ``n`` trials
    against the coverage target at n: a campaign row's and a lemma's one verdict."""
    freq, target = hits / n, coverage_target(delta, n)
    return freq, target, wilson_lower(hits, n), freq >= target


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
class CampaignResult:
    config: ExperimentConfig
    config_hash: str
    coverage: tuple[CoverageRow, ...]
    traces: tuple[Trace, ...]
    checks: bounds.BoundChecks  # (trials, valid t), NaN where a trial had stopped
    variance_violations: int
    variance_checked: bool
    passed: bool


def run_trial(batch: eiopt.Batch, b: int) -> Trace:
    """Trial ``b`` of a finished batch as its ``Trace``; called once per trial."""
    return batch.trace(b)


def batch_traces(batch: eiopt.Batch) -> list[Trace]:
    """Each trial's trace, one ``run_trial`` call per trial."""
    return [run_trial(batch, b) for b in range(len(batch.seeds))]


def trial_chunks(config: ExperimentConfig) -> list[list[int]]:
    """The config's trial seeds, ``trial_seed(config.seed, i)`` for trial i, in
    consecutive chunks of at most ``eiopt.batch_size`` trials."""
    seeds = [trial_seed(config.seed, i) for i in range(config.trials)]
    size = eiopt.batch_size(config.T, config.grid_size)
    return [seeds[i : i + size] for i in range(0, config.trials, size)]


# (config, prior) of the campaign a pool worker serves; set once per worker
# process by _init_worker to the parent's prior, so no task carries the prior
# and no worker builds it again.
_worker_campaign: tuple[ExperimentConfig, gp.GridPrior] | None = None


def _init_worker(config: ExperimentConfig, prior: gp.GridPrior) -> None:
    global _worker_campaign
    _worker_campaign = (config, prior)


def _worker_trials(seeds: list[int]) -> eiopt.Batch:
    return eiopt.run_batch(*_worker_campaign, seeds)


def run_campaign(config: ExperimentConfig, workers: int = 1) -> CampaignResult:
    """Run all trials and aggregate bound coverage; no file output.  A budget
    that ends before the bound's first valid t raises ValueError up front."""
    config.validate()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    constants = bounds.constants_for(config.theorem, config.delta, noisy=config.noise_sd > 0)
    ts = bounds.valid_ts(constants, config.T0, config.T)
    if not ts:
        raise ValueError(f"no bound is checkable below T={config.T}: {constants.flavor} needs "
                         f"t > {constants.window_divisor} (the window divisor) and t >= t_min={constants.t_min!r}")
    chunks = trial_chunks(config)
    prior = gp.GridPrior.build(config)
    # pool workers inherit the prior (pickled once per worker under a non-fork
    # start method): start none without a chunk, and run a single chunk here;
    # a task returns its batch alone, and the traces are sliced here
    workers = min(workers, len(chunks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: most gpei processes start no pool
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(config, prior)) as pool:
            batches = list(pool.map(_worker_trials, chunks))
    else:
        batches = [eiopt.run_batch(config, prior, chunk) for chunk in chunks]
    traces = tuple(itertools.chain.from_iterable(map(batch_traces, batches)))

    # the checked columns, one row per iteration from T0 and one column per
    # trial; check_columns masks the filler after each trial's steps
    sigma_next, r_t = (np.concatenate([b.columns[name] for b in batches]).T for name in ("sigma_next", "r_t"))
    steps, f_bound = (np.concatenate([getattr(b, name) for b in batches]) for name in ("steps", "f_abs_max"))
    checks = bounds.check_columns(constants, ts, config.T0, sigma_next, r_t, steps, f_bound, config.noise_sd)
    coverage = _coverage_rows(config, checks)

    variance_checked = config.noise_sd > 0
    violations = sum(not gp.variance_sum_check(tr.sigma_next, config.noise_var)[2] for tr in traces if variance_checked)

    passed = bool(coverage) and all(row.passed for row in coverage) and violations == 0
    return CampaignResult(
        config=config,
        config_hash=config_hash(config),
        coverage=coverage,
        traces=traces,
        checks=checks,
        variance_violations=violations,
        variance_checked=variance_checked,
        passed=passed,
    )


def _coverage_rows(config: ExperimentConfig, checks: bounds.BoundChecks) -> tuple[CoverageRow, ...]:
    """One row per t that some trial recorded, from reductions over contiguous
    per-t rows of the recorded trials in trial order: the leading t, which every
    trial recorded, in one block, then each later t alone (kappa stopping)."""
    fields = [a.T for a in (checks.holds, checks.bound, checks.r_t, checks.sigma_win_max, checks.sigma_win_min)]
    recorded = ~np.isnan(fields[2])
    full = int(recorded.all(axis=1).sum())
    blocks = [(range(full), [a[:full] for a in fields])]
    blocks += [([i], [a[i, keep][None] for a in fields]) for i, keep in enumerate(recorded[full:], full) if keep.any()]
    rows = []
    for at, (holds, bound, r_t, smax, smin) in blocks:
        n = bound.shape[1]  # kappa stopping can leave fewer trials
        stats = (
            holds.sum(axis=1), bound.mean(axis=1), bound.min(axis=1), r_t.mean(axis=1), r_t.max(axis=1),
            (bound - r_t).min(axis=1), smax.mean(axis=1), smin.mean(axis=1),
        )
        for i, (h, *values) in zip(at, zip(*(x.tolist() for x in stats))):
            freq, target, wilson, passed = _verdict(h, n, config.delta)
            rows.append(CoverageRow(config.theorem, int(checks.t[i]), n, h, freq, wilson, *values, target, passed))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _cell(v: float | int | str) -> str:
    """A CSV cell: a float as its shortest round-trip repr, a str as is, an int
    in decimal (a bool as 0/1)."""
    if isinstance(v, float):
        return repr(float(v))
    return v if isinstance(v, str) else str(int(v))


def _check_line(name: str, passed: bool, pairs) -> str:
    """A summary's ``check`` line: the check's name, PASS or FAIL, then each
    (key, value) pair as ``key=<cell>``."""
    return " ".join(["check", name, "PASS" if passed else "FAIL", *(f"{k}={_cell(v)}" for k, v in pairs)])


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_table(path: str, meta: str, header, rows) -> None:
    """The one artifact layout: a meta line, the CSV header, then one line per
    row of rendered cells."""
    _write_lines(path, itertools.chain((meta, ",".join(header)), map(",".join, rows)))


def _meta_line(cfg_hash: str, seed: int) -> str:
    return f"# config_hash={cfg_hash} seed={seed}"


# trace CSV float columns after x_next, in CSV order
_TRACE_FLOATS = ("y_next", "y_plus", "mu_next", "sigma_next", "ei_next", "sigma_at_star", "r_t", "r0_t")


def write_trace_csv(path: str, result: CampaignResult) -> None:
    """Every trial's trace, in trial order, with its bound and holds at every
    checked t (empty cells before the first), each column formatted from
    ``tolist()``."""
    config, checks = result.config, result.checks
    header = ["trial", "t", *(f"x_next_{i}" for i in range(config.d)), *_TRACE_FLOATS, "bound", "holds"]

    def rows(trial_index: int, trace: Trace):
        checked = ~np.isnan(checks.r_t[trial_index])
        unchecked = [""] * (trace.t.size - checked.sum())  # the rows before the first checked t
        return zip(
            itertools.repeat(str(trial_index)),
            map(str, trace.t.tolist()),
            *(map(repr, col) for col in trace.x_next.T.tolist()),
            *(map(repr, getattr(trace, name).tolist()) for name in _TRACE_FLOATS),
            itertools.chain(unchecked, map(repr, checks.bound[trial_index, checked].tolist())),
            itertools.chain(unchecked, map(str, checks.holds[trial_index, checked].astype(int).tolist())),
        )

    _write_table(path, _meta_line(result.config_hash, config.seed), header,
                 itertools.chain.from_iterable(itertools.starmap(rows, enumerate(result.traces))))


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
    lines += [_check_line(f"coverage[{row.theorem},t={row.t}]", row.passed,
                          [(k, getattr(row, k)) for k in ("holds_frequency", "target", "trials", "wilson_lower")])
              for row in result.coverage]
    if not result.coverage:  # no trial reached a checkable t
        lines.append(_check_line("coverage", False, (("rows", 0), ("t_first", int(result.checks.t[0])))))
    if result.variance_checked:
        violations = result.variance_violations
        lines.append(_check_line("variance_sum", violations == 0, (("violations", f"{violations}/{cfg.trials}"),)))
    else:
        lines.append("check variance_sum SKIPPED (noiseless run)")
    lines.append(f"overall {'PASS' if result.passed else 'FAIL'}")
    return lines


def run_experiment(config: ExperimentConfig, out_dir: str, workers: int = 1) -> CampaignResult:
    """Run a campaign and write its four files to ``out_dir``: every trial's
    trace (``traces.csv``), the coverage, the config and the summary."""
    result = run_campaign(config, workers=workers)
    os.makedirs(out_dir, exist_ok=True)
    write_trace_csv(os.path.join(out_dir, "traces.csv"), result)
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
        return dict(self.metrics)[name]

    @property
    def line(self) -> str:
        return _check_line(f"lemma[{self.lemma}]", self.passed, self.metrics)


def _run_config(config: ExperimentConfig, n: int, T: int) -> ExperimentConfig:
    """The config of a lemma's n loop runs of budget T on the config grid,
    validated; a T that leaves no step after T0 raises ValueError."""
    if T <= config.T0:
        raise ValueError(f"a lemma's runs of budget T={T} make no step after T0={config.T0} initial observations")
    run_cfg = dataclasses.replace(config, T=T, trials=n)
    run_cfg.validate()
    return run_cfg


def _one_step_T(config: ExperimentConfig) -> int:
    """The budget of a pointwise lemma's one-step runs: one pick after the T0 initial observations."""
    return config.T0 + 1


@dataclass
class _LemmaRuns:
    """What the protocols of one ``verify_lemmas`` call share: the config
    grid's prior, built once, and step 0 of each batch of one-step runs
    on it, run once per (n, stream), so iei_add and iei_ratio read one batch."""

    config: ExperimentConfig
    prior: gp.GridPrior
    _first: dict = dataclasses.field(default_factory=dict)

    def first_picks(self, n: int, stream: int) -> dict[str, np.ndarray]:
        """Every column at step 0 of n one-step runs of the loop on the
        ``stream`` substream of the config's seed: its value at x_{T0+1}, the
        first point EI picks.  The pick depends on the T0 initial observations
        D alone, so f(x_{T0+1}) | D ~ N(mu_next, sigma_next^2) exactly there."""
        if (n, stream) not in self._first:
            run_cfg = dataclasses.replace(_run_config(self.config, n, _one_step_T(self.config)),
                                          seed=derive_stream_seed(self.config.seed, stream))
            batches = [eiopt.run_batch(run_cfg, self.prior, chunk) for chunk in trial_chunks(run_cfg)]
            self._first[n, stream] = {name: np.concatenate([b.columns[name][:, 0] for b in batches])
                                      for name in eiopt.COLUMNS}
        return self._first[n, stream]


def _coverage_metrics(indicator: np.ndarray, delta: float) -> tuple[bool, tuple[tuple[str, float], ...]]:
    n = indicator.size
    freq, target, wilson, passed = _verdict(int(np.sum(indicator)), n, delta)
    return passed, (("n", float(n)), ("delta", delta), ("frequency", freq), ("target", target),
                    ("wilson_lower", wilson))


def _verify_fmu(config: ExperimentConfig, n: int, runs: _LemmaRuns) -> LemmaReport:
    """|f - mu| <= sqrt(beta)*sigma at the first pick: the frequency must reach the
    one-sided coverage target, and an exact two-sided binomial test of it
    against its exact probability 1 - 2*Phi(-sqrt(beta)) (f - mu is
    N(0, sigma^2) under the prior) must not reject at ``_FMU_ALPHA``, so a
    posterior sd that is off either way fails even above the target."""
    first = runs.first_picks(n, _FMU_STREAM)
    f, mu, sigma = first["f_next"], first["mu_next"], first["sigma_next"]
    beta = 2.0 * math.log(1.0 / config.delta)
    ok = np.abs(f - mu) <= math.sqrt(beta) * sigma + _ROUNDOFF_GUARD
    passed, metrics = _coverage_metrics(ok, config.delta)
    hits = int(np.sum(ok))
    p_exact = 1.0 - 2.0 * float(cdf(-math.sqrt(beta)))
    # P(X <= hits) and P(X >= hits) for X ~ Binomial(n, p_exact), doubled
    two_sided = min(1.0, 2.0 * min(binomial_tails(hits, n, p_exact)))
    passed = passed and two_sided >= _FMU_ALPHA
    return LemmaReport("fmu", passed, metrics + (("beta", beta), ("p_exact", p_exact), ("two_sided_p", two_sided)))


def _first_improvements(n: int, runs: _LemmaRuns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(improvement max(y+ - f, 0), EI, sigma) at the first pick of n one-step
    runs, with y+ the best noisy initial observation."""
    first = runs.first_picks(n, _IEI_STREAM)
    return np.maximum(first["y_plus"] - first["f_next"], 0.0), first["ei_next"], first["sigma_next"]


def _verify_iei_add(config: ExperimentConfig, n: int, runs: _LemmaRuns) -> LemmaReport:
    improve, ei, sigma = _first_improvements(n, runs)
    beta = max(1.44, 2.0 * math.log(bounds.C_ALPHA / config.delta))
    ok = np.abs(improve - ei) <= math.sqrt(beta) * sigma + _ROUNDOFF_GUARD
    passed, metrics = _coverage_metrics(ok, config.delta)
    return LemmaReport("iei_add", passed, metrics + (("beta", beta),))


def _verify_iei_ratio(config: ExperimentConfig, n: int, runs: _LemmaRuns) -> LemmaReport:
    improve, ei, _ = _first_improvements(n, runs)
    beta = 2.0 * math.log(1.0 / config.delta)
    ratio = 1.0 / bounds.c_tau_of(beta)
    ok = ratio * improve <= ei + _ROUNDOFF_GUARD
    passed, metrics = _coverage_metrics(ok, config.delta)
    return LemmaReport("iei_ratio", passed, metrics + (("beta", beta), ("ratio", float(ratio))))


def _verify_fmu_t(config: ExperimentConfig, n: int, runs: _LemmaRuns) -> LemmaReport:
    """Fraction of full runs where the all-t prediction-error bound never fails.
    Its ``steps`` metric is the run budget T, so the bound is checked at
    t = T0 ... T - 1 (29 steps at T0 = 1)."""
    run_cfg = _run_config(config, n, _FMU_T_STEPS)
    # one entry per step of the loop, t = T0 ... T - 1
    ts = range(run_cfg.T0, run_cfg.T)
    root_beta = np.array([math.sqrt(bounds.beta_t_seq(t + 1, config.delta)) for t in ts])
    successes = []
    for chunk in trial_chunks(run_cfg):  # one batch held at a time
        batch = eiopt.run_batch(run_cfg, runs.prior, chunk)
        batch_traces(batch)  # one run_trial per run, as in a campaign: perfbench's tracer counts steps there
        f, mu, sigma = (batch.columns[name] for name in ("f_next", "mu_next", "sigma_next"))
        recorded = np.arange(root_beta.size) < batch.steps[:, None]
        miss = recorded & (np.abs(f - mu) > root_beta * sigma + _ROUNDOFF_GUARD)
        successes.append(~miss.any(axis=1))
    passed, metrics = _coverage_metrics(np.concatenate(successes), config.delta)
    return LemmaReport("fmu_t", passed, metrics + (("steps", float(_FMU_T_STEPS)),))


def _verify_icdf(config: ExperimentConfig, n: int, runs: _LemmaRuns | None) -> LemmaReport:
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


def _verify_tail_bound(config: ExperimentConfig, n: int, runs: _LemmaRuns | None) -> LemmaReport:
    c = np.logspace(-3, math.log10(8.0), 400)
    margin = 0.5 * np.exp(-0.5 * c * c) - np.asarray(cdf(-c))
    worst = float(np.min(margin))
    return LemmaReport("tail_bound", worst >= 0.0, (("points", 400.0), ("min_margin", worst)))


def _verify_tau_vs_phi(config: ExperimentConfig, n: int, runs: _LemmaRuns | None) -> LemmaReport:
    z = np.linspace(1e-3, 10.0, 1000)
    margin = np.asarray(cdf(-z)) - np.asarray(tau(-z))
    worst = float(np.min(margin))
    return LemmaReport("tau_vs_phi", worst > 0.0, (("points", 1000.0), ("min_margin", worst)))


def _verify_ei_monotone(config: ExperimentConfig, n: int, runs: _LemmaRuns | None) -> LemmaReport:
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


# Every lemma id, in report order: its protocol, its default Monte-Carlo size
# (one-step runs for the pointwise lemmas, full runs for the all-t lemma,
# function draws for the improvement CDF; None for a closed-form scan, which
# ignores n), and the budget T of the loop runs it makes on the config grid's
# prior, as a function of the config (None for a protocol that reads no prior).
_LEMMAS = {
    "fmu": (_verify_fmu, 2000, _one_step_T),
    "fmu_t": (_verify_fmu_t, 500, lambda config: _FMU_T_STEPS),
    "iei_add": (_verify_iei_add, 2000, _one_step_T),
    "iei_ratio": (_verify_iei_ratio, 2000, _one_step_T),
    "icdf": (_verify_icdf, 100_000, None),
    "tail_bound": (_verify_tail_bound, None, None),
    "tau_vs_phi": (_verify_tau_vs_phi, None, None),
    "ei_monotone": (_verify_ei_monotone, None, None),
}
LEMMA_IDS = tuple(_LEMMAS)


def verify_lemmas(lemma_ids, config: ExperimentConfig, n: int | None = None) -> list[LemmaReport]:
    """Run each lemma's verification protocol, in order, and report pass/fail.

    Every id, size and run config is checked before any protocol runs.
    The config grid's prior is built at most once, and only when a requested
    protocol reads it; protocols that read the same runs on it share them
    (``_LemmaRuns``).  ``n`` overrides each protocol's default Monte-Carlo
    size; Monte-Carlo protocols require n >= 500.  Closed-form lemmas scan
    fixed grids and ignore n and the prior.
    """
    config.validate()
    planned = []
    for lemma_id in lemma_ids:
        key = lemma_id.strip().lower()
        if key not in _LEMMAS:
            raise ValueError(f"unknown lemma id {lemma_id!r}; known: {LEMMA_IDS}")
        protocol, default_n, budget = _LEMMAS[key]
        size = n if n is not None else default_n or 0
        if default_n is not None and size < 500:
            raise ValueError(f"Monte-Carlo lemma {key!r} requires at least 500 draws, got {size}")
        if budget is not None:
            _run_config(config, size, budget(config))  # its runs must fit the grid
        planned.append((protocol, size, budget is not None))
    runs = _LemmaRuns(config, gp.GridPrior.build(config)) if any(reads for _, _, reads in planned) else None
    return [protocol(config, size, runs) for protocol, size, _ in planned]


def verify_lemma(lemma_id: str, config: ExperimentConfig, n: int | None = None) -> LemmaReport:
    """``verify_lemmas`` of the one id ``lemma_id``."""
    return verify_lemmas([lemma_id], config, n)[0]


def write_lemma_report(out_dir: str, report: LemmaReport, config: ExperimentConfig) -> str:
    """Write ``verify_<lemma>.csv`` and merge the report's check line into
    ``verify_summary.txt``, which holds one ``check lemma[...]`` line per lemma,
    sorted, however many lemmas share the directory (a campaign's ``summary.txt``
    beside it is left alone).  A lemma summary holding any other line raises
    ValueError before anything is written."""
    summary_path = os.path.join(out_dir, "verify_summary.txt")
    existing: dict[str, str] = {}
    if os.path.exists(summary_path):
        with open(summary_path, "r", encoding="utf-8") as fh:
            for line in fh.read().splitlines():
                if not line.startswith("check lemma["):
                    raise ValueError(f"{summary_path} holds a line that is not a lemma check: {line!r}")
                existing[line.split(" ", 2)[1]] = line
    existing[report.line.split(" ", 2)[1]] = report.line

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"verify_{report.lemma}.csv")
    rows = [(key, _cell(value)) for key, value in (*report.metrics, ("passed", report.passed))]
    _write_table(path, _meta_line(config_hash(config), config.seed), ("metric", "value"), rows)
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
        c42, c46 = bounds.compare_coefficients(delta)
        rows.append([delta, *map(math.log10, (c42.c4, c42.c5, c46.c4, c46.c5))])
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
