"""The expected-improvement acquisition and the sequential optimization loop.

One loop iteration at step t: maximize EI_t over the finite candidate grid,
observe the chosen point (with additive Gaussian noise when configured),
extend the posterior by that observation, and record a trace row.  The loop
runs B trials on one shared ``GridPrior`` in lockstep (``run_batch``; a
single run is B = 1): each step makes one EI evaluation and one argmax over
the (B, n) block of posterior moments and one batched posterior append.  The
moments are kept in a ``GridPosterior`` with state V (B, T, n), w (B, T),
mu and var (B, n) and jitter (B,); it reads rows of the prior Gram matrix and
appends one row of each trial's Cholesky factor per observation (O(t*n) per
trial and step), refitting a trial alone when its new pivot is not positive.
``batch_size`` keeps V near 2 MiB: B = max(1, 2 MiB // (8*T*n)).  A trial's
trace does not depend on B or on the trials it shares a batch with.
Acquisition maximization is an exhaustive scan, which is exact at desk scale
and keeps inner-optimizer noise out of the recorded quantities; EI values
within a relative 1e-12 of the maximum are tied, and ties break to the lowest
candidate index (``lowest_argmax``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gp, stdnormal
from .config import ExperimentConfig
from .gp import GpState, GridPrior, PriorSample
from .rng import derive_stream_seed

# Stream tags for the per-run substreams (initial design vs noise draws),
# so objective sampling and noise are independently reproducible.
INIT_STREAM = 0x494E4954
NOISE_STREAM = 0x4E4F4953

# Candidates whose EI lies within this fraction of |max EI| below the maximum
# count as tied with it: mirror points of a symmetric posterior have equal EI
# in exact arithmetic but not after roundoff.
TIE_RTOL = 1e-12

# Size of the V buffer of one batch of lockstep trials; see ``batch_size``.
BATCH_BYTES = 2 << 20


def improvement(y_plus: float, f_x: float) -> float:
    """max(y_plus - f_x, 0): the amount a function value improves on the incumbent."""
    if not (np.isfinite(y_plus) and np.isfinite(f_x)):
        raise ValueError("improvement requires finite inputs")
    return max(y_plus - f_x, 0.0)


def ei(state: GpState, y_plus: float, x) -> float:
    """EI_t(x) = sigma * tau((y_plus - mu)/sigma), degenerating to max(y_plus - mu, 0)
    when the predictive sd is at most ``stdnormal.SIGMA_FLOOR``."""
    mu, sigma = gp.posterior(state, x)
    return float(stdnormal.ei_ab(float(y_plus) - mu, sigma))


def ei_batch(state: GpState, y_plus: float, candidates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posterior moments and EI at every candidate row; the loop's hot path."""
    mu, sigma = gp.posterior_batch(state, candidates)
    return mu, sigma, stdnormal.ei_ab(float(y_plus) - mu, sigma)


def lowest_argmax(vals: np.ndarray):
    """Per row of ``vals`` (last axis), the lowest index i with
    vals[i] >= max(vals) - 1e-12 * |max(vals)| (``TIE_RTOL``).

    Raises ValueError when a row's maximum is not finite, which a NaN or +inf
    anywhere in the row makes it."""
    top = vals.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise ValueError(f"acquisition values must be finite, got row maxima {top.ravel()!r}")
    return np.argmax(vals >= top - TIE_RTOL * np.abs(top), axis=-1)


def argmax_ei(state: GpState, y_plus: float, candidates) -> tuple[int, np.ndarray]:
    """Index and coordinates of the EI-maximizing candidate; values within a
    relative 1e-12 of the maximum are tied and the lowest index wins."""
    candidates = np.asarray(candidates, dtype=float)
    if candidates.ndim != 2 or candidates.shape[0] < 1:
        raise ValueError("candidates must be a non-empty 2-d array")
    _, _, vals = ei_batch(state, y_plus, candidates)
    idx = int(lowest_argmax(vals))
    return idx, candidates[idx]


class GridPosterior:
    """Posterior moments on the grid of a ``GridPrior`` for B trials that share
    it, each extended one observation at a time.

    For trial b, with X_b its observed grid points, y_b their values and L_b
    the lower Cholesky factor of K(X_b, X_b) + (noise_var + jitter[b])*I, it
    holds V[b] = L_b^{-1} K(X_b, grid), w[b] = L_b^{-1} y_b,
    ``mu[b]`` = V[b]^T w[b] and ``var[b]`` = 1 - sum(V[b] * V[b], axis=0), in
    buffers V (B, capacity, n), w (B, capacity), ``mu`` and ``var`` (B, n) and
    ``jitter`` (B,): B*capacity*n*8 bytes for V.  ``observe(j, y)`` borders
    each selected L_b with the row [l^T, d], where l = V[b, :, j_b] =
    L_b^{-1} k_t(grid[j_b]) and d^2 = 1 + noise_var + jitter[b] - l^T l,
    appends v = (K[j_b] - l^T V[b]) / d to V[b] and (y_b - l^T w[b]) / d to
    w[b], so that mu[b] += v * w_new and var[b] -= v^2: O(t*n) per trial and
    step, with K[j_b] a row of the prior's Gram matrix and no kernel call or
    triangular solve.  All selected trials append in one batched ``matmul``;
    l^T l and l^T w are row-wise reductions, so a trial's arithmetic does not
    depend on B or on the other trials.  Every trial starts from the prior
    (no observations, mu = 0, var = 1, jitter ``gp.JITTER_START``) and takes
    its initial observations through ``observe`` too.  Only a trial whose d^2
    is not positive and finite is refitted alone: ``gp.chol_with_jitter``
    factors its block of K plus noise_var*I (escalating the jitter), and V[b]
    and w[b] are rebuilt from that factor.  Every kernel value comes from
    the prior's K.
    """

    def __init__(self, prior: GridPrior, idx, y, noise_var: float, capacity: int):
        idx = np.asarray(idx, dtype=np.intp)
        y = np.asarray(y, dtype=float)
        if idx.ndim != 2 or y.shape != idx.shape:
            raise ValueError(f"idx and y must both have shape (B, t), got {idx.shape} and {y.shape}")
        B, t = idx.shape
        n = prior.grid.shape[0]
        self.prior = prior
        self.noise_var = float(noise_var)
        self._t = np.zeros(B, dtype=np.intp)
        self._idx = np.empty((B, capacity), dtype=np.intp)
        self._y = np.empty((B, capacity))
        self._V = np.empty((B, capacity, n))
        self._w = np.empty((B, capacity))
        self.mu = np.zeros((B, n))
        self.var = np.ones((B, n))
        self.jitter = np.full(B, gp.JITTER_START)
        for s in range(t):
            self.observe(idx[:, s], y[:, s])

    def _refit(self, b: int) -> None:
        t = self._t[b]
        idx = self._idx[b, :t]
        K = self.prior.K[np.ix_(idx, idx)]
        K.flat[:: t + 1] += self.noise_var
        L, self.jitter[b] = gp.chol_with_jitter(K)
        V = self._V[b, :t]
        V[:] = gp.solve_lower(L, self.prior.K[idx])
        self._w[b, :t] = gp.solve_lower(L, self._y[b, :t])
        self.mu[b] = V.T @ self._w[b, :t]
        self.var[b] = 1.0 - np.sum(V * V, axis=0)

    @property
    def sigma(self) -> np.ndarray:
        """Posterior sd on the grid, clipped into [0, 1] as in ``gp.posterior_batch``."""
        return np.sqrt(np.clip(self.var, 0.0, 1.0))

    def observe(self, j, y, rows=slice(None)) -> None:
        """Condition trial ``rows[k]`` on observing ``y[k]`` at grid[j[k]].

        ``rows`` selects the trials that step (a slice or an index array;
        every trial by default), and they must hold equally many observations.
        """
        j = np.asarray(j, dtype=np.intp)
        y = np.asarray(y, dtype=float)
        if not np.isfinite(y).all():
            raise ValueError(f"y must be finite, got {y!r}")
        counts = self._t[rows]
        t = int(counts[0])
        if (counts != t).any():
            raise ValueError("the observing trials must hold equally many observations")
        # a view while rows is a slice: an index array copies (B, t, n)
        V = self._V[rows, :t]
        l = V[np.arange(V.shape[0]), :, j]
        d2 = 1.0 + self.noise_var + self.jitter[rows] - np.sum(l * l, axis=1)
        ok = np.isfinite(d2) & (d2 > 0.0)
        d = np.sqrt(np.where(ok, d2, 1.0))  # failed pivots are rebuilt below
        v = self.prior.K[j] - np.matmul(l[:, None, :], V)[:, 0]
        v /= d[:, None]
        w_new = (y - np.sum(l * self._w[rows, :t], axis=1)) / d
        self._V[rows, t] = v
        self._w[rows, t] = w_new
        self._idx[rows, t] = j
        self._y[rows, t] = y
        self._t[rows] += 1
        self.mu[rows] += v * w_new[:, None]
        self.var[rows] -= v * v
        if not ok.all():
            for b in np.arange(self._t.size)[rows][~ok]:
                self._refit(b)


@dataclass(frozen=True)
class TraceRow:
    """Per-iteration record: quantities indexed by t describe the posterior on
    the first t observations and the point x_{t+1} it selects."""

    t: int
    x_next: tuple[float, ...]
    x_next_idx: int
    f_next: float
    y_next: float
    y_plus: float
    mu_next: float
    sigma_next: float
    ei_next: float
    sigma_at_star: float
    r_t: float
    r0_t: float


@dataclass(frozen=True)
class Trace:
    """Immutable record of one optimization run plus its provenance; ``rows``
    are contiguous in t from T0, so the row for t sits at index t - T0."""

    rows: tuple[TraceRow, ...]
    seed: int
    config_hash: str
    noise_sd: float
    f_star: float
    f_abs_max: float
    x_star_idx: int
    init_indices: tuple[int, ...]
    stopped_early: bool

    def rows_between(self, lo: int, hi: int) -> tuple[TraceRow, ...]:
        """The recorded rows with lo <= t <= hi."""
        t0 = self.rows[0].t if self.rows else lo
        return self.rows[max(lo - t0, 0) : max(hi - t0 + 1, 0)]

    def row_at(self, t: int) -> TraceRow:
        rows = self.rows_between(t, t)
        if not rows:
            raise ValueError(f"trace has no row for t={t}")
        return rows[0]

    def sigma_at_next(self) -> np.ndarray:
        return np.array([row.sigma_next for row in self.rows])


def batch_size(T: int, n: int) -> int:
    """Trials stepped together: max(1, 2 MiB // (8*T*n)), so that a batch's V
    buffer takes about 2 MiB (43 trials at T=30 and n=200, 21 at T=60 and
    n=200, one at n=4096)."""
    return max(1, BATCH_BYTES // (8 * T * n))


@dataclass(frozen=True)
class Batch:
    """The loop's record of B trials run together, as per-trial columns.

    ``columns[c][b]`` lists trial b's values of ``TraceRow`` field c + 1 (t is
    implied) for every step of the budget; ``steps[b]`` of them were recorded.
    """

    samples: tuple[PriorSample, ...]
    seeds: tuple[int, ...]
    noise_sd: float
    init_indices: tuple[tuple[int, ...], ...]
    steps: tuple[int, ...]
    stopped: tuple[bool, ...]
    columns: tuple[list, ...]

    def trace(self, b: int, config_hash: str = "") -> Trace:
        """Trial b's ``Trace``."""
        k = self.steps[b]
        t0 = len(self.init_indices[b])
        x_next, *cols = (col[b][:k] for col in self.columns)
        sample = self.samples[b]
        return Trace(
            rows=tuple(map(TraceRow, range(t0, t0 + k), map(tuple, x_next), *cols)),
            seed=self.seeds[b],
            config_hash=config_hash,
            noise_sd=self.noise_sd,
            f_star=sample.f_star,
            f_abs_max=sample.f_abs_max,
            x_star_idx=sample.x_star_idx,
            init_indices=self.init_indices[b],
            stopped_early=self.stopped[b],
        )


def run_batch(config: ExperimentConfig, samples, seeds) -> Batch:
    """Execute the optimization loop on each prior draw, all trials in lockstep.

    Trial b runs on ``samples[b]`` with seed ``seeds[b]``; all samples share
    one ``GridPrior``.  T0 initial points are drawn uniformly (with
    replacement) from the grid and observed as y = f + eps with
    eps ~ N(0, noise_sd^2) i.i.d.; afterwards each step acquires the EI argmax
    over the full grid (``lowest_argmax`` on ties), observes it, extends the
    posterior, and records a row.  A trial stops at budget T, or right after
    observing a point whose acquisition value fell below ``kappa`` when a
    threshold is configured; the others step on without it.  Each step makes
    one EI evaluation and one argmax over the (B, n) block of the trials
    still running.  A trial's record is bit-identical for identical (config,
    sample, seed), whatever the other trials of its batch.
    """
    if not (1 <= config.T0 <= config.T):
        raise ValueError(f"need 1 <= T0 <= T, got T0={config.T0}, T={config.T}")
    if not samples or len(samples) != len(seeds):
        raise ValueError("need one seed per sample and at least one sample")
    prior = samples[0].prior
    if any(s.prior is not prior for s in samples):
        raise ValueError("the samples of a batch must share one GridPrior")
    if prior.kernel != config.kernel:
        raise ValueError("prior sample kernel does not match the config's kernel")
    grid = prior.grid
    if not np.array_equal(grid, config.grid_points()):
        raise ValueError("prior sample grid does not match the config's candidate grid")
    B, n, T0, T = len(samples), grid.shape[0], config.T0, config.T
    noise_sd = float(config.noise_sd)

    # each trial's noise stream yields its T0 initial draws, then one per step
    init = np.empty((B, T0), dtype=np.intp)
    eps = np.empty((B, T))
    for b, seed in enumerate(seeds):
        init[b] = np.random.default_rng(derive_stream_seed(seed, INIT_STREAM)).integers(0, n, size=T0)
        eps[b] = noise_sd * np.random.default_rng(derive_stream_seed(seed, NOISE_STREAM)).standard_normal(T)
    f = np.stack([s.f for s in samples])
    x_star = np.array([s.x_star_idx for s in samples])
    f_star = np.array([s.f_star for s in samples])
    y0 = np.take_along_axis(f, init, axis=1) + eps[:, :T0]

    post = GridPosterior(prior, init, y0, config.noise_var, T)

    best = np.argmin(y0, axis=1)
    y_plus = y0[np.arange(B), best]
    best_idx = init[np.arange(B), best]

    S = T - T0
    j_col = np.zeros((S, B), dtype=np.intp)
    f_col, y_col, yp_col, mu_col, sd_col, ei_col, star_col, r0_col = np.zeros((8, S, B))
    steps = np.full(B, S)
    stopped = np.zeros(B, dtype=bool)
    rows = np.arange(B)  # the trials still running
    sel = slice(None)  # indexes them: a slice while all run, so blocks are views
    for s in range(S):
        t = T0 + s
        mu, sigma = post.mu[sel], post.sigma[sel]
        vals = stdnormal.ei_unchecked(y_plus[sel, None] - mu, sigma)
        j = lowest_argmax(vals)
        k = np.arange(j.size)
        f_next = f[rows, j]
        y_new = f_next + eps[rows, t]
        ei_next = vals[k, j]
        j_col[s, sel] = j
        f_col[s, sel] = f_next
        y_col[s, sel] = y_new
        yp_col[s, sel] = y_plus[sel]
        mu_col[s, sel] = mu[k, j]
        sd_col[s, sel] = sigma[k, j]
        ei_col[s, sel] = ei_next
        star_col[s, sel] = sigma[k, x_star[sel]]
        r0_col[s, sel] = f[rows, best_idx[sel]]
        better = y_new < y_plus[sel]
        y_plus[sel] = np.where(better, y_new, y_plus[sel])
        best_idx[sel] = np.where(better, j, best_idx[sel])
        if config.kappa is not None:
            done = ei_next < config.kappa
            if done.any():
                steps[rows[done]] = s + 1
                stopped[rows[done]] = True
                rows, j, y_new = rows[~done], j[~done], y_new[~done]
                sel = rows
                if not rows.size:
                    break
        if t + 1 < T:  # the posterior after the last row is never read
            post.observe(j, y_new, sel)

    return Batch(
        samples=tuple(samples),
        seeds=tuple(int(s) for s in seeds),
        noise_sd=noise_sd,
        init_indices=tuple(map(tuple, init.tolist())),
        steps=tuple(steps.tolist()),
        stopped=tuple(stopped.tolist()),
        columns=(grid[j_col.T].tolist(),) + tuple(
            col.T.tolist()
            for col in (j_col, f_col, y_col, yp_col, mu_col, sd_col, ei_col, star_col, yp_col - f_star, r0_col - f_star)
        ),
    )


def run(config: ExperimentConfig, sample: PriorSample, seed: int, config_hash: str = "") -> Trace:
    """The loop on one prior draw: ``run_batch`` with a batch of one."""
    return run_batch(config, [sample], [seed]).trace(0, config_hash)
