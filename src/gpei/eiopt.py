"""The expected-improvement acquisition and the sequential optimization loop.

One loop iteration at step t: maximize EI_t over the finite candidate grid,
observe the chosen point (with additive Gaussian noise when configured),
extend the posterior by that observation, and record a trace row.  The
posterior moments on the grid are kept in a ``GridPosterior``, which reads
rows of the shared prior Gram matrix and appends one row of the Cholesky
factor per observation (O(t*n) per step), rebuilding from a refit when the
new pivot is not positive.
Acquisition maximization is an exhaustive scan, which is exact at desk scale
and keeps inner-optimizer noise out of the recorded quantities; EI values
within a relative 1e-12 of the maximum are tied, and ties break to the lowest
candidate index (``lowest_argmax``).
"""

from __future__ import annotations

import math
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


def improvement(y_plus: float, f_x: float) -> float:
    """max(y_plus - f_x, 0): the amount a function value improves on the incumbent."""
    if not (np.isfinite(y_plus) and np.isfinite(f_x)):
        raise ValueError("improvement requires finite inputs")
    return max(y_plus - f_x, 0.0)


def _ei_from_moments(y_plus: float, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    gap = y_plus - mu
    positive = sigma > gp.SIGMA_FLOOR
    safe = np.where(positive, sigma, 1.0)
    vals = np.asarray(stdnormal.tau(gap / safe)) * safe
    return np.where(positive, vals, np.maximum(gap, 0.0))


def ei(state: GpState, y_plus: float, x) -> float:
    """EI_t(x) = sigma * tau((y_plus - mu)/sigma), degenerating to max(y_plus - mu, 0)
    when the predictive sd underflows."""
    mu, sigma = gp.posterior(state, x)
    return float(_ei_from_moments(float(y_plus), np.asarray(mu), np.asarray(sigma)))


def ei_batch(state: GpState, y_plus: float, candidates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posterior moments and EI at every candidate row; the loop's hot path."""
    mu, sigma = gp.posterior_batch(state, candidates)
    return mu, sigma, _ei_from_moments(float(y_plus), mu, sigma)


def lowest_argmax(vals: np.ndarray) -> int:
    """Lowest index i with vals[i] >= max(vals) - 1e-12 * |max(vals)| (``TIE_RTOL``)."""
    top = vals.max()
    return int(np.argmax(vals >= top - TIE_RTOL * abs(top)))


def argmax_ei(state: GpState, y_plus: float, candidates) -> tuple[int, np.ndarray]:
    """Index and coordinates of the EI-maximizing candidate; values within a
    relative 1e-12 of the maximum are tied and the lowest index wins."""
    candidates = np.asarray(candidates, dtype=float)
    if candidates.ndim != 2 or candidates.shape[0] < 1:
        raise ValueError("candidates must be a non-empty 2-d array")
    _, _, vals = ei_batch(state, y_plus, candidates)
    idx = lowest_argmax(vals)
    return idx, candidates[idx]


class GridPosterior:
    """Posterior moments on the grid of a ``GridPrior``, extended one
    observation at a time.

    With X the observed grid points, y their values and L the lower Cholesky
    factor of K(X, X) + (noise_var + jitter)*I, it holds V = L^{-1} K(X, grid),
    w = L^{-1} y, ``mu`` = V^T w and ``var`` = 1 - sum(V * V, axis=0), in
    buffers sized for ``capacity`` observations.  ``observe(j, y)`` borders L
    with the row [l^T, d], where l = V[:, j] = L^{-1} k_t(grid[j]) and
    d^2 = 1 + noise_var + jitter - l^T l, appends v = (K[j] - l^T V) / d to V
    and (y - l^T w) / d to w, so that mu += v * w_new and var -= v^2: O(t*n)
    per step, with K[j] a row of the prior's Gram matrix and no kernel call or
    triangular solve.  The initial observations, and a step whose d^2 is not
    positive and finite, go through ``gp.fit`` on all observations (which
    escalates the jitter) and rebuild V and w from its factor.
    """

    def __init__(self, prior: GridPrior, idx, y, noise_var: float, capacity: int):
        self.prior = prior
        self.noise_var = float(noise_var)
        self._idx = [int(j) for j in idx]
        self._y = [float(v) for v in y]
        self._V = np.empty((capacity, prior.grid.shape[0]))
        self._w = np.empty(capacity)
        self._refit()

    def _refit(self) -> None:
        state = gp.fit(self.prior.kernel, self.prior.grid[self._idx], np.array(self._y), self.noise_var)
        t = state.t
        V = self._V[:t]
        V[:] = gp.solve_lower(state.chol, self.prior.K[self._idx])
        self._w[:t] = gp.solve_lower(state.chol, state.y)
        self.mu = V.T @ self._w[:t]
        self.var = 1.0 - np.sum(V * V, axis=0)
        self.jitter = state.jitter

    @property
    def sigma(self) -> np.ndarray:
        """Posterior sd on the grid, clipped into [0, 1] as in ``gp.posterior_batch``."""
        return np.sqrt(np.clip(self.var, 0.0, 1.0))

    def observe(self, j: int, y: float) -> None:
        """Condition on observing ``y`` at grid[j]."""
        y = float(y)
        if not math.isfinite(y):
            raise ValueError(f"y must be finite, got {y!r}")
        t = len(self._idx)
        self._idx.append(int(j))
        self._y.append(y)
        V = self._V[:t]
        l = V[:, j]
        d2 = 1.0 + self.noise_var + self.jitter - l @ l
        if not (np.isfinite(d2) and d2 > 0.0):
            self._refit()
            return
        d = np.sqrt(d2)
        v = self.prior.K[j] - l @ V
        v /= d
        w_new = (y - l @ self._w[:t]) / d
        self._V[t] = v
        self._w[t] = w_new
        self.mu += v * w_new
        self.var -= v * v


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


def run(config: ExperimentConfig, sample: PriorSample, seed: int, config_hash: str = "") -> Trace:
    """Execute the optimization loop on one prior draw.

    T0 initial points are drawn uniformly (with replacement) from the grid and
    observed as y = f + eps with eps ~ N(0, noise_sd^2) i.i.d.; afterwards each
    step acquires the EI argmax over the full grid (``lowest_argmax`` on
    ties), observes it, extends the posterior, and records a row.  Stops at
    budget T, or right after observing a point whose acquisition value fell
    below ``kappa`` when a threshold is configured.
    Bit-identical traces are guaranteed for identical (config, sample, seed).
    """
    if not (1 <= config.T0 <= config.T):
        raise ValueError(f"need 1 <= T0 <= T, got T0={config.T0}, T={config.T}")
    prior = sample.prior
    if prior.kernel != config.kernel:
        raise ValueError("prior sample kernel does not match the config's kernel")
    grid = prior.grid
    if not np.array_equal(grid, config.grid_points()):
        raise ValueError("prior sample grid does not match the config's candidate grid")
    n = grid.shape[0]
    noise_sd = float(config.noise_sd)

    rng_init = np.random.default_rng(derive_stream_seed(seed, INIT_STREAM))
    rng_noise = np.random.default_rng(derive_stream_seed(seed, NOISE_STREAM))

    init_idx = [int(i) for i in rng_init.integers(0, n, size=config.T0)]
    y_obs = [float(sample.f[j] + noise_sd * rng_noise.standard_normal()) for j in init_idx]

    post = GridPosterior(prior, init_idx, y_obs, config.noise_var, config.T)

    best = int(np.argmin(y_obs))
    y_plus = y_obs[best]
    best_idx = init_idx[best]

    rows: list[TraceRow] = []
    stopped = False
    for t in range(config.T0, config.T):
        mu, sigma = post.mu, post.sigma
        vals = _ei_from_moments(y_plus, mu, sigma)
        j = lowest_argmax(vals)
        eps = noise_sd * rng_noise.standard_normal()
        y_new = float(sample.f[j] + eps)
        rows.append(
            TraceRow(
                t=t,
                x_next=tuple(float(c) for c in grid[j]),
                x_next_idx=j,
                f_next=float(sample.f[j]),
                y_next=y_new,
                y_plus=y_plus,
                mu_next=float(mu[j]),
                sigma_next=float(sigma[j]),
                ei_next=float(vals[j]),
                sigma_at_star=float(sigma[sample.x_star_idx]),
                r_t=y_plus - sample.f_star,
                r0_t=float(sample.f[best_idx]) - sample.f_star,
            )
        )
        if y_new < y_plus:
            y_plus = y_new
            best_idx = j
        if t + 1 < config.T:  # the posterior after the last row is never read
            post.observe(j, y_new)
        if config.kappa is not None and rows[-1].ei_next < config.kappa:
            stopped = True
            break

    return Trace(
        rows=tuple(rows),
        seed=int(seed),
        config_hash=config_hash,
        noise_sd=noise_sd,
        f_star=sample.f_star,
        f_abs_max=sample.f_abs_max,
        x_star_idx=sample.x_star_idx,
        init_indices=tuple(init_idx),
        stopped_early=stopped,
    )
