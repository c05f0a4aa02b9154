"""The expected-improvement acquisition and the sequential optimization loop.

``run_batch`` runs B trials on one shared ``GridPrior`` in lockstep; a single
run is a batch of one.  Each step picks every trial's EI maximum over the
whole candidate grid (``pick``, an exhaustive scan: EI values within a
relative 1e-12 of the maximum are tied, and ``lowest_argmax`` breaks ties to
the lowest index), observes it (with additive Gaussian noise when
configured), extends the trials' posteriors (``GridPosterior``) and records
the step in the batch's (B, T - T0) columns; a trial's ``Trace`` is slices of
them.  A trial's record does not depend on B or on the trials it shares a
batch with.  ``ei_batch`` is EI on the reference posterior of ``gp.fit``,
which the tests check the loop against.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import gp, stdnormal
from .config import ExperimentConfig
from .gp import GpState, GridPrior
from .rng import INIT, NOISE, to_segment

# Candidates whose EI lies within this fraction of |max EI| below the maximum
# count as tied with it: mirror points of a symmetric posterior have equal EI
# in exact arithmetic but not after roundoff.
TIE_RTOL = 1e-12


def ei_batch(state: GpState, y_plus: float, candidates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posterior moments and EI at every candidate row of a ``gp.fit`` state: the
    reference the loop's ``GridPosterior`` moments are tested against."""
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


# The screen's bound exceeds EI by a factor of at most 1.4697 (at |a/b| =
# 0.778; the factor tends to 1 as |a/b| grows).  1.5 leaves 2% for roundoff,
# which stays below 1e-12 relative in both the bound and EI.  The cut's
# 1e-300 covers the absolute roundoff of values that underflow (a row whose
# bound is below it is evaluated in full), and its cap of 1e300 a bound that
# overflows where EI does not.
_SCREEN_RATIO = 1.5


def pick(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (B, n) block of exploitations a and explorations b, the
    candidate ``lowest_argmax(ei_unchecked(a, b))`` and its EI, bit for bit,
    with exact EI evaluated only where it can reach the row's tie threshold.

    Gordon's bound on Mills' ratio (Ann. Math. Stat. 12, 1941),
    x*phi(x)/(1 + x^2) <= 1 - Phi(x) for x >= 0, gives
    tau(-x) <= phi(x)/(1 + x^2); with tau(z) = z + tau(-z), EI = b*tau(a/b)
    (Jones, Schonlau & Welch 1998) is at most
    U = max(a, 0) + b*phi(z)/(1 + z^2), z = a/b, which takes one exp; where
    b <= ``SIGMA_FLOOR``, U = max(a, 0) = EI.  The row's maximum EI is at
    least max(U)/``_SCREEN_RATIO``, so an entry whose U is below that cut is
    below the tie threshold, and so is its EI.  Exact EI replaces U wherever
    U is not below the cut (NaN included), and the tie rule on the mixed
    block picks among exact values alone.  A NaN or +inf EI always passes
    the screen, so ``lowest_argmax`` raises as it does on the full block.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z2 = (a / b) ** 2
        tail = np.exp(-0.5 * z2) / (1.0 + z2) * b * stdnormal.PHI0
        if not b.min() > stdnormal.SIGMA_FLOOR:  # also when b holds a NaN
            tail = np.where(b <= stdnormal.SIGMA_FLOOR, 0.0, tail)
        bound = tail + np.maximum(a, 0.0)
        cut = np.minimum(bound.max(axis=1) / _SCREEN_RATIO - 1e-300, 1e300)
        keep = ~(bound < cut[:, None])
    bound[keep] = stdnormal.ei_unchecked(a[keep], b[keep])
    j = lowest_argmax(bound)
    return j, bound[np.arange(j.size), j]


class GridPosterior:
    """Posterior moments on the grid of a ``GridPrior`` for B trials that share
    it and step together, each extended by one observation per step.

    For trial b, with X_b its observed grid points, y_b their values and L_b
    the lower Cholesky factor of K(X_b, X_b) + (noise_var + jitter[b])*I, it
    holds V[b] = L_b^{-1} K(X_b, grid) and w[b] = L_b^{-1} y_b in buffers of
    ``capacity`` observations, ``mu[b]`` = V[b]^T w[b] and
    ``var[b]`` = 1 - sum(V[b] * V[b], axis=0).  ``observe(j, y)`` borders
    each L_b with the row [l^T, d], where l = V[b, :, j_b] and
    d^2 = 1 + noise_var + jitter[b] - l^T l, and updates mu and var in
    O(t*n) per trial with no triangular solve.  This append builds every
    posterior: a trial whose d^2 is not positive and finite is rebuilt by
    ``_refit``, which replays it at a higher jitter.  Every kernel value comes
    from ``prior.rows``.  A trial's arithmetic does not depend on B or on the
    other trials, and ``keep(mask)`` drops the trials that stop.  Every trial
    starts from the prior (mu = 0, var = 1, jitter ``jitter``, by default
    ``gp.JITTER_START`` when called) and takes its initial observations
    through ``observe`` too.
    """

    def __init__(self, prior: GridPrior, idx, y, noise_var: float, capacity: int, jitter: float | None = None):
        idx = np.asarray(idx, dtype=np.intp)
        y = np.asarray(y, dtype=float)
        if idx.ndim != 2 or y.shape != idx.shape:
            raise ValueError(f"idx and y must both have shape (B, t), got {idx.shape} and {y.shape}")
        B, t = idx.shape
        n = prior.grid.shape[0]
        self.prior = prior
        self.noise_var = float(noise_var)
        self._t = 0
        self._idx = np.empty((B, capacity), dtype=np.intp)
        self._y = np.empty((B, capacity))
        self._V = np.empty((B, capacity, n))
        self._w = np.empty((B, capacity))
        self.mu = np.zeros((B, n))
        self.var = np.ones((B, n))
        self.jitter = np.full(B, gp.JITTER_START if jitter is None else jitter)
        for s in range(t):
            self.observe(idx[:, s], y[:, s])

    def _refit(self, b: int) -> None:
        """Rebuild trial b at ten times its jitter as a one-trial posterior on
        its observations, whose own ``_refit`` escalates again where a pivot
        still fails; ``gp.FactorizationError`` past ``gp.JITTER_MAX``."""
        jitter = self.jitter[b] * 10.0
        if jitter > gp.JITTER_MAX:
            raise gp.FactorizationError(f"posterior pivot failed after escalating jitter to {gp.JITTER_MAX:g}")
        t = self._t
        alone = GridPosterior(self.prior, self._idx[b : b + 1, :t], self._y[b : b + 1, :t], self.noise_var, t, jitter)
        self._V[b, :t], self._w[b, :t] = alone._V[0], alone._w[0]
        self.mu[b], self.var[b], self.jitter[b] = alone.mu[0], alone.var[0], alone.jitter[0]

    @property
    def sigma(self) -> np.ndarray:
        """Posterior sd on the grid, with a negative variance read as 0; the
        variance never exceeds 1, since ``observe`` only subtracts from it."""
        return np.sqrt(np.maximum(self.var, 0.0))

    def keep(self, mask) -> None:
        """Drop the trials where ``mask`` is False; the others keep their order and state."""
        for name in ("_idx", "_y", "_V", "_w", "mu", "var", "jitter"):
            setattr(self, name, getattr(self, name)[mask])

    def observe(self, j, y) -> None:
        """Condition trial b on observing ``y[b]`` at grid[j[b]], for every trial."""
        j = np.asarray(j, dtype=np.intp)
        y = np.asarray(y, dtype=float)
        if not np.isfinite(y).all():
            raise ValueError(f"y must be finite, got {y!r}")
        t = self._t
        V = self._V[:, :t]
        l = V[np.arange(j.size), :, j]
        d2 = 1.0 + self.noise_var + self.jitter - np.sum(l * l, axis=1)
        ok = np.isfinite(d2) & (d2 > 0.0)
        d = np.sqrt(np.where(ok, d2, 1.0))  # failed pivots are rebuilt below
        v = (self.prior.rows(j) - np.matmul(l[:, None, :], V)[:, 0]) / d[:, None]
        w_new = (y - np.sum(l * self._w[:, :t], axis=1)) / d
        self._V[:, t], self._w[:, t], self._idx[:, t], self._y[:, t] = v, w_new, j, y
        self._t = t + 1
        self.mu += v * w_new[:, None]
        self.var -= v * v
        if not ok.all():
            for b in np.flatnonzero(~ok):
                self._refit(b)


# A trace's per-step columns, in field order; see ``Trace``.
COLUMNS = ("t", "x_next", "x_next_idx", "f_next", "y_next", "y_plus", "mu_next", "sigma_next", "ei_next",
           "sigma_at_star", "r_t", "r0_t")
_Row = namedtuple("_Row", COLUMNS)


@dataclass(frozen=True, eq=False)
class Trace:
    """One optimization run as read-only columns (slices of its ``Batch``'s
    arrays) plus its provenance.  Entry s of each column (``COLUMNS``; x_next is
    (steps, d), the others (steps,)) describes iteration t = T0 + s: the
    posterior on the first t observations and the point x_{t+1} it selects."""

    t: np.ndarray
    x_next: np.ndarray
    x_next_idx: np.ndarray
    f_next: np.ndarray
    y_next: np.ndarray
    y_plus: np.ndarray
    mu_next: np.ndarray
    sigma_next: np.ndarray
    ei_next: np.ndarray
    sigma_at_star: np.ndarray
    r_t: np.ndarray
    r0_t: np.ndarray
    seed: int
    f_star: float
    f_abs_max: float
    init_indices: np.ndarray

    @property
    def rows(self) -> tuple:
        """The columns as one named tuple of Python values per step, built on
        each access (``perfbench/tracer.py`` reads ``x_next_idx`` from them)."""
        return tuple(map(_Row._make, zip(*(getattr(self, name).tolist() for name in COLUMNS))))


BATCH_BYTES = 2 << 20


def batch_size(T: int, n: int) -> int:
    """Trials stepped together: max(1, ``BATCH_BYTES`` // (8*T*n)), so that a
    batch's (B, T, n) V buffer takes about 2 MiB (43 trials at T=30 and
    n=200, 21 at T=60 and n=200, one at n=4096)."""
    return max(1, BATCH_BYTES // (8 * T * n))


@dataclass(frozen=True)
class Batch:
    """The loop's record of B trials run together, as read-only arrays:
    ``columns[name]`` holds all trials' values of the ``Trace`` column ``name``
    over the budget, shape (B, T - T0) ((B, T - T0, d) for x_next), of which
    trial b recorded ``steps[b]``; the entries after a kappa stop are filler.
    A trial stopped on kappa exactly when kappa is set and the last recorded
    ``ei_next`` is below it.
    ``f_star`` and ``f_abs_max`` are each objective's minimum and sup-norm."""

    seeds: tuple[int, ...]
    f_star: np.ndarray  # (B,)
    f_abs_max: np.ndarray  # (B,)
    init_indices: np.ndarray  # (B, T0)
    steps: np.ndarray  # (B,)
    columns: dict[str, np.ndarray]

    def trace(self, b: int) -> Trace:
        """Trial b's ``Trace``: slices of the batch's arrays, no copy."""
        k = self.steps[b]
        return Trace(
            **{name: col[b, :k] for name, col in self.columns.items()},
            seed=self.seeds[b],
            f_star=float(self.f_star[b]),
            f_abs_max=float(self.f_abs_max[b]),
            init_indices=self.init_indices[b],
        )


def run_batch(config: ExperimentConfig, prior: GridPrior, seeds) -> Batch:
    """Execute the optimization loop on one prior draw per seed, all trials in lockstep.

    Trial b seeds one generator with ``seeds[b]`` and runs on the objective
    ``prior.draw(seeds)[b]``, drawn from the start of its stream, with its
    initial design and noise read from the stream's ``rng.INIT`` and
    ``rng.NOISE`` segments.  T0 initial points are drawn
    uniformly (with replacement) from the grid and observed as y = f + eps
    with eps ~ N(0, noise_sd^2) i.i.d.; afterwards each step acquires the EI
    argmax over the full grid (``lowest_argmax`` on ties), observes it,
    extends the posterior, and records the step.  A trial stops at budget T,
    or right after observing a point whose acquisition value fell below
    ``kappa`` when a threshold is configured; it then leaves the posterior
    (``GridPosterior.keep``) and the others step on without it.  Each step
    makes one ``pick`` over the (B, n) block of the trials still running.  A
    trial's record is bit-identical for identical (config, seed), whatever
    the other trials of its batch.  ``prior`` must be ``GridPrior.build`` of
    a config with this config's kernel and grid; any other raises ValueError.
    """
    if not (1 <= config.T0 <= config.T):
        raise ValueError(f"need 1 <= T0 <= T, got T0={config.T0}, T={config.T}")
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    if prior.kernel != config.kernel:
        raise ValueError("prior kernel does not match the config's kernel")
    grid = prior.grid
    if not np.array_equal(grid, config.grid_points()):
        raise ValueError("prior grid does not match the config's candidate grid")
    B, n, T0, T = len(seeds), grid.shape[0], config.T0, config.T
    noise_sd = float(config.noise_sd)

    # one generator per trial; its noise segment yields the T0 initial
    # draws, then one per step
    rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    seeded = [rng.bit_generator.state for rng in rngs]
    f = prior.draw(rngs)
    init = np.empty((B, T0), dtype=np.intp)
    eps = np.empty((B, T))
    for b, (rng, state) in enumerate(zip(rngs, seeded)):
        init[b] = to_segment(rng, state, INIT).integers(0, n, size=T0)
        eps[b] = noise_sd * to_segment(rng, state, NOISE).standard_normal(T)
    x_star = np.argmin(f, axis=1)
    f_star = f[np.arange(B), x_star]
    f_abs_max = np.abs(f).max(axis=1)
    f0 = np.take_along_axis(f, init, axis=1)
    y0 = f0 + eps[:, :T0]

    post = GridPosterior(prior, init, y0, config.noise_var, T)

    best = np.argmin(y0, axis=1)
    y_plus, f_plus = y0[np.arange(B), best], f0[np.arange(B), best]  # f_plus = f(x+)

    S = T - T0
    j_col = np.zeros((B, S), dtype=np.intp)
    floats = np.zeros((8, B, S))
    steps = np.full(B, S)
    rows = np.arange(B)  # the output row of each trial still running
    for s in range(S):
        t = T0 + s
        mu, sigma = post.mu, post.sigma
        j, ei_next = pick(y_plus[:, None] - mu, sigma)
        k = np.arange(j.size)
        f_next = f[k, j]
        y_new = f_next + eps[:, t]
        j_col[rows, s] = j
        floats[:, rows, s] = (f_next, y_new, y_plus, mu[k, j], sigma[k, j], ei_next, sigma[k, x_star], f_plus)
        better = y_new < y_plus
        y_plus = np.where(better, y_new, y_plus)
        f_plus = np.where(better, f_next, f_plus)
        if config.kappa is not None:
            done = ei_next < config.kappa
            if done.any():
                steps[rows[done]] = s + 1
                live = ~done
                rows, j, y_new, y_plus, f_plus, f, eps, x_star = (
                    a[live] for a in (rows, j, y_new, y_plus, f_plus, f, eps, x_star))
                if not rows.size:
                    break
                post.keep(live)
        if t + 1 < T:  # the posterior after the last row is never read
            post.observe(j, y_new)

    # floats holds f_next ... sigma_at_star in COLUMNS order, then f(x+) for r0_t
    *floats, best_f = floats
    t_col = np.broadcast_to(np.arange(T0, T), (B, S))
    regrets = floats[2] - f_star[:, None], best_f - f_star[:, None]
    columns = dict(zip(COLUMNS, (t_col, grid[j_col], j_col, *floats, *regrets)))
    for arr in (f_star, f_abs_max, init, steps, *columns.values()):
        arr.flags.writeable = False
    return Batch(
        seeds=tuple(int(s) for s in seeds),
        f_star=f_star,
        f_abs_max=f_abs_max,
        init_indices=init,
        steps=steps,
        columns=columns,
    )
