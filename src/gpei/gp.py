"""Gaussian-process prior sampling, posterior inference, and information-gain accounting.

The posterior follows the standard conjugate form: with kernel matrix K_t,
cross-covariances k_t(x), noise variance s2 and observations y,

    mu_t(x)     = k_t(x)^T (K_t + s2*I)^{-1} y
    sigma_t^2(x) = k(x, x) - k_t(x)^T (K_t + s2*I)^{-1} k_t(x)

Factorizations go through Cholesky with a small escalating diagonal jitter,
since squared-exponential Gram matrices on fine grids are numerically
singular.  The prior on a finite grid is factored once into a ``GridPrior``,
which every draw of the objective and every grid posterior share.  The EI
loop and the lemma protocols compute posteriors on its grid through
``eiopt.GridPosterior`` (a one-row Cholesky append per observation), which
reads every kernel value from ``GridPrior.K``.  ``fit``, ``posterior_batch``
and ``update`` (``fit`` on the augmented data) evaluate the kernel at
arbitrary points; states are immutable.  They are the single-point reference
that tests compare the grid posterior against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import kernels
from .kernels import KernelSpec

JITTER_START = 1e-10
JITTER_MAX = 1e-6


class FactorizationError(RuntimeError):
    """Cholesky failed even after jitter escalation."""


def chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K + jitter*I, escalating jitter 1e-10 .. 1e-6.

    K must be an exactly symmetric float64 matrix.  It is read, never written,
    so it may be read-only.  Each attempt copies K into one F-ordered buffer
    (through the buffer's C-ordered transpose, which equals K), adds the
    jitter to its diagonal and factors it in place with LAPACK potrf, so the
    call holds K and L only.  L is returned F-ordered with a zero strict upper
    triangle.
    """
    n = K.shape[0]
    L = np.empty((n, n), order="F")
    jitter = JITTER_START
    while jitter <= JITTER_MAX:
        L.T[...] = K
        L.T.flat[:: n + 1] += jitter
        _, info = lapack.dpotrf(L, lower=1, overwrite_a=1, clean=1)
        if info == 0:
            return L, jitter
        if info < 0:
            raise FactorizationError(f"Cholesky rejected its input (LAPACK info={info})")
        jitter *= 10.0
    raise FactorizationError(
        f"Cholesky failed for {n}x{n} matrix after escalating jitter to {JITTER_MAX:g}"
    )


def solve_lower(L: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve L x = b, or L^T x = b when ``transpose``, for a lower-triangular L.

    Calls LAPACK trtrs directly: the loop solves small systems at every step,
    where ``scipy.linalg.solve_triangular``'s per-call validation costs several
    times the solve itself.
    """
    x, info = lapack.dtrtrs(L, b, lower=1, trans=int(transpose))
    if info != 0:
        raise FactorizationError(f"triangular solve failed (LAPACK info={info})")
    return x


@dataclass(frozen=True)
class GpState:
    """Immutable fitted posterior.

    ``chol`` is the lower Cholesky factor of K_t + (noise_var + jitter)*I and
    ``alpha`` the presolved (K_t + noise_var*I)^{-1} y (jitter included).
    """

    kernel: KernelSpec
    X: np.ndarray
    y: np.ndarray
    noise_var: float
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float

    @property
    def t(self) -> int:
        return self.X.shape[0]


def fit(kernel: KernelSpec, X, y, noise_var: float) -> GpState:
    """Fit the GP posterior on (X, y) with observation-noise variance noise_var."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-d, got shape {X.shape}")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError(f"y must be 1-d with one entry per row of X, got {y.shape} for {X.shape}")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    if not (np.isfinite(noise_var) and noise_var >= 0):
        raise ValueError(f"noise_var must be >= 0, got {noise_var!r}")
    if X.shape[0] == 0:
        empty = np.zeros((0, 0))
        return GpState(kernel, X.copy(), y.copy(), float(noise_var), empty, np.zeros(0), 0.0)
    K = kernels.gram(kernel, X)
    K.flat[:: X.shape[0] + 1] += noise_var
    L, jitter = chol_with_jitter(K)
    alpha = solve_lower(L, solve_lower(L, y), transpose=True)
    return GpState(kernel, X.copy(), y.copy(), float(noise_var), L, alpha, jitter)


def posterior_batch(state: GpState, Q) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and sd at each row of Q.  sd is clipped into [0, 1]."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2:
        raise ValueError(f"query points must be 2-d, got shape {Q.shape}")
    n = Q.shape[0]
    if state.t == 0:
        return np.zeros(n), np.ones(n)
    kx = kernels.cross_matrix(state.kernel, state.X, Q)
    mu = kx.T @ state.alpha
    v = solve_lower(state.chol, kx)
    var = 1.0 - np.sum(v * v, axis=0)
    sigma = np.sqrt(np.clip(var, 0.0, 1.0))
    return mu, sigma


def posterior(state: GpState, x) -> tuple[float, float]:
    """Posterior (mean, sd) at a single point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"x must be a 1-d point, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    mu, sigma = posterior_batch(state, x[None, :])
    return float(mu[0]), float(sigma[0])


def update(state: GpState, x_new, y_new: float) -> GpState:
    """Return the posterior with one more observation: ``fit`` on the augmented data.

    A reference for single-point use; the EI loop appends observations on the
    grid through ``eiopt.GridPosterior.observe`` instead.
    """
    x_new = np.asarray(x_new, dtype=float)
    if x_new.ndim != 1:
        raise ValueError(f"x_new must be a 1-d point, got shape {x_new.shape}")
    t = state.t
    if t > 0 and x_new.shape[0] != state.X.shape[1]:
        raise ValueError(f"dimension mismatch: state is {state.X.shape[1]}-d, x_new is {x_new.shape[0]}-d")
    X = np.vstack([state.X, x_new[None, :]]) if t > 0 else x_new[None, :]
    y = np.append(state.y, float(y_new))
    if not np.isfinite(y[t]):
        raise ValueError(f"y_new must be finite, got {y_new!r}")
    return fit(state.kernel, X, y, state.noise_var)


@dataclass(frozen=True)
class GridPrior:
    """The GP prior on a finite grid, factored once and shared by every draw.

    ``K`` is the grid Gram matrix and ``L`` the F-ordered lower Cholesky
    factor of K + jitter*I; the factorization reads K and never writes it.
    Together they take 2*n^2*8 bytes (256 MiB at the 4096-point cap), which is
    also the peak of ``build``.  Both are read-only, since every draw and trial
    shares them.  Build one per campaign or worker process, not one per draw.
    """

    kernel: KernelSpec
    grid: np.ndarray
    K: np.ndarray
    L: np.ndarray
    jitter: float

    @classmethod
    def build(cls, kernel: KernelSpec, grid) -> GridPrior:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 2 or grid.shape[0] < 1:
            raise ValueError(f"grid must be a non-empty 2-d array, got shape {grid.shape}")
        K = kernels.gram(kernel, grid)
        L, jitter = chol_with_jitter(K)
        K.flags.writeable = False
        L.flags.writeable = False
        return cls(kernel, grid, K, L, jitter)

    def sample(self, seed: int) -> PriorSample:
        """Draw f = L z with z standard normal from a PCG64 generator seeded
        with ``seed``.  Deterministic given (kernel, grid, seed)."""
        z = np.random.default_rng(int(seed)).standard_normal(self.grid.shape[0])
        f = self.L @ z
        idx = int(np.argmin(f))
        return PriorSample(prior=self, f=f, f_star=float(f[idx]), x_star_idx=idx, f_abs_max=float(np.max(np.abs(f))))


@dataclass(frozen=True)
class PriorSample:
    """A draw of the latent objective on the grid of ``prior``.

    The grid doubles as the optimizer's candidate set, so the minimum
    ``f_star``, its index, and the sup-norm ``f_abs_max`` are exact.
    """

    prior: GridPrior
    f: np.ndarray
    f_star: float
    x_star_idx: int
    f_abs_max: float

    @property
    def grid(self) -> np.ndarray:
        return self.prior.grid


def sample_prior(kernel: KernelSpec, grid, seed: int) -> PriorSample:
    """One draw from a freshly factored prior; loops over draws share one ``GridPrior``."""
    return GridPrior.build(kernel, grid).sample(seed)


def info_gain(sigma_at_next, noise_var: float) -> float:
    """Empirical information gain 0.5 * sum log(1 + sigma^2_i / noise_var).

    ``sigma_at_next`` holds the predictive sds sigma_{i-1}(x_i) of the visited
    sequence.  Undefined for noiseless observations.
    """
    if not (np.isfinite(noise_var) and noise_var > 0):
        raise ValueError(f"noise_var must be > 0, got {noise_var!r}")
    s = np.asarray(sigma_at_next, dtype=float)
    if s.size == 0:
        return 0.0
    if np.any(s < 0) or np.any(s > 1) or not np.all(np.isfinite(s)):
        raise ValueError("sigma entries must lie in [0, 1]")
    return float(0.5 * np.sum(np.log1p(s * s / noise_var)))


def variance_sum_check(sigma_at_next, noise_var: float) -> tuple[float, float, bool]:
    """Check sum sigma^2_{i-1}(x_i) <= (2/log(1+1/noise_var)) * info_gain.

    The right side uses the empirical information gain, which lower-bounds the
    maximum information gain, so the inequality must hold deterministically.
    """
    s = np.asarray(sigma_at_next, dtype=float)
    gain = info_gain(s, noise_var)
    lhs = float(np.sum(s * s))
    rhs = (2.0 / np.log1p(1.0 / noise_var)) * gain
    return lhs, rhs, bool(lhs <= rhs + 1e-9)
