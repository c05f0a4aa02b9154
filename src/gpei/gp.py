"""The GP prior on a finite grid, Cholesky with escalating jitter, and
information-gain accounting.

``GridPrior`` is built once per config, from its kernel and grid, and
shared by every draw of the objective (``GridPrior.draw``) and every
grid posterior (``eiopt.GridPosterior``, which reads prior covariances
through ``GridPrior.rows``).  Every kernel value it holds is gathered from
one table, the kernel at the lattice's non-negative offsets, and no kernel
matrix is held; a lattice that circulant embedding samples exactly is drawn
by FFT and holds nothing n-by-n.  ``chol_with_jitter`` adds
a small escalating diagonal jitter, since squared-exponential Gram matrices
on fine grids are numerically singular.  Every factorization and solve runs
in numpy, so every run uses numpy's one BLAS/LAPACK build.  ``fit``,
``posterior_batch`` and ``update`` evaluate the conjugate posterior at
arbitrary points,

    mu_t(x)      = k_t(x)^T (K_t + s2*I)^{-1} y
    sigma_t^2(x) = k(x, x) - k_t(x)^T (K_t + s2*I)^{-1} k_t(x),

as the reference the tests check the grid posterior against; no campaign or
lemma protocol calls them, nor ``sample_prior``, and ``gpei`` exports none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .config import ExperimentConfig
from .kernels import KernelSpec

JITTER_START = 1e-10
JITTER_MAX = 1e-6

# Column-block width of ``chol_with_jitter``.
CHOL_BLOCK = 64

# The torus search's axis-check margin, 2^20 eps, relative to the torus row's
# sum; ``_circulant_eigenvalues`` states the roundoff it covers.
AXIS_MARGIN = 2.0**-32


class FactorizationError(RuntimeError):
    """Cholesky failed even after jitter escalation."""


def chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K + jitter*I, escalating jitter 1e-10 .. 1e-6.

    K must be an exactly symmetric float64 matrix.  It is read, never written,
    so it may be read-only.  A non-finite entry raises ValueError before any
    attempt: no pivot flags a NaN, and an infinite one would only exhaust the
    jitter.  Each attempt copies K into one n-by-n buffer, adds the jitter to
    its diagonal and factors it in place, left-looking, one block of
    ``CHOL_BLOCK`` columns at a time: the block's columns take the update
    from the factor's earlier columns, ``np.linalg.cholesky`` factors its
    diagonal block (a ``LinAlgError`` there, a pivot that is not positive,
    escalates the jitter) and the panel below is solved against that block.
    So the call holds K, L and about one panel, and for n <= ``CHOL_BLOCK``,
    L is ``np.linalg.cholesky(K + jitter*I)`` bit for bit.  L's strict upper
    triangle is zero.
    """
    if not np.isfinite(K).all():
        raise ValueError("K must be finite")
    n = K.shape[0]
    L = np.empty((n, n))
    jitter = JITTER_START
    while jitter <= JITTER_MAX:
        L[...] = K
        L.flat[:: n + 1] += jitter
        try:
            for k in range(0, n, CHOL_BLOCK):
                e = min(k + CHOL_BLOCK, n)
                cols = L[k:, k:e]
                cols -= L[k:, :k] @ L[k:e, :k].T
                cols[: e - k] = D = np.linalg.cholesky(cols[: e - k])
                cols[e - k :] = np.linalg.solve(D, cols[e - k :].T).T
                L[k:e, e:] = 0.0
            return L, jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise FactorizationError(
        f"Cholesky failed for {n}x{n} matrix after escalating jitter to {JITTER_MAX:g}"
    )


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
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    return GpState(kernel, X.copy(), y.copy(), float(noise_var), L, alpha, jitter)


def posterior_batch(state: GpState, Q) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and sd at each row of Q.  sd is clipped into [0, 1]; at a
    noiseless duplicate, where the variance is at the jitter floor, it is
    roundoff (at jitter 1e-15, 2.107e-8 against the exact 2.236e-8)."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2:
        raise ValueError(f"query points must be 2-d, got shape {Q.shape}")
    n = Q.shape[0]
    if state.t == 0:
        return np.zeros(n), np.ones(n)
    kx = kernels.cross_matrix(state.kernel, state.X, Q)
    mu = kx.T @ state.alpha
    v = np.linalg.solve(state.chol, kx)
    var = 1.0 - np.sum(v * v, axis=0)
    sigma = np.sqrt(np.clip(var, 0.0, 1.0))
    return mu, sigma


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


def _smooth5(n: int) -> int:
    """The smallest length >= n with no prime factor above 5 (a fast FFT length)."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _irfftn_corner(w: np.ndarray, torus, points) -> np.ndarray:
    """The first ``points`` entries of ``np.fft.irfftn(w, s=torus)`` over w's
    trailing axes, bit for bit: numpy's ifft per leading axis, each sliced
    before the next axis is transformed, then its irfft along the last."""
    lead = w.ndim - len(torus)
    for k, (M, m) in enumerate(zip(torus[:-1], points), lead):
        w = np.fft.ifft(w, M, axis=k)[(slice(None),) * k + (slice(0, m),)]
    return np.fft.irfft(w, torus[-1], axis=-1)[..., : points[-1]]


def _offset_table(kernel: KernelSpec, torus, spacing) -> np.ndarray:
    """The kernel at the non-negative lattice offsets h_k * i_k, 0 <= i_k <=
    M_k // 2 on axis k of ``torus``: every offset the torus's first row holds."""
    return kernels.kernel_at(kernel, np.ix_(*[h * np.arange(M // 2 + 1) for M, h in zip(torus, spacing)]))


def _circulant_eigenvalues(
    kernel: KernelSpec, points, spacing
) -> tuple[np.ndarray, tuple[np.ndarray, tuple[int, ...]] | None]:
    """(k_offsets, embedding) of the lattice with ``points`` points and
    ``spacing`` per axis: ``k_offsets``, the kernel at every signed lattice
    offset, and ``embedding``, (eig, torus) of the smallest circulant
    embedding that samples the prior exactly, or None when it has none worth
    using.

    Axis k of m_k points with spacing h_k wraps onto a torus of M_k points, at
    first the smallest 5-smooth length >= 2(m_k - 1).  The kernel is
    evaluated on a table of the offsets h_k * i_k, 0 <= i_k <= M_k/2, and
    evaluated again only when a larger torus needs more offsets.  The torus's
    first row, shape ``torus`` = (M_1, ..., M_d), is the table at
    min(j, M_k - j), and ``k_offsets`` the last table at |i_k| (M_k/2 >=
    m_k - 1): ``kernels.kernel_at`` adds (h_k i_k)^2 per axis, so both are
    bit for bit the kernel at their signed offsets.  ``eig`` is the real part
    of the row's rfftn: the half spectrum of the torus's eigenvalues, whose
    minimum is the whole spectrum's since the row is real and even.  The
    torus is accepted when that minimum is >= -``JITTER_START`` and the
    irfftn of the eigenvalues clipped at 0 reproduces k0, the first row of
    the grid's Gram matrix (the table at i_k < m_k), to within
    ``JITTER_START``; otherwise every axis grows to the next 5-smooth length
    >= 9/8 M_k.  None once the torus's FFT (5 N log2 N flops for N torus
    points) would cost more than the 2 n^2 flops of the matrix-vector product
    L z it replaces.  ``eig`` is returned clipped at 0.

    With d >= 2 axes a torus is first checked on its axis spectrum, its
    eigenvalues at frequencies (f, 0, ..., 0) (``_axis_spectrum``), and
    rejected without an rfftn when their minimum is below -``JITTER_START``
    by more than ``AXIS_MARGIN`` * lambda_0 = 2^20 eps lambda_0, lambda_0
    their value at f = 0, the row's sum.  The margin covers the roundoff of
    both ways of computing these eigenvalues.  The row is positive, so its
    1-norm and 2-norm are at most lambda_0, and an FFT of N points computes
    each eigenvalue to within about 8 log2(N) sqrt(N) eps lambda_0 (Higham
    2002, Thm 24.2, normwise); the sums over the other axes add at most
    (M_2 + ... + M_d) eps lambda_0.  For every torus the FFT-cost cap admits
    on a desk-scale lattice (n <= 4096, so N < 2^19) each error is below
    2^19 eps lambda_0, so the two differ by less than the margin (measured:
    at most 1.2 eps lambda_0).  A torus the axis check rejects therefore has
    an rfftn minimum below -``JITTER_START`` too, and the full check would
    reject it: the axis check skips work and never changes which torus is
    accepted.
    """
    torus = tuple(_smooth5(max(1, 2 * (m - 1))) for m in points)
    table = _offset_table(kernel, torus, spacing)
    embedding = None
    while 5 * (size := math.prod(torus)) * math.log2(size) <= 2 * math.prod(points) ** 2:
        if table.shape != tuple(M // 2 + 1 for M in torus):
            table = _offset_table(kernel, torus, spacing)
        fold = [np.minimum(np.arange(M), M - np.arange(M)) for M in torus]
        axis = _axis_spectrum(table, fold) if len(torus) > 1 else None
        if axis is None or axis.min() >= -JITTER_START - AXIS_MARGIN * axis[0]:
            eig = np.fft.rfftn(_gather(table, fold)).real
            if eig.min() >= -JITTER_START:
                np.maximum(eig, 0.0, out=eig)
                k0 = table[tuple(slice(m) for m in points)].ravel()
                if np.max(np.abs(_irfftn_corner(eig, torus, points).ravel() - k0)) <= JITTER_START:
                    embedding = eig, torus
                    break
        torus = tuple(_smooth5(M + -(-M // 8)) for M in torus)
    return _gather(table, [np.abs(np.arange(1 - m, m)) for m in points]), embedding


def _gather(table: np.ndarray, index) -> np.ndarray:
    """``table[np.ix_(*index)]``, taken one axis at a time: from the 109x109
    table, 50 us against 171 us for the outer fancy index on a 216x216 torus
    row, 22 us against 61 us on the 127x127 ``k_offsets`` (2-core Xeon,
    numpy 2.4)."""
    for k, i in enumerate(index):
        table = np.take(table, i, axis=k)
    return table


def _axis_spectrum(table, fold) -> np.ndarray:
    """The eigenvalues at frequencies (f, 0, ..., 0), 0 <= f <= M_1/2, of the
    torus whose first row is ``_gather(table, fold)``: the rfft along the
    first axis of the row summed over the other axes, which is the table
    summed over them with each offset counted as often as the row holds it."""
    for j in fold[:0:-1]:
        table = table @ np.bincount(j)
    return np.fft.rfft(table[fold[0]]).real


@dataclass(frozen=True)
class GridPrior:
    """The GP prior on a config's grid, built once and shared by every draw
    and every grid posterior.  Every array, ``grid`` included, is read-only,
    and no n-by-n kernel matrix is held.

    Every kernel value the prior holds is gathered from the embedding
    search's table of the kernel at the lattice's non-negative offsets:
    ``k_offsets``, the kernel at every signed lattice offset, shape
    (2m_1 - 1, ..., 2m_d - 1) for m_k points on axis k, like every torus row
    the search transforms; ``rows`` returns windows of ``k_offsets``.

    Draws follow the embedding.  Where ``_circulant_eigenvalues`` finds a
    torus (Dietrich & Newsam 1997; Wood & Chan 1994), ``root_eig`` holds the
    square roots of its eigenvalues (the half spectrum, clipped at 0) and
    ``torus`` its shape, the draws' covariance equals K entrywise to within
    ``JITTER_START``, and nothing n-by-n is assembled or held.  Otherwise it
    draws through ``L``, the lower Cholesky factor of K + ``jitter``*I for
    the K whose rows ``rows`` returns.
    """

    kernel: KernelSpec
    grid: np.ndarray
    L: np.ndarray | None
    jitter: float | None
    k_offsets: np.ndarray
    root_eig: np.ndarray | None
    torus: tuple[int, ...] | None

    @classmethod
    def build(cls, config: ExperimentConfig) -> GridPrior:
        """The prior of ``config.kernel`` on ``config.grid_points()``: m =
        ``grid_per_dim`` points on each of the d axes, spacing r / (m - 1)
        (0 for m = 1).  Raises ValueError on an empty grid; the config is
        not otherwise validated.  The kernel is evaluated on the lattice's
        non-negative offsets, again only when a torus needs more of them;
        ``_circulant_eigenvalues`` states how a torus is searched for and
        accepted."""
        m = config.grid_per_dim
        if m < 1:
            raise ValueError(f"grid_per_dim must be >= 1, got {m!r}")
        h = config.r / (m - 1) if m > 1 else 0.0
        grid = config.grid_points()
        k_offsets, embedding = _circulant_eigenvalues(config.kernel, (m,) * config.d, (h,) * config.d)
        grid.flags.writeable = k_offsets.flags.writeable = False
        prior = cls(config.kernel, grid, None, None, k_offsets, None, None)
        if embedding is None:
            L, jitter = chol_with_jitter(prior.rows(np.arange(grid.shape[0])))
            L.flags.writeable = False
            return replace(prior, L=L, jitter=jitter)
        root_eig = np.sqrt(embedding[0])
        root_eig.flags.writeable = False
        return replace(prior, root_eig=root_eig, torus=embedding[1])

    @property
    def points(self) -> tuple[int, ...]:
        """Points per axis."""
        return tuple((s + 1) // 2 for s in self.k_offsets.shape)

    @functools.cached_property
    def _windows(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """(windows, corners): every (m_1, ..., m_d) window of ``k_offsets`` as
        one read-only view, and per axis the window index of each grid point's
        row, m_k - 1 - j_k for the point's index j_k on axis k.  Built on first
        use and never pickled."""
        points = self.points
        windows = np.lib.stride_tricks.sliding_window_view(self.k_offsets, points)
        return windows, np.unravel_index(np.arange(self.grid.shape[0])[::-1], points)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_windows", None)
        return state

    def rows(self, idx) -> np.ndarray:
        """Rows idx of the grid's kernel matrix, shape (len(idx), n): row j is
        the window of ``k_offsets`` at offsets grid - grid[j], the kernel at
        the squared lattice offsets (within 1e-15 of ``kernels.gram``'s rows),
        with no kernel evaluation."""
        windows, corners = self._windows
        return windows[tuple(c[idx] for c in corners)].reshape(-1, self.grid.shape[0])

    def draw(self, seeds) -> np.ndarray:
        """The objectives of ``seeds`` on the grid, shape (len(seeds), n), so
        (0, n) for no seeds.  Row b is a function of (kernel, grid, seeds[b])
        alone, bit for bit, whatever the other seeds.  A seed is an int, read
        as ``np.random.default_rng(seed)``, or a generator, read from its
        current state.

        Embedded: row b is f = C^{1/2} eta restricted to the grid, with C the
        torus's circulant covariance and eta the first N standard normals of
        seeds[b]'s generator, N the torus size: irfftn(root_eig * rfftn(eta)),
        one batched real FFT each way for every row, each on its own, the
        inverse only as far as the grid.  Otherwise row b is L z for the
        generator's first n normals.
        """
        rngs = [np.random.default_rng(seed) for seed in seeds]
        n = self.grid.shape[0]
        if self.L is not None:
            return np.array([self.L @ rng.standard_normal(n) for rng in rngs]).reshape(len(rngs), n)
        eta = np.empty((len(rngs), math.prod(self.torus)))
        for rng, row in zip(rngs, eta):
            rng.standard_normal(out=row)
        w = np.fft.rfftn(eta.reshape(len(rngs), *self.torus), axes=tuple(range(1, len(self.torus) + 1)))
        w *= self.root_eig
        return np.ascontiguousarray(_irfftn_corner(w, self.torus, self.points)).reshape(len(rngs), n)


def sample_prior(config: ExperimentConfig, seed: int) -> np.ndarray:
    """The draw of one seed on the config grid's freshly built prior; loops
    over draws share one ``GridPrior``."""
    return GridPrior.build(config).draw([seed])[0]


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
    rhs = 2.0 * gain / np.log1p(1.0 / noise_var)  # <= len(s): no overflow at any finite noise_var
    return lhs, rhs, bool(lhs <= rhs + 1e-9)
