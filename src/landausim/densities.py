"""Analytic density models with gradients, Hessian quadratic forms, samplers.

Every model works on batched points X of shape (n, dim) and exposes:

* log_density(X) -> (n,)
* density(X) -> (n,)
* log_grad(X) -> (n, dim), the gradient of log f
* log_hess_quadform(X, U) -> (n,), u^T Hess(log f) u for one direction per row
* sample(rng, n) -> (n, dim)
* sample_blocks(rng, n, rows) -> the rows of sample(rng, n) in order, as
  blocks of at most ``rows`` rows
* bounding_box(tail_mass) -> (lo, hi) covering all but tail_mass of the mass

Models are normalized analytically (Gaussians, mixtures) and wrappers
(tensor powers, dilations, translations) preserve normalization exactly.

The Gaussian, mixture and tensor-power densities, gradients and samplers
run over whole columns: centering at a mean, adding it to a draw, weighting
by mixture responsibilities and joining tensor blocks go one column of n
values at a time, because numpy broadcasts a (dim,) vector over an (n, dim)
array, and concatenates along axis 1, one dim-element row at a time.  The
column forms give the same bits.  The matrix products and ``einsum``
quadratic forms see operands laid out as before: einsum's summation order
follows its operands' layout.

``sample_blocks`` lets a consumer hold one block of a draw at a time.  Its
blocks joined equal ``sample(rng, n)`` bit for bit, and each block is
C-contiguous with the strides of the matching row slice of that sample, so
einsum sums it in the same order.  A block is a view of one reused buffer,
valid until the next block is asked for.  The base class slices the whole
draw; a Gaussian fills each block straight from the stream (its ``sample``
is that same fill over blocks of a whole array); a tensor power draws its
first j - 1 factors whole and streams its last factor from its base.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CapabilityError

__all__ = [
    "GaussianModel",
    "GaussianMixtureModel",
    "TensorPower",
    "ScaledModel",
    "ShiftedModel",
    "grid_integrate",
    "check_log_grad_fd",
]


class DensityModel:
    """Base class; concrete models fill in the capability methods."""

    dim: int

    def density(self, X):
        return np.exp(self.log_density(X))

    def log_density(self, X):
        raise CapabilityError(f"{type(self).__name__} has no log_density")

    def log_grad(self, X):
        raise CapabilityError(f"{type(self).__name__} has no log_grad")

    def log_hess_quadform(self, X, U):
        raise CapabilityError(f"{type(self).__name__} has no log_hess_quadform")

    def sample(self, rng, n):
        raise CapabilityError(f"{type(self).__name__} has no sampler")

    def sample_blocks(self, rng, n, rows):
        """sample(rng, n) in consecutive blocks of at most rows rows."""
        X = self.sample(rng, n)
        for start in range(0, n, rows):
            yield X[start:start + rows]

    def bounding_box(self, tail_mass: float = 1e-8):
        raise CapabilityError(f"{type(self).__name__} has no bounding_box")


_SAMPLE_ROWS = 2**16  # rows per in-place block of GaussianModel and TensorPower.sample


def _columns(n: int, dim: int):
    """An empty (n, dim) float array stored column by column, so each of
    its columns is one contiguous run."""
    return np.empty((dim, n)).T


def _put_rows(out, blocks):
    """Write the blocks down the rows of out, one after another.

    A function, so that the last block, which may be a view of a whole
    draw, is released on return and not held through the next draw."""
    start = 0
    for block in blocks:
        out[start:start + block.shape[0]] = block
        start += block.shape[0]


def _axis_halfwidth(tail_mass: float, dim: int) -> float:
    # imported here: only the grid quadrature needs it, and it costs every
    # simulate and sweep 0.5 MB of RSS
    from statistics import NormalDist

    # split the tail budget across axes and sides; inv_cdf gives the z-score
    # (within a few ulp of scipy.special.ndtri, without importing scipy)
    if not 0.0 < tail_mass < 2.0 * dim:  # a NaN tail mass fails too
        raise ValueError(f"tail_mass must lie in (0, {2 * dim}) for dim {dim}, "
                         f"got {tail_mass!r}")
    return -NormalDist().inv_cdf(tail_mass / (2.0 * dim))


class GaussianModel(DensityModel):
    """Multivariate normal with mean m and covariance Sigma (full or diagonal)."""

    def __init__(self, mean, cov):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.dim = self.mean.size
        cov = np.asarray(cov, dtype=float)
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(cov))):
            raise ValueError("Gaussian mean and covariance must be finite")
        if cov.ndim == 0:
            cov = np.full(self.dim, float(cov))
        if cov.ndim == 1:
            cov = np.diag(cov)
        if cov.shape != (self.dim, self.dim):
            raise ValueError(f"covariance shape {cov.shape} does not match dim {self.dim}")
        self.cov = cov
        self._chol = np.linalg.cholesky(cov)
        self.prec = np.linalg.inv(cov)
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise ValueError("covariance must be positive definite")
        self._log_norm = -0.5 * (self.dim * math.log(2.0 * math.pi) + logdet)

    def log_density(self, X):
        # X - mean, column by column, laid out like X as X - mean would be:
        # the einsum sums in an order set by that layout
        X = np.atleast_2d(X)
        d = np.empty_like(X, dtype=float)
        for i, m in enumerate(self.mean):
            np.subtract(X[:, i], m, out=d[:, i])
        q = np.einsum("ni,ni->n", d @ self.prec, d)
        return self._log_norm - 0.5 * q

    def log_grad(self, X):
        X = np.atleast_2d(X)
        d = np.empty_like(X, dtype=float)  # mean - X, column by column
        for i, m in enumerate(self.mean):
            np.subtract(m, X[:, i], out=d[:, i])
        return d @ self.prec

    def log_hess_quadform(self, X, U):
        U = np.atleast_2d(U)
        return -np.einsum("ni,ni->n", U @ self.prec, U)

    def _fill(self, rng, block, n):
        """Draw block in place as its rows of a draw of n: mean + Z @ L^T.

        Row-block products equal the whole-array product bit for bit, except
        that BLAS takes a one-row product through its matrix-vector kernel,
        which rounds otherwise; so a lone row of a longer draw is doubled
        into a two-row product.
        """
        rng.standard_normal(out=block)
        z = np.repeat(block, 2, axis=0) if block.shape[0] == 1 and n > 1 else block
        block[...] = (z @ self._chol.T)[:block.shape[0]]
        for i, m in enumerate(self.mean):
            block[:, i] += m

    def sample(self, rng, n):
        x = np.empty((n, self.dim))
        for start in range(0, n, _SAMPLE_ROWS):
            self._fill(rng, x[start:start + _SAMPLE_ROWS], n)
        return x

    def sample_blocks(self, rng, n, rows):
        buf = np.empty((min(rows, n), self.dim))
        for start in range(0, n, rows):
            block = buf[:n - start]
            self._fill(rng, block, n)
            yield block

    def bounding_box(self, tail_mass: float = 1e-8):
        z = _axis_halfwidth(tail_mass, self.dim)
        half = z * np.sqrt(np.diag(self.cov))
        return self.mean - half, self.mean + half


class GaussianMixtureModel(DensityModel):
    """Finite mixture sum_i w_i N(m_i, Sigma_i) with analytic derivatives."""

    def __init__(self, weights, means, covs):
        self.weights = np.asarray(weights, dtype=float)
        if not np.all((self.weights >= 0.0) & np.isfinite(self.weights)):
            raise ValueError(f"mixture weights must be finite and >= 0, got {self.weights}")
        if not np.isclose(self.weights.sum(), 1.0):
            raise ValueError("mixture weights must sum to 1")
        if self.weights.shape != (len(means),) or len(covs) != len(means):
            raise ValueError(f"mixture needs one mean and cov per weight, got {self.weights.shape}"
                             f" weights, {len(means)} means and {len(covs)} covs")
        self.components = [GaussianModel(m, c) for m, c in zip(means, covs)]
        self.dim = self.components[0].dim
        if any(c.dim != self.dim for c in self.components):
            raise ValueError("mixture components must share a dimension")

    def _weighted_logs(self, X):
        """log w_i + log f_i(X), one row per component, and their column max."""
        logs = np.stack([c.log_density(X) for c in self.components])
        logs += np.log(self.weights)[:, None]
        return logs, logs.max(axis=0)

    def log_density(self, X):
        logs, peak = self._weighted_logs(X)
        return peak + np.log(np.exp(logs - peak).sum(axis=0))

    def _responsibilities(self, X):
        logs, peak = self._weighted_logs(X)
        w = np.exp(logs - peak)
        return w / w.sum(axis=0)

    def log_grad(self, X):
        X = np.atleast_2d(X)
        r = self._responsibilities(X)
        out = np.zeros((self.dim, X.shape[0])).T  # column by column
        for ri, c in zip(r, self.components):
            g = c.log_grad(X)
            for i in range(self.dim):
                out[:, i] += ri * g[:, i]
        return out

    def log_hess_quadform(self, X, U):
        # Hess log f = sum_i r_i (g_i g_i^T - P_i) - g_bar g_bar^T,
        # with g_i the component log-gradients and g_bar their r-average.
        X = np.atleast_2d(X)
        U = np.atleast_2d(U)
        r = self._responsibilities(X)
        gbar_u = np.zeros(X.shape[0])
        quad = np.zeros(X.shape[0])
        for ri, c in zip(r, self.components):
            gi_u = np.einsum("nd,nd->n", c.log_grad(X), U)
            pu = np.einsum("ni,ni->n", U @ c.prec, U)
            quad += ri * (gi_u**2 - pu)
            gbar_u += ri * gi_u
        return quad - gbar_u**2

    def sample(self, rng, n):
        # each component's draw goes straight into its rows of X, so the
        # peak holds X, one draw, the permutation and the permuted copy
        counts = rng.multinomial(n, self.weights)
        X = np.empty((n, self.dim))
        start = 0
        for c, k in zip(self.components, counts):
            if k > 0:
                X[start:start + k] = c.sample(rng, k)
                start += k
        return np.take(X, rng.permutation(n), axis=0)

    def bounding_box(self, tail_mass: float = 1e-8):
        boxes = [c.bounding_box(tail_mass) for c in self.components]
        lo = np.min([b[0] for b in boxes], axis=0)
        hi = np.max([b[1] for b in boxes], axis=0)
        return lo, hi


class TensorPower(DensityModel):
    """F = base^{(x) j}: j independent copies laid out as consecutive blocks."""

    def __init__(self, base: DensityModel, j: int):
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or j < 1:
            raise ValueError(f"tensor power needs an int j >= 1, got {j!r}")
        self.base = base
        self.j = j
        self.dim = base.dim * j

    def _blocks(self, X):
        X = np.atleast_2d(X)
        d = self.base.dim
        return [X[:, i * d:(i + 1) * d] for i in range(self.j)]

    def log_density(self, X):
        return sum(self.base.log_density(b) for b in self._blocks(X))

    def log_grad(self, X):
        blocks = self._blocks(X)
        out = _columns(blocks[0].shape[0], self.dim)
        d = self.base.dim
        for i, block in enumerate(blocks):
            g = self.base.log_grad(block)
            for c in range(d):
                out[:, i * d + c] = g[:, c]
        return out

    def log_hess_quadform(self, X, U):
        # block-diagonal Hessian: quadratic forms add block by block
        out = 0.0
        for xb, ub in zip(self._blocks(X), self._blocks(U)):
            out = out + self.base.log_hess_quadform(xb, ub)
        return out

    def sample(self, rng, n):
        out = np.empty((n, self.dim))
        d = self.base.dim
        for i in range(self.j):  # one factor at a time, in the order drawn
            _put_rows(out[:, i * d:(i + 1) * d],
                      self.base.sample_blocks(rng, n, _SAMPLE_ROWS))
        return out

    def sample_blocks(self, rng, n, rows):
        if self.j == 1:
            yield from self.base.sample_blocks(rng, n, rows)
            return
        d = self.base.dim
        head = TensorPower(self.base, self.j - 1).sample(rng, n)
        buf = np.empty((min(rows, n), self.dim))
        start = 0
        for tail in self.base.sample_blocks(rng, n, rows):
            block = buf[:tail.shape[0]]
            block[:, :-d] = head[start:start + tail.shape[0]]
            block[:, -d:] = tail
            start += tail.shape[0]
            yield block

    def bounding_box(self, tail_mass: float = 1e-8):
        lo, hi = self.base.bounding_box(tail_mass / self.j)
        return np.tile(lo, self.j), np.tile(hi, self.j)


class _AffineModel(DensityModel):
    """Pull-back f(x) = lam^dim g(lam (x - shift)) of a base model g; lam = 1 and
    shift = 0 add no rounding, so each subclass keeps its own formulas' values."""

    def __init__(self, base: DensityModel, lam: float, shift):
        self.lam = float(lam)
        if not 0.0 < self.lam < math.inf:  # a NaN scale fails too
            raise ValueError(f"scale must be finite and positive, got {lam!r}")
        self.base = base
        self.shift = np.asarray(shift, dtype=float)
        self.dim = base.dim
        if self.shift.shape != (self.dim,) or not np.all(np.isfinite(self.shift)):
            raise ValueError(f"shift must be {self.dim} finite values, got {shift!r}")

    def _pull(self, X):
        return self.lam * (np.atleast_2d(X) - self.shift)

    def log_density(self, X):
        return self.dim * math.log(self.lam) + self.base.log_density(self._pull(X))

    def log_grad(self, X):
        return self.lam * self.base.log_grad(self._pull(X))

    def log_hess_quadform(self, X, U):
        return self.lam**2 * self.base.log_hess_quadform(self._pull(X), U)

    def sample(self, rng, n):
        return self.base.sample(rng, n) / self.lam + self.shift

    def bounding_box(self, tail_mass: float = 1e-8):
        lo, hi = self.base.bounding_box(tail_mass)
        return lo / self.lam + self.shift, hi / self.lam + self.shift


class ScaledModel(_AffineModel):
    """Dilation f_lam(x) = lam^dim f(lam x); lam > 1 concentrates the mass."""

    def __init__(self, base: DensityModel, lam: float):
        super().__init__(base, lam, np.zeros(base.dim))


class ShiftedModel(_AffineModel):
    """Translation f(x - m) of a base model."""

    def __init__(self, base: DensityModel, shift):
        super().__init__(base, 1.0, shift)


_GRID_CHUNK = 2**16  # points per evaluation chunk of grid_integrate
_FD_STEP = 1e-6  # the central-difference step of check_log_grad_fd


def grid_integrate(fn, lo, hi, n_points):
    """Trapezoid rule for int fn over the box [lo, hi] on a tensor grid.

    The grid has n_points per axis.  fn maps (m, dim) points to (m,)
    values, or to a sequence (or (k, m) array) of k such rows, for which a
    list of k integrals is returned, each accumulated exactly as a one-row
    call would.  Evaluation runs over chunks of whole slabs of the leading
    axis, as many as fit in ``_GRID_CHUNK`` points (at least one), so only
    one chunk of points and values is held at a time.  Each slab's weighted
    values are summed by one numpy reduction in a fixed order (no BLAS), and
    the slab sums are added in slab order, so the result is the same, bit
    for bit, for every chunk size and every BLAS thread count.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    dim = lo.size
    n = int(n_points)
    axes = [np.linspace(lo[d], hi[d], n) for d in range(dim)]
    wts = []
    for ax in axes:
        w = np.full(n, ax[1] - ax[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        wts.append(w)
    slab = n ** (dim - 1)
    rows = max(1, _GRID_CHUNK // slab)
    acc = single = None
    for start in range(0, n, rows):
        lead = slice(start, start + rows)
        grids = np.meshgrid(axes[0][lead], *axes[1:], indexing="ij", copy=False)
        pts = np.stack(grids, axis=-1).reshape(-1, dim)
        w = functools.reduce(np.multiply.outer, wts[1:], wts[0][lead]).reshape(-1, slab)
        vals = fn(pts)
        if acc is None:
            single = isinstance(vals, np.ndarray) and vals.ndim == 1
            acc = [0.0] * (1 if single else len(vals))
        for i, row in enumerate((vals,) if single else vals):
            for s in np.add.reduce(w * row.reshape(w.shape), axis=1).tolist():
                acc[i] += s
    return acc[0] if single else acc


def check_log_grad_fd(model: DensityModel, X) -> float:
    """Max relative error of log_grad vs central finite differences at X."""
    X = np.atleast_2d(X)
    g = model.log_grad(X)
    worst = 0.0
    for d in range(model.dim):
        step = np.zeros(model.dim)
        step[d] = _FD_STEP
        fd = (model.log_density(X + step) - model.log_density(X - step)) / (2 * _FD_STEP)
        scale = np.maximum(np.abs(g[:, d]), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - g[:, d]) / scale)))
    return worst
