"""Analytic density models with gradients, Hessian quadratic forms, samplers.

Every model works on batched points X of shape (n, dim) and exposes:

* log_density(X) -> (n,)
* density(X) -> (n,)
* log_grad(X) -> (n, dim), the gradient of log f
* log_hess_quadform(X, U) -> (n,), u^T Hess(log f) u for one direction per row
* sample(rng, n) -> (n, dim)
* bounding_box(tail_mass) -> (lo, hi) covering all but tail_mass of the mass

Models are normalized analytically (Gaussians, mixtures) and wrappers
(tensor powers, dilations, translations) preserve normalization exactly.
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

    def bounding_box(self, tail_mass: float = 1e-8):
        raise CapabilityError(f"{type(self).__name__} has no bounding_box")


_SAMPLE_ROWS = 2**16  # rows per in-place block of GaussianModel.sample


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
        d = np.atleast_2d(X) - self.mean
        q = np.einsum("ni,ni->n", d @ self.prec, d)
        return self._log_norm - 0.5 * q

    def log_grad(self, X):
        return (self.mean - np.atleast_2d(X)) @ self.prec

    def log_hess_quadform(self, X, U):
        U = np.atleast_2d(U)
        return -np.einsum("ni,ni->n", U @ self.prec, U)

    def sample(self, rng, n):
        # the Cholesky factor is applied in row blocks, in place: row-block
        # products equal the whole-array product bit for bit
        x = rng.standard_normal((n, self.dim))
        for start in range(0, n, _SAMPLE_ROWS):
            block = x[start:start + _SAMPLE_ROWS]
            block[...] = block @ self._chol.T
        x += self.mean
        return x

    def bounding_box(self, tail_mass: float = 1e-8):
        z = _axis_halfwidth(tail_mass, self.dim)
        half = z * np.sqrt(np.diag(self.cov))
        return self.mean - half, self.mean + half


class GaussianMixtureModel(DensityModel):
    """Finite mixture sum_i w_i N(m_i, Sigma_i) with analytic derivatives."""

    def __init__(self, weights, means, covs):
        self.weights = np.asarray(weights, dtype=float)
        if not np.isclose(self.weights.sum(), 1.0):
            raise ValueError("mixture weights must sum to 1")
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
        out = np.zeros_like(X)
        for ri, c in zip(r, self.components):
            out += ri[:, None] * c.log_grad(X)
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
        if j < 1:
            raise ValueError("tensor power needs j >= 1")
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
        return np.concatenate([self.base.log_grad(b) for b in self._blocks(X)], axis=1)

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
            out[:, i * d:(i + 1) * d] = self.base.sample(rng, n)
        return out

    def bounding_box(self, tail_mass: float = 1e-8):
        lo, hi = self.base.bounding_box(tail_mass / self.j)
        return np.tile(lo, self.j), np.tile(hi, self.j)


class ScaledModel(DensityModel):
    """Dilation f_lam(x) = lam^dim f(lam x); lam > 1 concentrates the mass."""

    def __init__(self, base: DensityModel, lam: float):
        if lam <= 0:
            raise ValueError("scale must be positive")
        self.base = base
        self.lam = float(lam)
        self.dim = base.dim

    def log_density(self, X):
        X = np.atleast_2d(X)
        return self.dim * math.log(self.lam) + self.base.log_density(self.lam * X)

    def log_grad(self, X):
        X = np.atleast_2d(X)
        return self.lam * self.base.log_grad(self.lam * X)

    def log_hess_quadform(self, X, U):
        X = np.atleast_2d(X)
        return self.lam**2 * self.base.log_hess_quadform(self.lam * X, U)

    def sample(self, rng, n):
        return self.base.sample(rng, n) / self.lam

    def bounding_box(self, tail_mass: float = 1e-8):
        lo, hi = self.base.bounding_box(tail_mass)
        return lo / self.lam, hi / self.lam


class ShiftedModel(DensityModel):
    """Translation f(x - m) of a base model."""

    def __init__(self, base: DensityModel, shift):
        self.base = base
        self.shift = np.asarray(shift, dtype=float)
        self.dim = base.dim

    def log_density(self, X):
        return self.base.log_density(np.atleast_2d(X) - self.shift)

    def log_grad(self, X):
        return self.base.log_grad(np.atleast_2d(X) - self.shift)

    def log_hess_quadform(self, X, U):
        return self.base.log_hess_quadform(np.atleast_2d(X) - self.shift, U)

    def sample(self, rng, n):
        return self.base.sample(rng, n) + self.shift

    def bounding_box(self, tail_mass: float = 1e-8):
        lo, hi = self.base.bounding_box(tail_mass)
        return lo + self.shift, hi + self.shift


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
