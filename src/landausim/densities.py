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

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import CapabilityError, CoverageError

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


def _axis_halfwidth(tail_mass: float, dim: int) -> float:
    # split the tail budget across axes and sides; ndtri gives the z-score
    per_side = tail_mass / (2.0 * dim)
    return float(-ndtri(per_side))


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
        q = np.einsum("ni,ij,nj->n", d, self.prec, d)
        return self._log_norm - 0.5 * q

    def log_grad(self, X):
        d = np.atleast_2d(X) - self.mean
        return -d @ self.prec

    def log_hess_quadform(self, X, U):
        U = np.atleast_2d(U)
        return -np.einsum("ni,ij,nj->n", U, self.prec, U)

    def sample(self, rng, n):
        return self.mean + rng.standard_normal((n, self.dim)) @ self._chol.T

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

    def _component_logs(self, X):
        return np.stack([c.log_density(X) for c in self.components], axis=0)

    def log_density(self, X):
        logs = self._component_logs(X) + np.log(self.weights)[:, None]
        peak = logs.max(axis=0)
        return peak + np.log(np.exp(logs - peak).sum(axis=0))

    def _responsibilities(self, X):
        logs = self._component_logs(X) + np.log(self.weights)[:, None]
        peak = logs.max(axis=0)
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
            pu = np.einsum("ni,ij,nj->n", U, c.prec, U)
            quad += ri * (gi_u**2 - pu)
            gbar_u += ri * gi_u
        return quad - gbar_u**2

    def sample(self, rng, n):
        counts = rng.multinomial(n, self.weights)
        parts = [c.sample(rng, k) for c, k in zip(self.components, counts) if k > 0]
        X = np.concatenate(parts, axis=0)
        return X[rng.permutation(n)]

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
        return np.concatenate([self.base.sample(rng, n) for _ in range(self.j)], axis=1)

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


def grid_integrate(fn, lo, hi, n_points, chunk: int = 2**20):
    """Trapezoid rule for int fn over the box [lo, hi] on a tensor grid.

    fn maps (m, dim) points to (m,) values.  Evaluation is chunked so the full
    point array never needs to be materialized at once for fine grids.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    dim = lo.size
    if np.isscalar(n_points):
        n_points = [int(n_points)] * dim
    axes = [np.linspace(lo[d], hi[d], n_points[d]) for d in range(dim)]
    wts = []
    for ax in axes:
        w = np.full(ax.size, ax[1] - ax[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        wts.append(w)
    shape = tuple(n_points)
    total_pts = int(np.prod(shape))
    acc = 0.0
    for start in range(0, total_pts, chunk):
        idx = np.unravel_index(np.arange(start, min(start + chunk, total_pts)), shape)
        pts = np.stack([axes[d][idx[d]] for d in range(dim)], axis=1)
        w = np.ones(pts.shape[0])
        for d in range(dim):
            w *= wts[d][idx[d]]
        acc += float(np.dot(w, fn(pts)))
    return acc


def check_mass(model: DensityModel, n_points=None, tol: float = 1e-6) -> float:
    """Quadrature mass certificate; raises CoverageError when off from 1."""
    lo, hi = model.bounding_box(1e-8)
    if n_points is None:
        n_points = 96 if model.dim <= 3 else 24
    mass = grid_integrate(model.density, lo, hi, n_points)
    if abs(mass - 1.0) > tol:
        raise CoverageError(f"grid mass {mass!r} deviates from 1 beyond {tol}")
    return mass


def check_log_grad_fd(model: DensityModel, X, h: float = 1e-6) -> float:
    """Max relative error of log_grad vs central finite differences at X."""
    X = np.atleast_2d(X)
    g = model.log_grad(X)
    worst = 0.0
    for d in range(model.dim):
        step = np.zeros(model.dim)
        step[d] = h
        fd = (model.log_density(X + step) - model.log_density(X - step)) / (2 * h)
        scale = np.maximum(np.abs(g[:, d]), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - g[:, d]) / scale)))
    return worst
