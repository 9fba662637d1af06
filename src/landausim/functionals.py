"""Entropy, Fisher information, and pair-dissipation functionals.

Conventions (F a probability density on R^{3n}, normalized "per block"):

* entropy      H(F)  = (1/n) int F log F          (negative differential entropy)
* fisher       I(F)  = (1/n) int |grad F|^2 / F

For n = 2 blocks (v, w) with z = v - w, the rotation fields b_k(z) = e_k x z
lift to divergence-free fields bt_k = (b_k, -b_k) on R^6 that annihilate all
radial functions of |z|.  With a radial weight w(z) = |z|^{-1/2} alpha(|z|)^{1/4}
the weighted derivation is d_k = w * (bt_k . grad); powers of the weight slide
through repeated applications because bt_k . grad w = 0.  Writing

    u1_k = bt_k . grad log F,
    u2_k = bt_k^T Hess(log F) bt_k + ((bt_k . grad) bt_k) . grad log F,

one has d_k F / F = w u1_k and d_k d_k F / F = w^2 (u1_k^2 + u2_k), and

* entropy production  D(F) = 1/2 int alpha(|z|) sum_k u1_k^2 F
* dissipation family  K_beta(F) = beta^{-2} int F^{1-2beta} (d_k d_k F^beta)^2
                              = int F sum_k w^4 (u2_k + beta u1_k^2)^2
  (beta = 0 is the log form int F sum_k w^4 u2_k^2)
* quartic functional  J(F) = int F sum_k w^4 u1_k^4

All three are evaluated by Monte Carlo over samples of F with the pair
singularity guarded (samples with |z| < 1e-12 are rejected and counted).
Entropy and Fisher use tensor-grid trapezoid quadrature on 3D models and
delegate exactly on tensor powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .densities import DensityModel, TensorPower, grid_integrate
from .errors import CapabilityError, CoverageError
from .potentials import PotentialSpec, alpha_bare, alpha_reg, cross_kernels

__all__ = [
    "MCSpec",
    "FunctionalEstimate",
    "entropy",
    "fisher_information",
    "entropy_production_D",
    "dissipation_K",
    "J_functional",
    "k_family",
    "ibp_identity_check",
    "beta_power_identity_probes",
    "tensor_consistency_D",
    "gaussian_entropy",
    "gaussian_fisher",
]

_SINGULAR_CUTOFF = 1e-12
_EPS_FLOOR = 1e-30
_EYE3 = np.eye(3)


@dataclass(frozen=True)
class MCSpec:
    """Monte Carlo budget: sample count and RNG seed."""

    n_samples: int = 100_000
    seed: int = 0


@dataclass
class FunctionalEstimate:
    """Value with an error scale: one standard error for MC estimates,
    a grid-refinement difference plus tail bound for quadrature."""

    value: float
    abs_error: float
    method: str
    n: int
    n_rejected: int = 0


def gaussian_entropy(sigma2, dim: int = 3) -> float:
    """Closed form (1/1) int f log f for N(m, sigma2 * I_dim)."""
    return -0.5 * dim * (math.log(2.0 * math.pi * float(sigma2)) + 1.0)


def gaussian_fisher(sigma2, dim: int = 3) -> float:
    """Closed form int |grad f|^2 / f for N(m, sigma2 * I_dim)."""
    return dim / float(sigma2)


def _grid_functional(model: DensityModel, integrand, n_points: int, tail_mass: float):
    if model.dim > 3:
        raise CapabilityError(
            "grid quadrature supports dim <= 3; use a tensor power of a 3D model")
    n = int(n_points)
    if n % 2 == 0:
        n += 1  # odd point count so the half-resolution subgrid shares endpoints
    lo, hi = model.bounding_box(tail_mass)

    def run(npts):
        mass = grid_integrate(model.density, lo, hi, npts)
        val = grid_integrate(integrand, lo, hi, npts)
        return mass, val

    mass, val = run(n)
    if abs(mass - 1.0) > 1e-6:
        raise CoverageError(
            f"quadrature mass {mass:.8f} off from 1; widen the grid or add points")
    _, val_coarse = run(n // 2 + 1)
    err = abs(val - val_coarse) + 2.0 * tail_mass * max(1.0, abs(val))
    return val, err, n**model.dim


def entropy(model: DensityModel, n_points: int = 129,
            tail_mass: float = 1e-9) -> FunctionalEstimate:
    """H(F) = (1/n) int F log F by trapezoid quadrature (exact tensor delegation)."""
    if isinstance(model, TensorPower):
        return entropy(model.base, n_points, tail_mass)

    def integrand(X):
        logf = model.log_density(X)
        f = np.exp(logf)
        return np.where(f > 0.0, f * logf, 0.0)

    val, err, n = _grid_functional(model, integrand, n_points, tail_mass)
    return FunctionalEstimate(val, err, "grid", n)


def fisher_information(model: DensityModel, n_points: int = 129,
                       tail_mass: float = 1e-9) -> FunctionalEstimate:
    """I(F) = (1/n) int |grad F|^2 / F = (1/n) int F |grad log F|^2."""
    if isinstance(model, TensorPower):
        return fisher_information(model.base, n_points, tail_mass)

    def integrand(X):
        g = model.log_grad(X)
        return model.density(X) * np.sum(g * g, axis=1)

    val, err, n = _grid_functional(model, integrand, n_points, tail_mass)
    return FunctionalEstimate(val, err, "grid", n)


def _alpha_of(pot, r):
    """Interaction strength for a PotentialSpec (regularized) or float gamma (bare)."""
    if isinstance(pot, PotentialSpec):
        return alpha_reg(pot, r)
    return alpha_bare(float(pot), r)


class _PairBatch:
    """Per-sample kernel fields for the first two blocks of a sampled model."""

    def __init__(self, model: DensityModel, pot, mc: MCSpec,
                 need_second: bool, k_set, X=None):
        if model.dim < 6 or model.dim % 3:
            raise CapabilityError("pair functionals need a model on R^{3n}, n >= 2")
        if X is None:
            rng = np.random.default_rng(mc.seed)
            X = model.sample(rng, mc.n_samples)
        z = X[:, 0:3] - X[:, 3:6]
        r = np.sqrt(np.sum(z * z, axis=1))
        keep = r >= _SINGULAR_CUTOFF
        self.n_rejected = int(np.sum(~keep))
        X, z, r = X[keep], z[keep], r[keep]
        self.n = X.shape[0]
        self.r = r
        self.alpha = _alpha_of(pot, r)
        self.w4 = self.alpha / (r * r)
        self.k_set = tuple(k_set)

        B = cross_kernels(z)                      # (n, k, 3)
        grad = model.log_grad(X)
        gdiff = grad[:, 0:3] - grad[:, 3:6]
        self.u1 = np.einsum("nkc,nc->nk", B, gdiff)
        if need_second:
            u2 = np.zeros_like(self.u1)
            U = np.zeros((self.n, model.dim))
            for k in self.k_set:
                U[:] = 0.0
                U[:, 0:3] = B[:, k, :]
                U[:, 3:6] = -B[:, k, :]
                quad = model.log_hess_quadform(X, U)
                curv = 2.0 * np.einsum("nc,nc->n", np.cross(_EYE3[k], B[:, k, :]), gdiff)
                u2[:, k] = quad + curv
            self.u2 = u2
        else:
            self.u2 = None

    def mean_se(self, per_sample) -> FunctionalEstimate:
        value = float(np.mean(per_sample))
        se = float(np.std(per_sample, ddof=1) / math.sqrt(self.n))
        return FunctionalEstimate(value, se, "mc", self.n, self.n_rejected)

    def d_samples(self):
        cols = list(self.k_set)
        return 0.5 * self.alpha * np.sum(self.u1[:, cols] ** 2, axis=1)

    def j_samples(self):
        cols = list(self.k_set)
        return self.w4 * np.sum(self.u1[:, cols] ** 4, axis=1)

    def k_samples(self, beta: float):
        cols = list(self.k_set)
        core = self.u2[:, cols] + beta * self.u1[:, cols] ** 2
        return self.w4 * np.sum(core * core, axis=1)

    def ibp_lhs_samples(self):
        # int (dd F)(d F)^2 / F^2 = int F w^4 u1^2 (u1^2 + u2)
        cols = list(self.k_set)
        u1sq = self.u1[:, cols] ** 2
        return self.w4 * np.sum(u1sq * (u1sq + self.u2[:, cols]), axis=1)


def entropy_production_D(model: DensityModel, pot, mc: MCSpec,
                         k_set=(0, 1, 2), _X=None) -> FunctionalEstimate:
    """D(F) = 1/2 int alpha(|z|) a(z) : [(grad_1 - grad_2) log F]^(x2) F.

    A 3-dimensional model rho is interpreted as the pair tensor rho x rho.
    """
    if model.dim == 3:
        model = TensorPower(model, 2)
    batch = _PairBatch(model, pot, mc, need_second=False, k_set=k_set, X=_X)
    return batch.mean_se(batch.d_samples())


def J_functional(model: DensityModel, pot, mc: MCSpec,
                 k_set=(0, 1, 2)) -> FunctionalEstimate:
    """J(F) = int F sum_k (alpha/|z|^2) (bt_k . grad log F)^4."""
    batch = _PairBatch(model, pot, mc, need_second=False, k_set=k_set)
    return batch.mean_se(batch.j_samples())


def dissipation_K(model: DensityModel, beta: float, pot, mc: MCSpec,
                  k_set=(0, 1, 2)) -> FunctionalEstimate:
    """K_beta(F) = int F sum_k w^4 (u2_k + beta u1_k^2)^2 for beta in [0, 1]."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    batch = _PairBatch(model, pot, mc, need_second=True, k_set=k_set)
    return batch.mean_se(batch.k_samples(beta))


@dataclass
class KFamilyResult:
    """Shared-sample estimates of the K_beta family plus J.

    residual(beta) returns the estimate of K_beta - K_{1/3} - (beta-1/3)^2 J,
    whose exact value is 0; its standard error is computed on the combined
    per-sample array, which is the tight test statistic.
    """

    estimates: dict
    J: FunctionalEstimate
    n: int
    n_rejected: int
    _samples: dict = field(repr=False, default_factory=dict)

    def residual(self, beta: float, anchor: float = 1.0 / 3.0) -> FunctionalEstimate:
        arr = (self._samples[beta] - self._samples[anchor]
               - (beta - anchor) ** 2 * self._samples["J"])
        value = float(np.mean(arr))
        se = float(np.std(arr, ddof=1) / math.sqrt(self.n))
        return FunctionalEstimate(value, se, "mc", self.n, self.n_rejected)

    def difference(self, a, b) -> FunctionalEstimate:
        """Shared-sample estimate of K_a - K_b (a, b in the beta set or 'J')."""
        arr = self._samples[a] - self._samples[b]
        value = float(np.mean(arr))
        se = float(np.std(arr, ddof=1) / math.sqrt(self.n))
        return FunctionalEstimate(value, se, "mc", self.n, self.n_rejected)


def k_family(model: DensityModel, betas, pot, mc: MCSpec,
             k_set=(0, 1, 2)) -> KFamilyResult:
    """Evaluate K_beta for several beta and J on one shared sample set."""
    betas = list(betas)
    if 1.0 / 3.0 not in betas:
        betas.append(1.0 / 3.0)
    batch = _PairBatch(model, pot, mc, need_second=True, k_set=k_set)
    samples = {beta: batch.k_samples(beta) for beta in betas}
    samples["J"] = batch.j_samples()
    estimates = {beta: batch.mean_se(samples[beta]) for beta in betas}
    return KFamilyResult(estimates=estimates, J=batch.mean_se(samples["J"]),
                         n=batch.n, n_rejected=batch.n_rejected, _samples=samples)


def ibp_identity_check(model: DensityModel, pot, mc: MCSpec,
                       k_set=(0, 1, 2), full: bool = False):
    """Integration-by-parts identity int (ddF)(dF)^2/F^2 = (2/3) J.

    Returns |lhs - (2/3) J| / max(J, 1e-30) on shared samples; with
    ``full=True`` returns a dict with the two sides, the per-sample residual
    mean, its standard error, and the sample counts.  The residual estimates
    0 for any radial weight because the fields bt_k are divergence-free.
    """
    batch = _PairBatch(model, pot, mc, need_second=True, k_set=k_set)
    lhs = batch.ibp_lhs_samples()
    rhs = (2.0 / 3.0) * batch.j_samples()
    resid = lhs - rhs
    j_val = 1.5 * float(np.mean(rhs))
    normalized = abs(float(np.mean(resid))) / max(j_val, _EPS_FLOOR)
    if not full:
        return normalized
    return {
        "residual": normalized,
        "lhs": batch.mean_se(lhs).value,
        "rhs": batch.mean_se(rhs).value,
        "residual_mean": float(np.mean(resid)),
        "residual_se": float(np.std(resid, ddof=1) / math.sqrt(batch.n)),
        "n": batch.n,
        "n_rejected": batch.n_rejected,
    }


def beta_power_identity_probes(model: DensityModel, pot, beta: float,
                               X, k_set=(0, 1, 2)) -> float:
    """Max relative discrepancy of the pointwise power identity on probes X.

    For beta > 0:  dd(F^beta) / (beta F^beta) = ddF/F + (beta-1) (dF)^2/F^2,
    the left side evaluated through the derivatives of G = F^beta (log-grad
    and log-Hessian scaled by beta), the right side through the K_1 / J
    building blocks.  beta = 0 checks the log form
    dd(log F) = ddF/F - (dF)^2/F^2.  Denominators are floored at 1e-30.
    """
    X = np.atleast_2d(X)
    batch = _PairBatch(model, pot, MCSpec(0, 0), need_second=True,
                       k_set=k_set, X=X)
    w2 = np.sqrt(batch.alpha) / batch.r
    worst = 0.0
    for k in batch.k_set:
        u1, u2 = batch.u1[:, k], batch.u2[:, k]
        sq = w2 * u1 * u1                  # (dF)^2 / F^2 contribution
        mixed = w2 * (u1 * u1 + u2)        # ddF / F contribution
        if beta == 0.0:
            lhs = w2 * u2
            rhs = mixed - sq
        else:
            # G = F^beta has log-grad beta*grad log F, so u1_G = beta*u1 and
            # u2_G = beta*u2; the left side is w^2 (u1_G^2 + u2_G) / beta.
            lhs = w2 * ((beta * u1) ** 2 + beta * u2) / beta
            rhs = mixed + (beta - 1.0) * sq
        # normalize by the largest additive term so that the benign
        # cancellation between the two contributions is not amplified
        scale = np.maximum.reduce([np.abs(lhs), np.abs(rhs), np.abs(sq),
                                   np.abs(mixed)])
        scale = np.maximum(scale, 1e-30)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return worst


def tensor_consistency_D(rho: DensityModel, j: int, pot, mc: MCSpec,
                         k_set=(0, 1, 2)):
    """D evaluated on rho^(x j) and on rho^(x 2) with shared pair marginals.

    The integrand only involves the first two blocks, so the two estimates
    agree exactly up to floating-point rounding; returned as
    (estimate_j, estimate_pair).
    """
    if j < 2:
        raise ValueError("tensor consistency needs j >= 2")
    rng = np.random.default_rng(mc.seed)
    model_j = TensorPower(rho, j)
    X = model_j.sample(rng, mc.n_samples)
    est_j = entropy_production_D(model_j, pot, mc, k_set, _X=X)
    est_pair = entropy_production_D(TensorPower(rho, 2), pot, mc, k_set,
                                    _X=X[:, 0:6])
    return est_j, est_pair
