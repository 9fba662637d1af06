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

one has d_k F / F = w u1_k and d_k d_k F / F = w^2 (u1_k^2 + u2_k).  With
g = (grad_1 - grad_2) log F, u1_k = b_k . g = (z x g)_k and the curvature term
is 2 (e_k x b_k) . g = 2 (z_k g_k - z . g) = -2 sum_{c != k} z_c g_c, summed
over the two other components in index order: on a Maxwellian of dyadic
temperature T, g = -z/T exactly, so that sum cancels the Hessian term bit for
bit and D, J, K are exactly 0 (the difference form leaves ~1e-31).  Then

* entropy production  D(F) = 1/2 int alpha(|z|) sum_k u1_k^2 F
* dissipation family  K_beta(F) = beta^{-2} int F^{1-2beta} (d_k d_k F^beta)^2
                              = int F sum_k w^4 (u2_k + beta u1_k^2)^2 = A + 2 beta B + beta^2 J
  (A = int F sum_k w^4 u2_k^2 is K_0, the log form; B = int F sum_k w^4 u2_k u1_k^2)
* quartic functional  J(F) = int F sum_k w^4 u1_k^4

All three are evaluated by Monte Carlo over samples of F, with alpha the
regularized alpha_eta of a PotentialSpec and the pair singularity guarded
(samples with |z| < 1e-12 are rejected and counted).
``k_family`` is the one Monte Carlo pass, and D and J are views of it: it
draws the seeded sample in blocks of 16,384 samples with ``sample_blocks``
and writes the per-sample D, J, A and B, which serve every beta, into one
preallocated array each, bit-identical to one whole-array batch (2^20
samples peak at 65 MB under tracemalloc).  z, g, u1 and u2 are (n, 3)
arrays stored column by column, and z x g and the sums over k are written
out per column (numpy's ``np.sum(axis=1)`` and ``np.cross`` loop over
3-element rows, several times slower) in numpy's order, (c0 + c1) + c2 for
a sum, so the values keep their bits.  Entropy and Fisher use tensor-grid trapezoid
quadrature on 3D models, on a fixed grid of 129^3 points over the box that
holds all but 1e-9 of the mass: one fine pass checks the mass and integrates
H and I together, one 65^3 pass gives their error scale, and tensor powers
delegate exactly to their base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .densities import DensityModel, TensorPower, _columns, grid_integrate
from .errors import CapabilityError, ConfigError, CoverageError
from .potentials import PotentialSpec, alpha_reg

__all__ = [
    "MCSpec",
    "FunctionalEstimate",
    "grid_functionals",
    "entropy",
    "fisher_information",
    "entropy_production_D",
    "J_functional",
    "k_family",
    "beta_power_identity_probes",
    "tensor_consistency_D",
]

_SINGULAR_CUTOFF = 1e-12
# sample rows per pair batch: a block's fields are a few dozen (rows, 3) and
# (rows,) float arrays, 0.4 and 0.13 MB each, small next to the per-sample
# results; each field value depends on its own sample row alone, so the size
# changes no bit
_MC_BLOCK = 2**14
_GRID_POINTS = 129  # per axis of the H, I grid; odd, so the 65-point grid shares endpoints
_GRID_TAIL = 1e-9  # the mass outside the H, I grid's box


@dataclass(frozen=True)
class MCSpec:
    """Monte Carlo budget: sample count (an int >= 2) and RNG seed (an int >= 0)."""

    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name, lo in (("n_samples", 2), ("seed", 0)):
            val = getattr(self, name)
            if not isinstance(val, (int, np.integer)) or val < lo:
                raise ConfigError(f"MCSpec {name} must be an int >= {lo}, got {val!r}")


@dataclass
class FunctionalEstimate:
    """Value with an error scale: one standard error for MC estimates,
    a grid-refinement difference plus tail bound for quadrature."""

    value: float
    abs_error: float
    method: str
    n: int
    n_rejected: int = 0


def grid_functionals(model: DensityModel, which=("H", "I")) -> dict:
    """{name: estimate} for H and/or I by trapezoid quadrature on the fixed
    129-point-per-axis grid over the box that holds all but 1e-9 of the mass,
    from one fine pass that also checks the mass and one 65-point pass for
    the error; tensor powers delegate exactly to their base."""
    if isinstance(model, TensorPower):
        return grid_functionals(model.base, which)
    which = tuple(which)
    bad = [w for w in which if w not in ("H", "I")]
    if bad:
        raise ConfigError(f"grid functionals are H and I, got {bad}")
    if model.dim > 3:
        raise CapabilityError(
            "grid quadrature supports dim <= 3; use a tensor power of a 3D model")
    lo, hi = model.bounding_box(_GRID_TAIL)

    def rows(X):  # mass, then the integrands of `which`
        logf = model.log_density(X)
        f = np.exp(logf)
        out = [f]
        for name in which:
            if name == "H":
                out.append(np.where(f > 0.0, f * logf, 0.0))
            else:
                g = model.log_grad(X)
                out.append(f * _row_sum(g * g))
        return out

    mass, *vals = grid_integrate(rows, lo, hi, _GRID_POINTS)
    if not abs(mass - 1.0) <= 1e-6:  # a NaN mass fails too
        raise CoverageError(
            f"quadrature mass {mass:.8f} off from 1; widen the grid or add points")
    coarse = grid_integrate(rows, lo, hi, _GRID_POINTS // 2 + 1)[1:]
    out = {}
    for name, val, val_coarse in zip(which, vals, coarse):
        err = abs(val - val_coarse) + 2.0 * _GRID_TAIL * max(1.0, abs(val))
        out[name] = FunctionalEstimate(val, err, "grid", _GRID_POINTS**model.dim)
    return out


def entropy(model: DensityModel) -> FunctionalEstimate:
    """H(F) = (1/n) int F log F by trapezoid quadrature (exact tensor delegation)."""
    return grid_functionals(model, ("H",))["H"]


def fisher_information(model: DensityModel) -> FunctionalEstimate:
    """I(F) = (1/n) int |grad F|^2 / F = (1/n) int F |grad log F|^2."""
    return grid_functionals(model, ("I",))["I"]


def _mc_estimate(per_sample, n_rejected: int) -> FunctionalEstimate:
    """Sample mean with one standard error."""
    se = float(np.std(per_sample, ddof=1) / math.sqrt(per_sample.size))
    return FunctionalEstimate(float(np.mean(per_sample)), se, "mc",
                              per_sample.size, n_rejected)


class _PairBatch:
    """Per-sample pair fields of a model on R^{3n}, n >= 2, at the samples X.

    u2 is built on first use, so D and J need no ``log_hess_quadform``.
    """

    def __init__(self, model: DensityModel, pot: PotentialSpec, X):
        if model.dim < 6 or model.dim % 3:
            raise CapabilityError("pair functionals need a model on R^{3n}, n >= 2")
        z = _pair_difference(X)
        r = np.sqrt(_row_sum(z * z))
        keep = r >= _SINGULAR_CUTOFF
        self.n_rejected = int(np.sum(~keep))
        if self.n_rejected:
            X, z, r = X[keep], z[keep], r[keep]
        self.n = X.shape[0]
        self.r = r
        self.alpha = alpha_reg(pot, r)
        self.w4 = self.alpha / (r * r)

        g = _pair_difference(model.log_grad(X))
        # u1_k = b_k . g = (z x g)_k, each column as np.cross forms it
        self.u1 = _columns(self.n, 3)
        for k in range(3):
            a, b = (k + 1) % 3, (k + 2) % 3
            np.multiply(z[:, a], g[:, b], out=self.u1[:, k])
            self.u1[:, k] -= z[:, b] * g[:, a]
        self.u1sq = self.u1 * self.u1
        self._u2_inputs = (model, X, z, g)

    @cached_property
    def u2(self):
        model, X, z, g = self._u2_inputs
        u2 = _columns(self.n, 3)
        # (b_k, -b_k), later blocks 0; column-major so fills write columns
        # (einsum in log_hess_quadform sums in an order set by this layout)
        U = np.zeros((model.dim, self.n)).T
        for k in range(3):
            a, b = (k + 1) % 3, (k + 2) % 3
            U[:, k], U[:, a], U[:, b] = 0.0, -z[:, b], z[:, a]  # b_k = e_k x z
            np.negative(U[:, 0:3], out=U[:, 3:6])
            curv = -2.0 * sum(z[:, c] * g[:, c] for c in range(3) if c != k)
            u2[:, k] = model.log_hess_quadform(X, U) + curv
        return u2

    def d_samples(self):
        return 0.5 * self.alpha * _row_sum(self.u1sq)

    def j_samples(self):
        return self.w4 * _row_sum(self.u1sq * self.u1sq)

    def a_samples(self):  # K_0, the beta-free term of K_beta
        return self.w4 * _row_sum(self.u2 * self.u2)

    def b_samples(self):  # half the coefficient of beta in K_beta
        return self.w4 * _row_sum(self.u2 * self.u1sq)


def _row_sum(a):
    """np.sum(a, axis=1) of a narrow (n, k) array, bit for bit, added one
    whole column at a time as numpy adds it, ((0 + a0) + a1) + a2 ..., where
    numpy's reduction would loop over the k-element rows."""
    total = 0.0 + a[:, 0]
    for c in range(1, a.shape[1]):
        total += a[:, c]
    return total


def _pair_difference(A):
    """A[:, 0:3] - A[:, 3:6] of an (n, >= 6) array, column by column."""
    out = _columns(A.shape[0], 3)
    for c in range(3):
        np.subtract(A[:, c], A[:, 3 + c], out=out[:, c])
    return out


def _check_beta(*betas: float) -> None:
    for beta in betas:
        if not 0.0 <= beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {beta}")


def entropy_production_D(model: DensityModel, pot, mc: MCSpec) -> FunctionalEstimate:
    """D(F) = 1/2 int alpha(|z|) a(z) : [(grad_1 - grad_2) log F]^(x2) F."""
    return k_family(model, [], pot, mc).D


def J_functional(model: DensityModel, pot, mc: MCSpec) -> FunctionalEstimate:
    """J(F) = int F sum_k (alpha/|z|^2) (bt_k . grad log F)^4."""
    return k_family(model, [], pot, mc).J


def _k_samples(parts, beta: float):  # per-sample K_beta of (A, B, J)
    a, b, j = parts
    return a + 2.0 * beta * b + beta * beta * j


@dataclass
class KFamilyResult:
    """Shared-sample estimates of the K_beta family plus J and D.

    K_beta = A + 2 beta B + beta^2 J per sample, so the per-sample A, B and J
    serve every beta in [0, 1].  An estimate is the mean and standard error of
    one array formed in the order written: estimates[beta] (requested betas
    only) of (A + (2 beta) B) + beta^2 J; difference(a, b) = K_a - K_b of
    (a - b) (2 B + (a + b) J); residual(beta) of (2 (3 beta - 1) / 3) (B + J / 3),
    K_beta - K_{1/3} - (beta - 1/3)^2 J: 2 (beta - 1/3) times the integrand of
    int (ddF)(dF)^2/F^2 - (2/3) J = 0 (by parts: the bt_k are divergence-free).
    Without betas both methods raise ConfigError.
    """

    estimates: dict
    J: FunctionalEstimate
    D: FunctionalEstimate
    n: int
    n_rejected: int
    _parts: tuple = field(repr=False, default=None)  # per-sample (A, B, J)

    def _parts_at(self, *betas):
        if self._parts is None:
            raise ConfigError("K_beta needs at least one beta in the k_family call")
        _check_beta(*betas)
        return self._parts

    def residual(self, beta: float) -> FunctionalEstimate:
        _, b, j = self._parts_at(beta)
        arr = 2.0 * (3.0 * beta - 1.0) / 3.0 * (b + j / 3.0)  # 0 at beta = 1/3
        return _mc_estimate(arr, self.n_rejected)

    def difference(self, a: float, b: float) -> FunctionalEstimate:
        _, bb, j = self._parts_at(a, b)
        return _mc_estimate((a - b) * (2.0 * bb + (a + b) * j), self.n_rejected)


def k_family(model: DensityModel, betas, pot, mc: MCSpec) -> KFamilyResult:
    """Evaluate K_beta for several beta in [0, 1], J and D on one shared sample set.

    A 3-dimensional model rho is taken as the pair tensor rho x rho.  Each
    block of _MC_BLOCK seeded sample rows writes D, J and, if a beta is
    requested, A and B at the running kept offset of one array each (bit for
    bit one batch).  Fewer than two kept samples raise CoverageError.
    """
    if model.dim == 3:
        model = TensorPower(model, 2)
    betas = list(betas)
    _check_beta(*betas)
    n = mc.n_samples
    out = [np.empty(n) for _ in range(4 if betas else 2)]  # D, J[, A, B]
    kept = nr = 0
    for X in model.sample_blocks(np.random.default_rng(mc.seed), n, _MC_BLOCK):
        batch = _PairBatch(model, pot, X)
        fields = (batch.d_samples, batch.j_samples, batch.a_samples, batch.b_samples)
        for arr, values in zip(out, fields):
            arr[kept:kept + batch.n] = values()
        kept += batch.n
        nr += batch.n_rejected
    if kept < 2:  # a mean and its standard error need two samples
        raise CoverageError(
            f"{kept} of {n} Monte Carlo samples kept, {nr} rejected with |z| < "
            f"{_SINGULAR_CUTOFF:g}; an estimate needs at least 2")
    d, j, *ab = (arr[:kept] for arr in out)
    parts = (*ab, j) if ab else None
    estimates = {beta: _mc_estimate(_k_samples(parts, beta), nr) for beta in betas}
    return KFamilyResult(estimates=estimates, J=_mc_estimate(j, nr),
                         D=_mc_estimate(d, nr), n=kept, n_rejected=nr, _parts=parts)


def beta_power_identity_probes(model: DensityModel, pot, beta: float, X) -> float:
    """Max relative discrepancy of the pointwise power identity on probes X.

    For beta > 0:  dd(F^beta) / (beta F^beta) = ddF/F + (beta-1) (dF)^2/F^2,
    the left side evaluated through the derivatives of G = F^beta (log-grad
    and log-Hessian scaled by beta), the right side through the K_1 / J
    building blocks.  beta = 0 checks the log form
    dd(log F) = ddF/F - (dF)^2/F^2.  Denominators are floored at 1e-30.
    """
    batch = _PairBatch(model, pot, np.atleast_2d(X))
    w2 = (np.sqrt(batch.alpha) / batch.r)[:, None]
    u1, u1sq, u2 = batch.u1, batch.u1sq, batch.u2
    sq = w2 * u1sq                     # (dF)^2 / F^2 contribution
    mixed = w2 * (u1sq + u2)           # ddF / F contribution
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
    scale = np.maximum.reduce([np.abs(lhs), np.abs(rhs), np.abs(sq), np.abs(mixed)])
    return float(np.max(np.abs(lhs - rhs) / np.maximum(scale, 1e-30)))


def tensor_consistency_D(rho: DensityModel, j: int, pot, mc: MCSpec):
    """D evaluated on rho^(x j) and on rho^(x 2) with shared pair marginals.

    A tensor power draws factor-major, one factor over all rows after
    another, also in streamed blocks, so the seeded draw of rho^(x j) holds
    the seeded draw of rho^(x 2) in its first two factors, bit for bit.  The
    integrand only involves the first two blocks, so the two estimates
    agree exactly up to floating-point rounding; returned as
    (estimate_j, estimate_pair).
    """
    if j < 2:
        raise ValueError("tensor consistency needs j >= 2")
    return tuple(entropy_production_D(TensorPower(rho, k), pot, mc) for k in (j, 2))
