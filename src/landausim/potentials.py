"""Regularized soft-potential pair kernels.

The bare interaction strength is alpha(r) = r**gamma with gamma in [-3, 0]
(gamma = -3 is the Coulomb case, gamma = 0 constant).  Near r = 0 it is
tempered through a C^2 profile chi:

    alpha_eta(r) = (eta * chi(r / eta))**gamma,

where chi(r) = 0.99 for r <= 0.98, chi(r) = r for r >= 1, and in between chi
rises monotonically with slope profile chi'(r) = s((r - 0.98) / 0.02), s the
quintic smoothstep.  The slope integrates to exactly 0.01, so chi is C^2 with
chi(1) = 1, 0 <= chi' <= 1 and chi(r) >= max(0.99, r).  Consequences:

* alpha_eta(r) = r**gamma for r >= eta and alpha_eta is capped at
  (0.99 * eta)**gamma below eta / 2 (indeed below 0.98 * eta);
* eta -> alpha_eta(r) is non-increasing pointwise, so the family increases
  monotonically to the bare power law as eta -> 0;
* the logarithmic-derivative bound r |alpha_eta'(r)| / alpha_eta(r)
  <= -gamma / theta holds for every theta <= 1 (the supremum is exactly
  -gamma, attained in the power-law range).  PotentialSpec re-verifies the
  bound numerically on a dense grid at construction time.

The anisotropy matrix is a(z) = |z|^2 Id - z (x) z, the projection onto the
plane orthogonal to z scaled by |z|^2.  It factors through the rotation
fields b_k(z) = e_k x z as a = sum_k b_k (x) b_k, and the associated drift
and diffusion coefficients are

    b_eta(z) = div(alpha_eta a)(z) = -2 alpha_eta(|z|) z,
    sigma_eta(z) = sqrt(alpha_eta(|z|)) a(z) / |z|,

with sigma_eta sigma_eta^T = alpha_eta a and sigma_eta(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .smoothstep import smoothstep, smoothstep_antideriv

__all__ = [
    "CHI_PLATEAU",
    "PotentialSpec",
    "chi",
    "chi_prime",
    "chi_eta",
    "alpha_reg",
    "ratio_condition_margin",
    "default_eta",
    "a_matrix",
    "cross_kernels",
    "drift_bN",
    "diffusion_sigmaN",
]

CHI_PLATEAU = 0.99
_BLEND_LO = 0.98
_BLEND_W = 0.02
_ETA_MIN, _ETA_MAX = 1e-4, 1.0  # the clip of default_eta


def chi(r):
    """C^2 cutoff profile: 0.99 below 0.98, identity above 1."""
    r = np.asarray(r, dtype=float)
    u = (r - _BLEND_LO) / _BLEND_W
    # Select the identity branch explicitly so chi(r) == r exactly there.
    return np.where(r >= 1.0, r,
                    CHI_PLATEAU + _BLEND_W * smoothstep_antideriv(u))


def chi_prime(r):
    """Derivative of chi (a clamped quintic smoothstep)."""
    r = np.asarray(r, dtype=float)
    return smoothstep((r - _BLEND_LO) / _BLEND_W)


def chi_eta(eta: float, r):
    """Dilated profile chi_eta(r) = eta * chi(r / eta)."""
    return eta * chi(np.asarray(r, dtype=float) / eta)


def default_eta(n_particles: int, c: float = 1.0, kappa: float = 0.25) -> float:
    """Default cutoff schedule eta_N = clip(c * N**-kappa, 1e-4, 1)."""
    return float(min(max(c * n_particles ** (-kappa), _ETA_MIN), _ETA_MAX))


@dataclass(frozen=True)
class PotentialSpec:
    """Regularized potential parameters (gamma, eta, theta).

    theta tunes the logarithmic-derivative bound -gamma/theta that the
    regularization must respect; it must exceed -gamma/sqrt(22) and cannot
    exceed 1 (the bound is attained with equality in the power-law range).
    """

    gamma: float
    eta: float
    theta: float = 0.99

    def __post_init__(self):
        if not (-3.0 <= self.gamma <= 0.0):
            raise ConfigError(f"gamma must lie in [-3, 0], got {self.gamma}")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ConfigError(f"eta must be positive and finite, got {self.eta}")
        lower = -self.gamma / math.sqrt(22.0)
        if not (lower < self.theta <= 1.0):
            raise ConfigError(
                f"theta must lie in (-gamma/sqrt(22), 1] = ({lower:.6g}, 1], "
                f"got {self.theta}")
        margin = ratio_condition_margin(self)
        if margin > 1e-12:
            raise ConfigError(
                f"regularization violates the ratio bound: margin {margin:.3e} > 0")


def _power(x, gamma: float, out=None, where=True):
    """x**gamma into out (a new array when None), for x >= 0.

    gamma = 0 gives exactly 1, and gamma = -1, -2, -3 give 1/x, 1/(x*x) and
    1/((x*x)*x): correctly rounded products and one division, whose bits do
    not depend on numpy's SIMD dispatch (np.power's do) and lie within a few
    ulp of np.power.  Any other gamma goes to np.power.  x = 0 gives +inf for
    gamma < 0 without a warning.  With `where`, only the selected entries of
    out are written.  out must not overlap x.
    """
    if out is None:
        out = np.empty_like(x)
    if gamma == 0.0:
        np.copyto(out, 1.0, where=where)
        return out
    with np.errstate(divide="ignore", over="ignore"):
        if gamma in (-1.0, -2.0, -3.0):
            den = x
            if gamma != -1.0:
                den = np.multiply(x, x, out=out, where=where)
                if gamma == -3.0:
                    np.multiply(den, x, out=den, where=where)
            np.divide(1.0, den, out=out, where=where)
        else:
            np.power(x, gamma, out=out, where=where)
    return out


def alpha_reg(spec: PotentialSpec, r, out=None):
    """Regularized strength alpha_eta(r) = (eta * chi(r/eta))**gamma, with
    the power taken by `_power`.

    With `out` (a float array of r's shape, not r itself) the values are
    written into it and it is returned; the pair step passes its block
    buffer.
    """
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if out is None:
        out = np.empty_like(rr)
    _power(rr, spec.gamma, out)
    # chi_eta(r) == r for r >= eta; the entries below eta (r = 0 too) are
    # overwritten.  fmin skips NaN as `<` does, so one reduction decides
    # whether any entry is below eta and the mask is built only then.
    if spec.gamma != 0.0 and rr.size and np.fmin.reduce(rr, axis=None) < spec.eta:
        near = rr < spec.eta
        out[near] = _power(chi_eta(spec.eta, rr[near]), spec.gamma)
    return out if np.ndim(r) else out[0]


def ratio_condition_margin(spec: PotentialSpec) -> float:
    """Max over a dense grid of r|alpha'|/alpha - (-gamma/theta); <= 0 is good.

    The ratio equals -gamma * u * chi'(u) / chi(u) at u = r/eta; it is exactly
    -gamma throughout the power-law range u >= 1, which the grid of u
    (4001 points on [1e-6, 2], plus 1, 10 and 1000) reaches.
    """
    u = np.concatenate([np.linspace(1e-6, 2.0, 4001), [1.0, 10.0, 1e3]])
    ratio = -spec.gamma * u * chi_prime(u) / chi(u)
    bound = -spec.gamma / spec.theta
    return float(np.max(ratio) - bound)


def a_matrix(z):
    """Anisotropy matrix a(z) = |z|^2 Id - z (x) z, shape (..., 3, 3)."""
    z = np.asarray(z, dtype=float)
    r2 = np.sum(z * z, axis=-1)
    eye = np.eye(3)
    return r2[..., None, None] * eye - z[..., :, None] * z[..., None, :]


def cross_kernels(z):
    """Rotation fields b_k(z) = e_k x z, stacked on axis -2: out[..., k, :].

    They are orthogonal to z, |b_k|^2 sums to 2|z|^2 and
    sum_k b_k (x) b_k = a(z).
    """
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.shape[:-1] + (3, 3), dtype=float)
    zx, zy, zz = z[..., 0], z[..., 1], z[..., 2]
    out[..., 0, 1] = -zz
    out[..., 0, 2] = zy
    out[..., 1, 0] = zz
    out[..., 1, 2] = -zx
    out[..., 2, 0] = -zy
    out[..., 2, 1] = zx
    return out


def drift_bN(spec: PotentialSpec, z):
    """Pair drift b_eta(z) = -2 alpha_eta(|z|) z (odd in z, zero at z = 0)."""
    z = np.asarray(z, dtype=float)
    r = np.sqrt(np.sum(z * z, axis=-1))
    return -2.0 * alpha_reg(spec, r)[..., None] * z


def diffusion_sigmaN(spec: PotentialSpec, z):
    """Pair diffusion sigma_eta(z) = sqrt(alpha_eta(|z|)) a(z)/|z|.

    Symmetric PSD square root of alpha_eta * a; even in z; continuous with
    sigma_eta(0) = 0.
    """
    z = np.asarray(z, dtype=float)
    r = np.sqrt(np.sum(z * z, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(r > 0.0, np.sqrt(alpha_reg(spec, r)) / r, 0.0)
    return coef[..., None, None] * a_matrix(z)
