"""Reference initial data and closed-form benchmark dynamics.

Preset densities (all normalized, 3D):

* ``maxwellian(T)``            isotropic Gaussian N(0, T Id)
* ``aniso_gauss(T1,T2,T3)``    centered Gaussian with diagonal covariance
* ``bimodal(d)``               equal mixture of unit-T Maxwellians at +-(d/2) e1

Preset names are accepted wherever a config file references g0.

Second-moment relaxation for the constant-strength kernel (gamma = 0)
----------------------------------------------------------------------

For the mean-field evolution tested against phi(v) = v_a v_b the dynamics
gives, writing z = v - w and using b(z) = -2z, a(z) = |z|^2 Id - z (x) z:

    d/dt int phi f = int int [ 2 b(z).grad phi(v) + a(z) : Hess phi(v) ] f(dv) f(dw).

With grad phi(v) = v_b e_a + v_a e_b and Hess phi = e_a (x) e_b + e_b (x) e_a:

    2 b(z).grad phi(v)   = -4 (z_a v_b + z_b v_a),
    a(z) : Hess phi      = 2 (|z|^2 delta_ab - z_a z_b).

Taking f centered (the mean is conserved and can be normalized away) with
second-moment matrix P_ab = int v_a v_b f, independence of v and w gives
E[z_a v_b] = P_ab, E[z_a z_b] = 2 P_ab and E|z|^2 = 2 tr P, hence

    dP/dt = -8P + 4 tr(P) Id - 4P = -12 P + 4 tr(P) Id.

The trace is conserved (energy), and the traceless part decays exponentially:

    P(t) = (tr P0 / 3) Id + exp(-12 t) (P0 - (tr P0 / 3) Id).

The N-particle system replaces the product moment by the pair average, which
for a centered cloud equals (2N/(N-1)) times the covariance about the sample
mean, so the finite-N expected anisotropy decays at rate 12 N/(N-1); the
mean-field rate 12 below is what the ODE benchmark uses.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .densities import GaussianModel, GaussianMixtureModel
from .errors import ConfigError

__all__ = [
    "maxwellian",
    "aniso_gauss",
    "bimodal",
    "resolve_preset",
    "preset_names",
    "maxwellian_entropy",
    "maxwellian_fisher",
    "MAXWELL_ANISOTROPY_RATE",
    "maxwell_molecule_moment_ode",
    "matched_maxwellian",
]

MAXWELL_ANISOTROPY_RATE = 12.0


def maxwellian(T: float = 1.0, mean=(0.0, 0.0, 0.0)) -> GaussianModel:
    """Isotropic Gaussian with temperature T (covariance T Id) at `mean`."""
    if T <= 0:
        raise ConfigError("temperature must be positive")
    return GaussianModel(np.asarray(mean, dtype=float), T * np.ones(3))


def aniso_gauss(T1: float, T2: float, T3: float) -> GaussianModel:
    """Centered Gaussian with covariance diag(T1, T2, T3)."""
    if min(T1, T2, T3) <= 0:
        raise ConfigError("temperatures must be positive")
    return GaussianModel(np.zeros(3), np.array([T1, T2, T3]))


def bimodal(d: float, T: float = 1.0) -> GaussianMixtureModel:
    """Equal two-component mixture of T-Maxwellians centered at +-(d/2) e1."""
    if T <= 0:
        raise ConfigError("temperature must be positive")
    half = np.array([d / 2.0, 0.0, 0.0])
    return GaussianMixtureModel([0.5, 0.5], [half, -half],
                                [T * np.ones(3), T * np.ones(3)])


_PRESETS = {"maxwellian": maxwellian, "aniso_gauss": aniso_gauss, "bimodal": bimodal}
_PRESET_RE = re.compile(r"^\s*([a-z_]+)\s*\(\s*([^)]*)\s*\)\s*$")


def preset_names():
    return sorted(_PRESETS)


def resolve_preset(spec: str):
    """Parse 'name(arg1,arg2,...)' into the corresponding density model."""
    m = _PRESET_RE.match(spec)
    if not m:
        raise ConfigError(
            f"bad preset {spec!r}; expected name(args), names: {preset_names()}")
    name, argstr = m.group(1), m.group(2)
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; names: {preset_names()}")
    try:
        args = [float(a) for a in argstr.split(",") if a.strip()]
        if not all(map(math.isfinite, args)):
            raise ConfigError("every argument must be finite")
        return _PRESETS[name](*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad preset arguments in {spec!r}: {exc}") from exc


def maxwellian_entropy(T: float) -> float:
    """Closed form int f log f for maxwellian(T)."""
    return -1.5 * (math.log(2.0 * math.pi * T) + 1.0)


def maxwellian_fisher(T: float) -> float:
    """Closed form int |grad f|^2 / f for maxwellian(T)."""
    return 3.0 / T


def maxwell_molecule_moment_ode(P0, t) -> np.ndarray:
    """Closed-form second-moment matrix P(t) for the gamma = 0 kernel.

    Solves dP/dt = -12 P + 4 tr(P) Id (see module docstring): the trace is
    constant and the traceless part decays like exp(-12 t).  `t` may be a
    scalar or an array; the result has shape t.shape + (3, 3).
    """
    P0 = np.asarray(P0, dtype=float)
    if P0.shape != (3, 3):
        raise ConfigError("P0 must be a 3x3 matrix")
    t = np.asarray(t, dtype=float)
    iso = (np.trace(P0) / 3.0) * np.eye(3)
    dev = P0 - iso
    decay = np.exp(-MAXWELL_ANISOTROPY_RATE * t)
    return iso + decay[..., None, None] * dev


def matched_maxwellian(points: np.ndarray):
    """Maxwellian sharing the cloud's mean and average kinetic energy.

    Returns a Gaussian with mean = sample mean and isotropic temperature
    T = mean |v - mean|^2 / 3 (the equilibrium the dynamics conserves toward).
    """
    v = np.atleast_2d(np.asarray(points, dtype=float))
    mean = v.mean(axis=0)
    w = v - mean
    T = float(np.mean(np.sum(w * w, axis=1)) / 3.0)
    if T <= 0:
        raise ConfigError("degenerate cloud: zero thermal energy")
    return GaussianModel(mean, T * np.ones(3))
