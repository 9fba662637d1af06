import math

import numpy as np
import pytest

from landausim.densities import GaussianMixtureModel, GaussianModel
from landausim.errors import ConfigError
from landausim.functionals import entropy, fisher_information
from landausim.reference import (MAXWELL_ANISOTROPY_RATE, aniso_gauss,
                                 bimodal, matched_maxwellian,
                                 maxwell_molecule_moment_ode, maxwellian,
                                 maxwellian_entropy, maxwellian_fisher,
                                 preset_names, resolve_preset)


# ---------------------------------------------------------------------------
# Presets

def test_preset_constructors_validate():
    with pytest.raises(ConfigError):
        maxwellian(0.0)
    with pytest.raises(ConfigError):
        aniso_gauss(1.0, -1.0, 1.0)
    with pytest.raises(ConfigError):
        bimodal(1.0, 0.0)


def test_preset_names_listed():
    assert preset_names() == ["aniso_gauss", "bimodal", "maxwellian"]


def test_resolve_preset_parses_strings():
    m = resolve_preset("maxwellian(2)")
    assert isinstance(m, GaussianModel)
    assert m.cov[0, 0] == 2.0
    a = resolve_preset(" aniso_gauss( 2, 0.5 , 0.5 ) ")
    np.testing.assert_array_equal(np.diag(a.cov), [2.0, 0.5, 0.5])
    b = resolve_preset("bimodal(3)")
    assert isinstance(b, GaussianMixtureModel)
    d = resolve_preset("maxwellian()")  # defaults apply
    assert d.cov[0, 0] == 1.0


@pytest.mark.parametrize("bad", [
    "maxwellian", "maxwellian(2", "unknown(1)", "maxwellian(a)",
    "aniso_gauss(1)", "maxwellian(1)(2)", "maxwellian(1,2)"])
def test_resolve_preset_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        resolve_preset(bad)


# ---------------------------------------------------------------------------
# Closed forms

@pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
def test_maxwellian_closed_forms_match_quadrature(T):
    assert entropy(maxwellian(T)).value == pytest.approx(
        maxwellian_entropy(T), rel=1e-6)
    assert fisher_information(maxwellian(T)).value == pytest.approx(
        maxwellian_fisher(T), rel=1e-6)


def test_maxwellian_entropy_explicit_value():
    # H(N(0, I3)) = -(3/2)(log(2 pi) + 1)
    assert maxwellian_entropy(1.0) == pytest.approx(
        -1.5 * (math.log(2.0 * math.pi) + 1.0), rel=1e-15)
    assert maxwellian_fisher(2.0) == 1.5


# ---------------------------------------------------------------------------
# gamma = 0 second-moment flow

def test_moment_ode_shape_and_time_broadcast():
    P0 = np.diag([2.0, 0.5, 0.5])
    out = maxwell_molecule_moment_ode(P0, [0.0, 0.1, 0.2])
    assert out.shape == (3, 3, 3)
    np.testing.assert_array_equal(out[0], P0)
    with pytest.raises(ConfigError):
        maxwell_molecule_moment_ode(np.eye(2), 0.0)


def test_moment_ode_trace_is_constant():
    P0 = np.array([[2.0, 0.3, 0.0], [0.3, 0.5, 0.1], [0.0, 0.1, 0.5]])
    t = np.linspace(0.0, 1.0, 11)
    P = maxwell_molecule_moment_ode(P0, t)
    traces = np.trace(P, axis1=-2, axis2=-1)
    np.testing.assert_allclose(traces, np.trace(P0), rtol=1e-15)


def test_moment_ode_satisfies_its_generator():
    # dP/dt at t = 0 equals -12 P0 + 4 tr(P0) Id (finite-difference check)
    P0 = np.array([[2.0, 0.3, 0.0], [0.3, 0.5, 0.1], [0.0, 0.1, 0.5]])
    h = 1e-7
    dP = (maxwell_molecule_moment_ode(P0, h)
          - maxwell_molecule_moment_ode(P0, -h)) / (2 * h)
    expect = -12.0 * P0 + 4.0 * np.trace(P0) * np.eye(3)
    np.testing.assert_allclose(dP, expect, rtol=1e-6, atol=1e-6)


def test_moment_ode_traceless_decay_rate():
    P0 = np.diag([2.0, 0.5, 0.5])
    iso = np.trace(P0) / 3.0 * np.eye(3)
    for t in (0.05, 0.1, 0.3):
        dev = maxwell_molecule_moment_ode(P0, t) - iso
        expect = math.exp(-MAXWELL_ANISOTROPY_RATE * t) * (P0 - iso)
        np.testing.assert_allclose(dev, expect, rtol=1e-12, atol=1e-15)


def test_moment_ode_fixed_point_is_isotropic():
    P0 = 1.7 * np.eye(3)
    np.testing.assert_array_equal(maxwell_molecule_moment_ode(P0, 5.0), P0)


# ---------------------------------------------------------------------------
# Matched Maxwellian

def test_matched_maxwellian_recovers_moments(rng):
    v = rng.normal(size=(20_000, 3)) * np.array([1.5, 0.8, 0.8]) + [1.0, 0, 0]
    m = matched_maxwellian(v)
    np.testing.assert_allclose(m.mean, v.mean(axis=0), atol=1e-12)
    w = v - v.mean(axis=0)
    T = float((w ** 2).sum(1).mean() / 3.0)
    assert m.cov[0, 0] == pytest.approx(T, rel=1e-12)


def test_matched_maxwellian_rejects_collapsed_cloud():
    with pytest.raises(ConfigError):
        matched_maxwellian(np.ones((10, 3)))
