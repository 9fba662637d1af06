import math

import numpy as np
import pytest

from landausim.densities import GaussianMixtureModel, GaussianModel
from landausim.dynamics import SimConfig, _PairWalk, init_iid, step
from landausim.errors import ConfigError
from landausim.functionals import entropy, fisher_information
from landausim.reference import (MAXWELL_ANISOTROPY_RATE, aniso_gauss,
                                 bimodal, matched_maxwellian,
                                 maxwell_molecule_moment_ode,
                                 maxwell_step_moments, maxwellian,
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
# gamma = 0 one-step moment map of the Euler scheme

def test_step_moments_map_one_step_and_powers():
    M0 = np.array([[2.0, 0.3, 0.0], [0.3, 0.5, 0.1], [0.0, 0.1, 0.5]])
    n, dt = 5, 0.03
    c = 4.0 * n * dt / (n - 1)
    one = (1.0 - 3.0 * c + c * c) * M0 + c * np.trace(M0) * np.eye(3)
    np.testing.assert_allclose(maxwell_step_moments(M0, n, dt, 1), one, rtol=1e-14)
    ks = maxwell_step_moments(M0, n, dt, np.arange(4))
    assert ks.shape == (4, 3, 3)
    M = M0
    for k in range(4):
        np.testing.assert_allclose(ks[k], M, rtol=1e-13, atol=1e-15)
        M = (1.0 - 3.0 * c + c * c) * M + c * np.trace(M) * np.eye(3)
    for bad in ((np.eye(2), n, dt, 1), (M0, 1, dt, 1), (M0, 2.0, dt, 1),
                (M0, n, 0.0, 1), (M0, n, math.nan, 1), (M0, n, dt, -1), (M0, n, dt, 0.5)):
        with pytest.raises(ConfigError):
            maxwell_step_moments(*bad)


def _scatter(v):
    u = v - v.mean(axis=0)
    return u.T @ u


def _dev(Ms):
    return Ms - np.trace(Ms, axis1=-2, axis2=-1)[..., None, None] / 3.0 * np.eye(3)


def _maxwell_runs(n, dt, steps, seeds):
    """(seeds, steps + 1, 3, 3): each seed's scatter matrix M_k after k steps
    of a gamma = 0 run of n particles from aniso_gauss(2,0.5,0.5), stepped
    without energy rescale."""
    walk = _PairWalk(n)
    Ms = np.empty((seeds, steps + 1, 3, 3))
    for seed in range(seeds):
        cfg = SimConfig(n_particles=n, gamma=0.0, dt=dt, t_end=steps * dt, seed=seed,
                        g0="aniso_gauss(2,0.5,0.5)")
        state = init_iid(cfg)
        Ms[seed, 0] = _scatter(state.v)
        for k in range(1, steps + 1):
            state = step(state, cfg, walk=walk)
            Ms[seed, k] = _scatter(state.v)
    return Ms


def _z(residuals):
    """The mean over seeds (axis 0) in standard errors."""
    se = residuals.std(axis=0, ddof=1) / math.sqrt(residuals.shape[0])
    return residuals.mean(axis=0) / se


@pytest.fixture(scope="module", ids=["n4", "n16"],
                # (n, dt, steps, seeds): a large and a moderate c = 4 n dt / (n - 1)
                params=[(4, 0.05, 10, 1000), (16, 0.02, 10, 2000)])
def maxwell(request):
    """(n, dt, steps) and the runs of one case, made once per module."""
    return request.param[:3], _maxwell_runs(*request.param)


def test_step_moments_match_the_step_seed_by_seed(maxwell):
    (n, dt, steps), Ms = maxwell
    resid = Ms[:, -1] - np.array([maxwell_step_moments(M0, n, dt, steps) for M0 in Ms[:, 0]])
    iu = np.triu_indices(3)
    assert np.all(np.abs(_z(resid[:, iu[0], iu[1]])) <= 3.0)
    assert abs(_z(np.trace(resid, axis1=1, axis2=2))) <= 3.0


def test_step_moments_reject_the_continuum_rate(maxwell):
    # one step shrinks dev M by 1 - 3c + c^2; the continuum flow over dt
    # would shrink it by exp(-12 n dt/(n-1)) = exp(-3c)
    (n, dt, _), Ms = maxwell
    c = 4.0 * n * dt / (n - 1)
    dev0, dev1 = _dev(Ms[:, 0])[:, 0, 0], _dev(Ms[:, 1])[:, 0, 0]
    assert abs(_z(dev1 - (1.0 - 3.0 * c + c * c) * dev0)) <= 3.0
    assert _z(dev1 - math.exp(-3.0 * c) * dev0) < -5.0


def test_step_trace_grows_by_one_plus_c_squared_per_step(maxwell):
    (n, dt, steps), Ms = maxwell
    c = 4.0 * n * dt / (n - 1)
    tr = np.trace(Ms, axis1=-2, axis2=-1)
    growth = tr[:, -1] - tr[:, 0]
    assert _z(growth) > 10.0  # the growth is seen ...
    assert abs(_z(growth - ((1.0 + c * c) ** steps - 1.0) * tr[:, 0])) <= 3.0  # ... at its rate


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
