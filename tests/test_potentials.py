import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import landausim as ls
from landausim.errors import ConfigError
from landausim.potentials import (CHI_PLATEAU, PotentialSpec, a_matrix,
                                  alpha_reg, chi, chi_eta,
                                  chi_prime, cross_kernels, default_eta,
                                  diffusion_sigmaN, drift_bN,
                                  ratio_condition_margin)

finite3 = st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=3,
                   max_size=3).map(np.array)


# ---------------------------------------------------------------------------
# chi profile

def test_chi_plateau_and_linear_ranges():
    assert chi(0.0) == CHI_PLATEAU
    assert chi(0.5) == CHI_PLATEAU
    assert chi(0.98) == CHI_PLATEAU
    assert chi(1.0) == 1.0
    assert chi(2.0) == 2.0
    assert chi(17.3) == 17.3


def test_chi_transition_integrates_to_gap():
    # chi(1) - chi(0.98) must equal the full blend integral 0.01 exactly
    assert chi(1.0) - chi(0.98) == pytest.approx(0.01, abs=1e-16)


def test_chi_prime_range_and_endpoints():
    r = np.linspace(0.0, 3.0, 2001)
    d = chi_prime(r)
    assert np.all(d >= 0.0)
    assert np.all(d <= 1.0)
    assert chi_prime(0.97) == 0.0
    assert chi_prime(1.0) == 1.0
    assert chi_prime(1.5) == 1.0
    assert chi_prime(0.99) == pytest.approx(0.5, rel=1e-12)  # blend midpoint


def test_chi_is_c2_at_the_joints():
    from landausim.smoothstep import smoothstep_d1

    for joint in (0.98, 1.0):
        # chi and chi' continuous: one-sided FD slopes agree with chi'
        for h in (1e-4, 1e-5):
            left = (chi(joint) - chi(joint - h)) / h
            right = (chi(joint + h) - chi(joint)) / h
            assert abs(left - chi_prime(joint)) < 5e-4
            assert abs(right - chi_prime(joint)) < 5e-4
    # chi'' = s'((r - 0.98)/0.02)/0.02 inside the blend and 0 outside; it
    # vanishes at both ends of the blend, so chi'' is continuous (value 0)
    for r in (0.98 + 1e-6, 1.0 - 1e-6):
        d2_inside = smoothstep_d1((r - 0.98) / 0.02) / 0.02
        assert abs(d2_inside) < 1e-4
    assert smoothstep_d1(0.0) == 0.0
    assert smoothstep_d1(1.0) == 0.0


@given(st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=10.0))
def test_chi_monotone_and_dominating(r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)
    assert chi(lo) <= chi(hi)
    assert chi(hi) >= max(CHI_PLATEAU, hi)


@given(st.floats(min_value=1e-3, max_value=5.0),
       st.floats(min_value=1e-3, max_value=20.0))
def test_chi_eta_scaling(eta, r):
    assert chi_eta(eta, r) == pytest.approx(eta * chi(r / eta), rel=1e-15)


# ---------------------------------------------------------------------------
# PotentialSpec validation and the ratio condition

def test_spec_validation():
    with pytest.raises(ConfigError):
        PotentialSpec(gamma=0.5, eta=0.1)
    with pytest.raises(ConfigError):
        PotentialSpec(gamma=-3.5, eta=0.1)
    with pytest.raises(ConfigError):
        PotentialSpec(gamma=-2.0, eta=0.0)
    with pytest.raises(ConfigError):
        PotentialSpec(gamma=-2.0, eta=-1.0)
    with pytest.raises(ConfigError):
        PotentialSpec(gamma=-2.0, eta=0.1, theta=1.2)


def test_theta_floor_is_enforced():
    # theta must exceed -gamma/sqrt(22) for the ratio condition to hold
    bad = -3.0 / math.sqrt(22.0) * 0.5
    with pytest.raises(ConfigError):
        PotentialSpec(gamma=-3.0, eta=0.1, theta=bad)


@pytest.mark.parametrize("gamma,theta", [
    (-2.0, 0.99), (-3.0, 0.99), (-2.5, 0.7), (-3.0, 1.0), (-2.0, 0.5)])
def test_ratio_condition_margin(gamma, theta):
    spec = PotentialSpec(gamma=gamma, eta=0.1, theta=theta)
    assert ratio_condition_margin(spec) <= 1e-12


def test_ratio_condition_sharp_at_theta_one():
    # sup r |alpha'| / alpha equals exactly -gamma on the power-law range,
    # so theta = 1 sits exactly on the boundary
    spec = PotentialSpec(gamma=-3.0, eta=0.1, theta=1.0)
    m = ratio_condition_margin(spec)
    assert -1e-12 <= m <= 1e-12


# ---------------------------------------------------------------------------
# alpha

def test_alpha_reg_spot_values():
    spec = PotentialSpec(gamma=-3.0, eta=0.1)
    assert alpha_reg(spec, 0.2) == pytest.approx(125.0, rel=1e-14)
    # below the cutoff the kernel saturates at (0.99 eta)^gamma
    cap = (0.99 * 0.1) ** -3.0
    assert alpha_reg(spec, 1e-6) == pytest.approx(cap, rel=1e-12)
    assert alpha_reg(spec, 0.0) == pytest.approx(cap, rel=1e-12)


def test_alpha_reg_gamma_zero_is_one():
    spec = PotentialSpec(gamma=0.0, eta=0.1)
    r = np.array([0.0, 1e-9, 0.5, 3.0])
    assert np.all(alpha_reg(spec, r) == 1.0)


@pytest.mark.parametrize("gamma", [-1.0, -2.0, -3.0])
def test_alpha_reg_integer_powers_match_np_power(gamma):
    # the products and one division stay within rel 1e-15 of np.power, in the
    # power-law range, in the chi_eta band, on the plateau and at r = 0
    eta = 0.1
    rng = np.random.default_rng(3)
    r = np.concatenate([[0.0], rng.uniform(0.0, 2.0 * eta, 499_999),
                        np.exp(rng.uniform(math.log(1e-6), math.log(1e3), 500_000))])
    want = np.power(np.where(r < eta, chi_eta(eta, r), r), gamma)
    np.testing.assert_allclose(alpha_reg(PotentialSpec(gamma, eta), r), want,
                               rtol=1e-15, atol=0)


def test_alpha_reg_scalar_array_consistency():
    spec = PotentialSpec(gamma=-2.5, eta=0.3)
    r = np.array([0.01, 0.2, 0.31, 5.0])
    arr = alpha_reg(spec, r)
    for i, ri in enumerate(r):
        assert alpha_reg(spec, float(ri)) == arr[i]


@pytest.mark.parametrize("gamma", [0.0, -1.0, -3.0])
def test_alpha_reg_writes_into_out(gamma):
    spec = PotentialSpec(gamma=gamma, eta=0.3)
    r = np.array([0.0, 0.01, 0.2, 0.31, 5.0])
    out = np.full_like(r, np.nan)
    assert alpha_reg(spec, r, out=out) is out
    np.testing.assert_array_equal(out, alpha_reg(spec, r))


@given(st.floats(min_value=1e-4, max_value=10.0))
def test_alpha_reg_capped_by_bare(r):
    spec = PotentialSpec(gamma=-2.0, eta=0.2)
    assert alpha_reg(spec, r) <= r ** -2.0 * (1 + 1e-14)


def test_alpha_reg_monotone_in_eta_pointwise():
    # shrinking eta raises alpha everywhere (shared r grid, exact comparison)
    r = np.linspace(1e-4, 2.0, 500)
    a_small = alpha_reg(PotentialSpec(gamma=-2.0, eta=0.05), r)
    a_large = alpha_reg(PotentialSpec(gamma=-2.0, eta=0.4), r)
    assert np.all(a_small >= a_large)


def test_alpha_reg_decreasing_in_r():
    spec = PotentialSpec(gamma=-2.0, eta=0.1)
    r = np.linspace(1e-3, 3.0, 1000)
    a = alpha_reg(spec, r)
    assert np.all(np.diff(a) <= 1e-15)


def test_default_eta_rule_and_clipping():
    assert default_eta(256) == pytest.approx(256 ** -0.25, rel=1e-15)
    assert default_eta(2, c=1.0) <= 1.0
    assert default_eta(10 ** 20) == 1e-4   # lower clip
    assert default_eta(2, c=100.0) == 1.0  # upper clip


# ---------------------------------------------------------------------------
# kernel algebra

def test_cross_kernels_standard_basis():
    B = cross_kernels(np.array([[0.0, 0.0, 1.0]]))[0]   # z = e3
    np.testing.assert_allclose(B[0], [0.0, -1.0, 0.0])  # e1 x e3 = -e2
    np.testing.assert_allclose(B[1], [1.0, 0.0, 0.0])   # e2 x e3 = e1
    np.testing.assert_allclose(B[2], [0.0, 0.0, 0.0])   # e3 x e3 = 0
    np.testing.assert_allclose(a_matrix(np.array([[0, 0, 1.0]]))[0],
                               np.diag([1.0, 1.0, 0.0]))


@given(finite3)
def test_kernel_decomposition_of_a(z):
    B = cross_kernels(z[None])[0]
    a = a_matrix(z[None])[0]
    rebuilt = sum(np.outer(B[k], B[k]) for k in range(3))
    assert np.max(np.abs(rebuilt - a)) <= 1e-12 * max(1.0, float(z @ z))


@given(finite3)
def test_a_annihilates_z(z):
    a = a_matrix(z[None])[0]
    assert np.max(np.abs(a @ z)) <= 1e-12 * max(1.0, float(z @ z) ** 1.5)


@given(finite3)
def test_sigma_squares_to_alpha_a(z):
    spec = PotentialSpec(gamma=-2.0, eta=0.1)
    sig = diffusion_sigmaN(spec, z[None])[0]
    r = float(np.linalg.norm(z))
    target = alpha_reg(spec, r) * a_matrix(z[None])[0] if r > 0 else np.zeros((3, 3))
    scale = max(1.0, float(np.max(np.abs(target))))
    assert np.max(np.abs(sig @ sig - target)) <= 1e-11 * scale
    # sigma is symmetric and annihilates z
    assert np.max(np.abs(sig - sig.T)) == 0.0
    assert np.max(np.abs(sig @ z)) <= 1e-11 * scale


def test_drift_form():
    spec = PotentialSpec(gamma=-2.0, eta=0.1)
    z = np.array([[0.3, -0.4, 1.2], [0.0, 0.0, 0.0]])
    b = drift_bN(spec, z)
    r0 = np.linalg.norm(z[0])
    np.testing.assert_allclose(b[0], -2.0 * alpha_reg(spec, r0) * z[0], rtol=1e-14)
    np.testing.assert_allclose(b[1], 0.0)


def test_radial_annihilation_by_pair_fields():
    # (b_k, -b_k) . (grad_1, grad_2) g(|v - w|) = 0 since b_k is orthogonal
    # to z = v - w; finite-difference check on a smooth radial g
    rng = np.random.default_rng(5)
    g = lambda v, w: np.exp(-0.5 * np.sum((v - w) ** 2, axis=-1))
    for _ in range(20):
        v, w = rng.normal(size=3), rng.normal(size=3)
        B = cross_kernels((v - w)[None])[0]
        h = 1e-6
        for k in range(3):
            d = (g(v + h * B[k], w - h * B[k]) - g(v - h * B[k], w + h * B[k])) / (2 * h)
            assert abs(d) < 1e-6
