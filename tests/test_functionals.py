import json
import math
import tracemalloc

import numpy as np
import pytest

from landausim.cli import main as cli_main
from landausim.densities import (DensityModel, GaussianModel, ScaledModel,
                                 ShiftedModel, TensorPower, grid_integrate)
from landausim.errors import CapabilityError, ConfigError, CoverageError
from landausim import functionals
from landausim.functionals import (MCSpec, J_functional, _MC_BLOCK, _PairBatch,
                                   beta_power_identity_probes, entropy,
                                   entropy_production_D, fisher_information,
                                   grid_functionals, k_family, tensor_consistency_D)
from landausim.potentials import PotentialSpec, alpha_reg, cross_kernels
from landausim.reference import (bimodal, maxwellian, maxwellian_entropy,
                                 maxwellian_fisher, resolve_preset)

from _oracles import ANISO_GM2, ANISO_GM3


def _agree(est, truth, tol):
    """MC estimate matches a frozen reference within max(4 SE, tol)."""
    return abs(est.value - truth) <= max(4.0 * est.abs_error, tol)


# ---------------------------------------------------------------------------
# Entropy and Fisher information (quadrature vs closed forms)

@pytest.mark.parametrize("sigma2", [0.25, 1.0, 4.0])
def test_entropy_fisher_closed_forms(sigma2):
    m = maxwellian(sigma2)
    h = entropy(m)
    assert h.method == "grid"
    assert h.value == pytest.approx(maxwellian_entropy(sigma2), rel=1e-6)
    assert abs(h.value - maxwellian_entropy(sigma2)) <= max(h.abs_error, 1e-6)
    i = fisher_information(m)
    assert i.value == pytest.approx(maxwellian_fisher(sigma2), rel=1e-6)


def test_entropy_zero_crossing_temperature():
    # H vanishes exactly at sigma2 = 1/(2 pi e)
    sigma2 = 1.0 / (2.0 * math.pi * math.e)
    assert maxwellian_entropy(sigma2) == pytest.approx(0.0, abs=1e-15)
    assert abs(entropy(maxwellian(sigma2)).value) < 1e-6


@pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
def test_entropy_fisher_scaling_laws(lam):
    base = maxwellian(1.0)
    scaled = ScaledModel(base, lam)
    h0, h1 = entropy(base).value, entropy(scaled).value
    assert h1 - h0 == pytest.approx(3.0 * math.log(lam), abs=1e-6)
    i0, i1 = fisher_information(base).value, fisher_information(scaled).value
    assert i1 == pytest.approx(lam ** 2 * i0, rel=1e-6)


def test_entropy_fisher_tensor_delegation(aniso):
    pair = TensorPower(aniso, 2)
    assert entropy(pair).value == entropy(aniso).value
    assert fisher_information(pair).value == fisher_information(aniso).value


def test_grid_functionals_reject_high_dim():
    six_dim = GaussianModel(np.zeros(6), 1.0)  # not a TensorPower
    with pytest.raises(CapabilityError):
        entropy(six_dim)


# (H, abs_error of H, I, abs_error of I) from separate mass, H and I grid
# passes; the slab sums use no BLAS, so these bits hold at any BLAS thread
# count, while numpy's exp and log differ in the last bits between SIMD
# dispatch targets: with AVX-512 dispatch off, only bimodal(3)'s I
# abs_error moves, by 4.4e-16.  So the values are compared at rel=1e-12 and
# the ~1e-8 errors at abs=1e-15 (a default abs=1e-12 would check them only
# to about 1e-4 relative)
_FROZEN_GRID = {
    "maxwellian(1)": (-4.2568155744192335, 1.0647265751168871e-08,
                      2.9999999553019205, 9.745518472574427e-09),
    "aniso_gauss(2,0.5,0.5)": (-3.9102419844969343, 9.921264851579565e-09,
                               4.49999993295279, 1.461821331592603e-08),
    "bimodal(3)": (-4.783592884591827, 1.1577642459199526e-08,
                   2.556204332995628, 8.53402099279508e-09),
}


def _separate_passes(model, name):
    """H or I as one functional per grid pass computes it: a mass pass, then
    fine and half-resolution passes over the one integrand."""
    if name == "H":
        def integrand(X):
            logf = model.log_density(X)
            f = np.exp(logf)
            return np.where(f > 0.0, f * logf, 0.0)
    else:
        def integrand(X):
            g = model.log_grad(X)
            return model.density(X) * np.sum(g * g, axis=1)
    lo, hi = model.bounding_box(1e-9)
    assert abs(grid_integrate(model.density, lo, hi, 129) - 1.0) <= 1e-6
    val = grid_integrate(integrand, lo, hi, 129)
    err = abs(val - grid_integrate(integrand, lo, hi, 65)) + 2.0 * 1e-9 * max(1.0, abs(val))
    return val, err


@pytest.mark.parametrize("preset", sorted(_FROZEN_GRID))
def test_grid_functionals_match_separate_passes(preset):
    model = resolve_preset(preset)
    h, i = grid_functionals(model).values()
    got = (h.value, h.abs_error, i.value, i.abs_error)
    assert got == _separate_passes(model, "H") + _separate_passes(model, "I")
    want = _FROZEN_GRID[preset]
    assert got[0::2] == pytest.approx(want[0::2], rel=1e-12, abs=0)
    assert got[1::2] == pytest.approx(want[1::2], rel=0, abs=1e-15)
    assert h.n == i.n == 129**3
    assert entropy(model) == h
    assert fisher_information(model) == i


def test_cli_makes_one_fine_and_one_coarse_grid_pass(monkeypatch, capsys):
    seen = []
    real = functionals.grid_integrate
    monkeypatch.setattr(functionals, "grid_integrate",
                        lambda fn, lo, hi, n, **kw: seen.append(n) or real(fn, lo, hi, n, **kw))
    assert cli_main(["functionals", "--preset", "aniso_gauss(2,0.5,0.5)",
                     "--which", "H,I"]) == 0
    assert [r["functional"] for r in map(json.loads, capsys.readouterr().out.splitlines())] \
        == ["H", "I"]
    assert seen == [129, 65]


def test_entropy_never_evaluates_the_log_gradient(monkeypatch):
    model = bimodal(3.0)
    monkeypatch.setattr(model, "log_grad", lambda X: pytest.fail("log_grad called"))
    assert entropy(model).value == _separate_passes(bimodal(3.0), "H")[0]


# ---------------------------------------------------------------------------
# Maxwellian null structure

@pytest.mark.parametrize("sigma2", [0.5, 1.0, 2.0])
def test_maxwellian_annihilates_pair_functionals(sigma2, pot_gm2):
    # dyadic temperatures make the pair fields vanish identically in floating
    # point, so the estimates and their standard errors are exactly zero
    pair = TensorPower(maxwellian(sigma2), 2)
    mc = MCSpec(50_000, 7)
    for est in (entropy_production_D(pair, pot_gm2, mc),
                J_functional(pair, pot_gm2, mc),
                k_family(pair, [1.0], pot_gm2, mc).estimates[1.0]):
        assert est.value == 0.0
        assert est.abs_error == 0.0


def test_maxwellian_nondyadic_temperature_is_roundoff_null(pot_gm2):
    # at other temperatures the null survives only up to rounding; the
    # residual scale is ~1e-32, negligible against any physical value
    pair = TensorPower(maxwellian(0.7), 2)
    est = k_family(pair, [1.0], pot_gm2, MCSpec(20_000, 7)).estimates[1.0]
    assert 0.0 <= est.value < 1e-28


# ---------------------------------------------------------------------------
# Frozen references for an anisotropic Gaussian (independent quadrature)

def test_D_matches_reference_gm2(aniso_pair, pot_gm2):
    est = entropy_production_D(aniso_pair, pot_gm2, MCSpec(400_000, 12))
    assert _agree(est, ANISO_GM2["D"], ANISO_GM2["D_tol"] + 4 * est.abs_error)
    assert est.method == "mc" and est.n + est.n_rejected == 400_000


def test_J_matches_reference_gm2(aniso_pair, pot_gm2):
    est = J_functional(aniso_pair, pot_gm2, MCSpec(400_000, 12))
    assert _agree(est, ANISO_GM2["J"], ANISO_GM2["J_tol"] + 4 * est.abs_error)


@pytest.fixture(scope="module")
def k_gm2(aniso_pair, pot_gm2):
    # each K_beta of a family has the bits of a one-beta family on the same seed
    return k_family(aniso_pair, [0.0, 1.0 / 3.0, 0.5, 1.0], pot_gm2, MCSpec(400_000, 12))


@pytest.mark.parametrize("beta", [0.0, 1.0 / 3.0, 0.5, 1.0])
def test_K_matches_reference_gm2(k_gm2, beta):
    est = k_gm2.estimates[beta]
    assert _agree(est, ANISO_GM2["K"][beta], ANISO_GM2["K_tol"])


def test_DJK_match_reference_gm3(aniso_pair, pot_gm3):
    mc = MCSpec(400_000, 13)
    d = entropy_production_D(aniso_pair, pot_gm3, mc)
    j = J_functional(aniso_pair, pot_gm3, mc)
    k0 = k_family(aniso_pair, [0.0], pot_gm3, mc).estimates[0.0]
    assert _agree(d, ANISO_GM3["D"], ANISO_GM3["D_tol"] + 4 * d.abs_error)
    assert _agree(j, ANISO_GM3["J"], ANISO_GM3["J_tol"] + 4 * j.abs_error)
    assert _agree(k0, ANISO_GM3["K"][0.0], ANISO_GM3["K_tol"])


def test_D_estimates_reproducible_across_seeds(aniso_pair, pot_gm2):
    a = entropy_production_D(aniso_pair, pot_gm2, MCSpec(200_000, 1))
    b = entropy_production_D(aniso_pair, pot_gm2, MCSpec(200_000, 2))
    joint = math.hypot(a.abs_error, b.abs_error)
    assert abs(a.value - b.value) <= 4.0 * joint
    # same seed, same estimate, bit for bit
    c = entropy_production_D(aniso_pair, pot_gm2, MCSpec(200_000, 1))
    assert c.value == a.value


def test_D_accepts_single_particle_density(aniso, aniso_pair, pot_gm2):
    # k_family promotes a 3D model to its pair tensor, so D, J and K take it;
    # the two calls share nothing but the seed, which fully determines the
    # sample, so the estimates coincide
    mc = MCSpec(50_000, 4)
    for fn in (entropy_production_D, J_functional,
               lambda model, pot, mc: k_family(model, [0.5], pot, mc).estimates[0.5]):
        assert fn(aniso, pot_gm2, mc) == fn(aniso_pair, pot_gm2, mc)


# ---------------------------------------------------------------------------
# The K_beta family: quadratic-in-beta structure and the sandwich bounds

def test_k_family_quadratic_identity(aniso_pair, pot_gm2):
    fam = k_family(aniso_pair, [0.0, 0.5, 1.0], pot_gm2, MCSpec(200_000, 21))
    for beta in (0.0, 0.5, 1.0):
        res = fam.residual(beta)
        assert abs(res.value) <= max(4.0 * res.abs_error, 1e-12)
    # anchoring at beta = 1 instead of 1/3 must not change the conclusion:
    # K_beta - K_1 - [(beta-1/3)^2 - (2/3)^2] J estimates zero as well
    arr = (fam._samples[0.0] - fam._samples[1.0]
           - ((0.0 - 1 / 3) ** 2 - (1.0 - 1 / 3) ** 2) * fam._samples["J"])
    se = float(np.std(arr, ddof=1) / math.sqrt(fam.n))
    assert abs(float(np.mean(arr))) <= max(4.0 * se, 1e-12)


def test_k_family_sandwich_bounds(aniso_pair, pot_gm2):
    betas = [0.0, 0.25, 0.5, 0.75, 1.0]
    fam = k_family(aniso_pair, betas, pot_gm2, MCSpec(200_000, 22))
    k1 = fam.estimates[1.0]
    for beta in betas:
        kb = fam.estimates[beta]
        lower = 2.25 * (beta - 1.0 / 3.0) ** 2 * k1.value
        slack = 4.0 * (kb.abs_error + k1.abs_error)
        assert kb.value >= lower - slack
        assert kb.value <= k1.value + slack


def test_k_family_always_contains_the_anchor(aniso_pair, pot_gm2):
    fam = k_family(aniso_pair, [0.0], pot_gm2, MCSpec(10_000, 3))
    assert 1.0 / 3.0 in fam.estimates
    d = fam.difference(0.0, 1.0 / 3.0)
    assert d.value == pytest.approx(
        fam.estimates[0.0].value - fam.estimates[1 / 3].value, rel=1e-12)


@pytest.mark.parametrize("beta", [-0.1, 1.5, float("nan")])
def test_k_family_rejects_beta_out_of_range(aniso_pair, pot_gm2, beta):
    with pytest.raises(ConfigError):
        k_family(aniso_pair, [0.0, beta], pot_gm2, MCSpec(100, 0))


@pytest.mark.parametrize("n_samples, seed", [(0, 0), (1, 0), (-5, 0), (100.0, 0),
                                             (100, -1), (100, 0.5)])
def test_mcspec_rejects_bad_budgets(n_samples, seed):
    with pytest.raises(ConfigError):
        MCSpec(n_samples, seed)


# ---------------------------------------------------------------------------
# Integration by parts: int (ddF)(dF)^2/F^2 = (2/3) J.  Per sample,
# residual(beta) is (2 beta - 2/3) times int (ddF)(dF)^2/F^2 - (2/3) J

def _ibp_residual(model, pot, mc):
    return k_family(model, [1.0], pot, mc).residual(1.0)


def test_ibp_identity_normalized_scalar(aniso_pair, pot_gm2):
    fam = k_family(aniso_pair, [0.0, 1.0], pot_gm2, MCSpec(200_000, 31))
    res = fam.residual(1.0)
    assert abs(res.value) <= 4.0 * res.abs_error
    # the IBP residual normalized by J, (3/4) residual(1) / J, is resolved
    # to better than 1 %
    assert 0.75 * res.abs_error / fam.J.value < 0.01
    # the per-sample scaling: residual(0) / (-2/3) == residual(1) / (4/3)
    assert fam.residual(0.0).value / (-2.0 / 3.0) == pytest.approx(
        res.value / (4.0 / 3.0), rel=1e-9)


def test_ibp_residual_se_shrinks_like_sqrt_n(aniso_pair, pot_gm2):
    small = _ibp_residual(aniso_pair, pot_gm2, MCSpec(20_000, 5))
    big = _ibp_residual(aniso_pair, pot_gm2, MCSpec(320_000, 5))
    shrink = small.abs_error / big.abs_error
    assert shrink == pytest.approx(4.0, rel=0.15)  # sqrt(16) with CLT noise


def test_ibp_residual_averages_down_across_seeds(aniso_pair, pot_gm2):
    # seed-averaged residual means behave like independent zero-mean draws:
    # their spread matches the reported SE scale
    vals, ses = [], []
    for seed in range(16):
        res = _ibp_residual(aniso_pair, pot_gm2, MCSpec(20_000, seed))
        vals.append(res.value)
        ses.append(res.abs_error)
    vals = np.array(vals)
    pooled_mean = vals.mean()
    pooled_se = float(np.mean(ses)) / math.sqrt(16)
    assert abs(pooled_mean) <= 4.0 * pooled_se


# ---------------------------------------------------------------------------
# Structural identities evaluated pointwise / on shared samples

def test_beta_power_identity_probes(aniso_pair, pot_gm2, rng):
    X = aniso_pair.sample(rng, 10_000)
    for beta in (0.0, 1.0 / 3.0, 0.5, 1.0):
        assert beta_power_identity_probes(aniso_pair, pot_gm2, beta, X) <= 1e-12


def test_eta_monotonicity_on_shared_samples(aniso_pair, rng):
    # shrinking eta raises alpha pointwise, hence every per-sample D value
    X = aniso_pair.sample(rng, 20_000)

    def shared_D(pot):
        return float(np.mean(_PairBatch(aniso_pair, pot, X).d_samples()))

    vals = [shared_D(PotentialSpec(-2.0, eta)) for eta in (0.4, 0.2, 0.1, 0.05)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # and the bare kernel dominates every regularized value: below the 1e-12
    # singular cutoff, eta leaves r**gamma on every kept sample
    bare = shared_D(PotentialSpec(-2.0, 1e-13))
    assert bare >= vals[-1]


def test_J_translation_invariance(aniso, pot_gm2):
    # J only sees velocity differences and log-density gradients, both
    # translation covariant; with a shared seed the shifted sample is the
    # base sample plus the shift, so the estimates match to rounding
    base_pair = TensorPower(aniso, 2)
    moved_pair = TensorPower(ShiftedModel(aniso, [1.0, -2.0, 0.5]), 2)
    mc = MCSpec(100_000, 17)
    a = J_functional(base_pair, pot_gm2, mc)
    b = J_functional(moved_pair, pot_gm2, mc)
    assert b.value == pytest.approx(a.value, rel=1e-9)


@pytest.mark.parametrize("j", [2, 3])
def test_tensor_consistency_is_exact(aniso, pot_gm2, j):
    est_j, est_pair = tensor_consistency_D(aniso, j, pot_gm2, MCSpec(30_000, 9))
    assert est_j.value == est_pair.value
    assert est_j.abs_error == est_pair.abs_error
    assert est_j.n == est_pair.n


def test_tensor_consistency_rejects_j_one(aniso, pot_gm2):
    with pytest.raises(ValueError):
        tensor_consistency_D(aniso, 1, pot_gm2, MCSpec(100, 0))


@pytest.mark.parametrize("dim", [2, 4])
def test_pair_functionals_reject_a_model_off_r3n(dim, pot_gm2):
    # a 3D model is promoted to its pair tensor; a model on no R^{3n} is refused
    model = GaussianModel(np.zeros(dim), 1.0)
    for fn in (entropy_production_D, J_functional,
               lambda model, pot, mc: k_family(model, [0.5], pot, mc)):
        with pytest.raises(CapabilityError):
            fn(model, pot_gm2, MCSpec(100, 0))


# ---------------------------------------------------------------------------
# Lean pair fields against the stored-kernel formulation

def _stacked_kernel_fields(model, X):
    """u1, u2 as written with the (n, 3, 3) kernel stack, one zeroed full
    direction buffer per k, and the curvature field e_k x b_k by np.cross."""
    z = X[:, 0:3] - X[:, 3:6]
    B = cross_kernels(z)
    grad = model.log_grad(X)
    gdiff = grad[:, 0:3] - grad[:, 3:6]
    u1 = np.einsum("nkc,nc->nk", B, gdiff)
    u2 = np.zeros_like(u1)
    for k in range(3):
        U = np.zeros((X.shape[0], model.dim))
        U[:, 0:3] = B[:, k, :]
        U[:, 3:6] = -B[:, k, :]
        curv = 2.0 * np.einsum("nc,nc->n", np.cross(np.eye(3)[k], B[:, k, :]), gdiff)
        u2[:, k] = model.log_hess_quadform(X, U) + curv
    return u1, u2


def _full_covariance_pair():
    a = np.array([[1.0, 0.2, 0.0, 0.3, 0.0, 0.1],
                  [0.0, 0.8, 0.1, 0.0, -0.2, 0.0],
                  [0.1, 0.0, 1.2, 0.0, 0.1, -0.3],
                  [0.0, 0.3, 0.0, 0.9, 0.0, 0.2],
                  [0.2, 0.0, -0.1, 0.1, 1.1, 0.0],
                  [0.0, 0.1, 0.0, -0.2, 0.0, 0.7]])
    return GaussianModel([0.3, -0.2, 0.1, -0.4, 0.0, 0.5], a @ a.T)


@pytest.mark.parametrize("make_model", [lambda: TensorPower(bimodal(3.0), 2),
                                        _full_covariance_pair],
                         ids=["bimodal_pair", "full_cov_gaussian"])
def test_lean_fields_match_stacked_kernels(make_model, pot_gm2):
    model = make_model()
    X = model.sample(np.random.default_rng(11), 4000)
    batch = _PairBatch(model, pot_gm2, X)
    u1, u2 = _stacked_kernel_fields(model, X)
    np.testing.assert_allclose(batch.u1, u1, rtol=1e-12)
    np.testing.assert_allclose(batch.u2, u2, rtol=1e-12)


def _row_wise_fields(model, pot, X):
    """The pair fields as numpy's row-wise forms give them (np.sum over
    axis 1, np.cross, (n, 3) slice differences): the reference for the
    column-by-column _PairBatch."""
    z = X[:, 0:3] - X[:, 3:6]
    r = np.sqrt(np.sum(z * z, axis=1))
    keep = r >= 1e-12
    X, z, r = X[keep], z[keep], r[keep]
    alpha = alpha_reg(pot, r)
    w4 = alpha / (r * r)
    grad = model.log_grad(X)
    g = grad[:, 0:3] - grad[:, 3:6]
    u1 = np.cross(z, g)
    u1sq = u1 * u1
    u2 = np.zeros_like(u1)
    U = np.zeros((model.dim, X.shape[0])).T
    for k in range(3):
        a, b = (k + 1) % 3, (k + 2) % 3
        U[:, k], U[:, a], U[:, b] = 0.0, -z[:, b], z[:, a]
        np.negative(U[:, 0:3], out=U[:, 3:6])
        curv = -2.0 * sum(z[:, c] * g[:, c] for c in range(3) if c != k)
        u2[:, k] = model.log_hess_quadform(X, U) + curv
    fields = {"r": r, "alpha": alpha, "w4": w4, "u1": u1, "u1sq": u1sq, "u2": u2,
              "D": 0.5 * alpha * np.sum(u1sq, axis=1),
              "J": w4 * np.sum(u1sq * u1sq, axis=1)}
    for beta in (0.0, 0.5, 1.0):
        core = u2 + beta * u1sq
        fields[beta] = w4 * np.sum(core * core, axis=1)
    return fields


def test_row_sum_has_the_bits_of_numpys_sum():
    v = np.array([-0.0, 0.0, 1e16, -1e16, 1.0, 1e-300, np.inf, -np.inf, np.nan])
    rows = np.stack(np.meshgrid(v, v, v, indexing="ij"), axis=-1).reshape(-1, 3)
    with np.errstate(invalid="ignore"):
        for k in (1, 2, 3):
            for a in (rows[:, :k], np.asfortranarray(rows[:, :k])):
                assert functionals._row_sum(a).tobytes() == np.sum(a, axis=1).tobytes()


@pytest.mark.parametrize("make_model", [lambda: TensorPower(bimodal(3.0), 2),
                                        _full_covariance_pair],
                         ids=["bimodal_pair", "full_cov_gaussian"])
def test_column_pair_fields_have_the_bits_of_the_row_wise_forms(make_model, pot_gm2):
    model = make_model()
    X = model.sample(np.random.default_rng(12), 5000)
    X[[3, 400], 3:6] = X[[3, 400], 0:3]  # two rejected pairs
    X[7, 0:2] = X[7, 3:5]                # a pair with two zero components
    batch = _PairBatch(model, pot_gm2, X)
    got = {"r": batch.r, "alpha": batch.alpha, "w4": batch.w4, "u1": batch.u1,
           "u1sq": batch.u1sq, "u2": batch.u2, "D": batch.d_samples(),
           "J": batch.j_samples()}
    got.update((beta, batch.k_samples(beta)) for beta in (0.0, 0.5, 1.0))
    expect = _row_wise_fields(model, pot_gm2, X)
    assert batch.n_rejected == 2
    for name, val in expect.items():
        assert val.shape == got[name].shape, name
        assert np.ascontiguousarray(got[name]).tobytes() == np.ascontiguousarray(val).tobytes(), name


# k_family([0, 1/3, 1]) at seed 17 over 40,000 samples (two full 16,384-row
# blocks and one partial block), pinned bit for bit: (value, abs_error) of D,
# J and each K_beta.  The fields are column-wise products and sums, one sqrt
# and BLAS products of three terms, so these bits also hold at two BLAS
# threads and with AVX-512 dispatch off
_FROZEN_K_FAMILY = {
    "aniso_pair": {
        "D": (0.8738778387692375, 0.0048615865915928366),
        "J": (5.151648300036927, 0.06841962889832995),
        0.0: (6.7520438705452905, 0.025527123489944015),
        1.0 / 3.0: (6.183979934819846, 0.022482250001366694),
        1.0: (8.482284263393577, 0.055622949349637185)},
    "full_cov_gaussian": {
        "D": (0.6835452895785081, 0.0032373049403696514),
        "J": (2.1682541866080616, 0.023058610473548114),
        0.0: (3.1534614713690234, 0.0542811757341301),
        1.0 / 3.0: (2.9151180623625472, 0.05434032802748541),
        1.0: (3.8839340354216345, 0.05874133203257439)},
}


@pytest.mark.parametrize("name", sorted(_FROZEN_K_FAMILY))
def test_k_family_bits_are_frozen(name, aniso_pair, pot_gm2):
    assert 2 * _MC_BLOCK < 40_000 < 3 * _MC_BLOCK
    model = aniso_pair if name == "aniso_pair" else _full_covariance_pair()
    fam = k_family(model, [0.0, 1.0 / 3.0, 1.0], pot_gm2, MCSpec(40_000, 17))
    assert (fam.n, fam.n_rejected) == (40_000, 0)
    got = {"D": (fam.D.value, fam.D.abs_error), "J": (fam.J.value, fam.J.abs_error)}
    got.update((b, (est.value, est.abs_error)) for b, est in fam.estimates.items())
    assert got == _FROZEN_K_FAMILY[name]


def test_pair_functional_views_are_frozen(aniso, pot_gm2):
    # D on a 3D model (its pair lift), J on a full-covariance pair with a
    # lone last row, and the tensor check on a mixture, as k_family's views
    def frozen(est):
        return (est.value, est.abs_error, est.n, est.n_rejected)

    assert frozen(entropy_production_D(aniso, pot_gm2, MCSpec(20_000, 4))) \
        == (0.8731090183598084, 0.006917425547352413, 20_000, 0)
    assert frozen(J_functional(_full_covariance_pair(), pot_gm2, MCSpec(_MC_BLOCK + 1, 6))) \
        == (2.0948300230042842, 0.035077587998293205, _MC_BLOCK + 1, 0)
    pair = (0.47373892442669313, 0.004883797043499643, _MC_BLOCK + 1, 0)
    assert tuple(map(frozen, tensor_consistency_D(bimodal(3.0), 3, pot_gm2,
                                                  MCSpec(_MC_BLOCK + 1, 7)))) == (pair, pair)


def test_k_family_D_and_J_match_separate_estimates(aniso_pair, pot_gm2):
    mc = MCSpec(20_000, 5)
    fam = k_family(aniso_pair, [0.0, 1.0], pot_gm2, mc)
    assert fam.D == entropy_production_D(aniso_pair, pot_gm2, mc)
    assert fam.J == J_functional(aniso_pair, pot_gm2, mc)


@pytest.mark.parametrize("which", ["D,J,K", "D,J"])
def test_cli_shared_batch_matches_separate_calls(capsys, aniso_pair, pot_gm2, which):
    betas = [0.0, 0.5, 1.0]
    argv = ["functionals", "--preset", "aniso_gauss(2,0.5,0.5)", "--which", which,
            "--beta", "0,0.5,1", "--gamma", "-2", "--eta", "0.1",
            "--samples", "20000", "--seed", "3"]
    assert cli_main(argv) == 0
    got = {(r["functional"], r.get("beta")): r["value"]
           for r in map(json.loads, capsys.readouterr().out.splitlines())}
    mc = MCSpec(20_000, 3)
    expect = {("D", None): entropy_production_D(aniso_pair, pot_gm2, mc).value,
              ("J", None): J_functional(aniso_pair, pot_gm2, mc).value}
    if "K" in which:
        fam = k_family(aniso_pair, betas, pot_gm2, mc)
        expect.update((("K_beta", b), fam.estimates[b].value) for b in betas)
    assert got == expect


class _GradientOnly(DensityModel):
    """A pair model with a sampler and log_grad but no log_hess_quadform."""

    def __init__(self, base):
        self.base, self.dim = base, base.dim

    def log_grad(self, X):
        return self.base.log_grad(X)

    def sample(self, rng, n):
        return self.base.sample(rng, n)


def test_D_and_J_need_no_hessian_form(aniso_pair, pot_gm2):
    # u2 is built only when K_beta asks for it
    model, mc = _GradientOnly(aniso_pair), MCSpec(20_000, 5)
    assert (entropy_production_D(model, pot_gm2, mc)
            == entropy_production_D(aniso_pair, pot_gm2, mc))
    assert J_functional(model, pot_gm2, mc) == J_functional(aniso_pair, pot_gm2, mc)
    with pytest.raises(CapabilityError):
        k_family(model, [1.0], pot_gm2, mc)
    fam = k_family(model, [], pot_gm2, mc)  # no beta, no anchor, no u2
    assert fam.D == entropy_production_D(aniso_pair, pot_gm2, mc)
    assert fam.J == J_functional(aniso_pair, pot_gm2, mc)


# ---------------------------------------------------------------------------
# Pair fields in sample blocks against one whole-array batch

_BLOCKED_N = 2 * _MC_BLOCK + 3  # the last block holds 3 samples


def _row_blocks(X, rows):
    return (X[start:start + rows] for start in range(0, X.shape[0], rows))


def _pair_functional_results(model, pot, betas, mc=MCSpec(_BLOCKED_N, 0)):
    fam = k_family(model, betas, pot, mc)
    return {"D": entropy_production_D(model, pot, mc), "J": J_functional(model, pot, mc),
            "family": (fam.estimates, fam.J, fam.D, fam.n, fam.n_rejected,
                       fam.residual(0.0), fam.residual(1.0))}


def test_a_sample_of_coincident_pairs_is_a_coverage_failure(recwarn):
    # every pair of maxwellian(1e-300) lies within 1e-12: no sample is kept,
    # and the estimate must fail, not return NaN with numpy's warnings
    pot = PotentialSpec(gamma=-2.0, eta=0.1)
    with pytest.raises(CoverageError, match=r"^0 of 1000 Monte Carlo samples kept, "
                                            r"1000 rejected with \|z\| < 1e-12"):
        entropy_production_D(resolve_preset("maxwellian(1e-300)"), pot, MCSpec(1000, 0))
    assert not recwarn.list


@pytest.mark.parametrize("kept", [0, 1, 2])
def test_k_family_needs_two_kept_samples(monkeypatch, pot_gm2, kept):
    model = TensorPower(maxwellian(1.0), 2)
    X = model.sample(np.random.default_rng(8), 40)
    X[kept:, 3:6] = X[kept:, 0:3]  # all pairs but the first `kept` coincide
    monkeypatch.setattr(model, "sample_blocks", lambda rng, n, rows: _row_blocks(X, rows))
    if kept < 2:
        with pytest.raises(CoverageError, match=f"^{kept} of 40 Monte Carlo samples "
                                                f"kept, {40 - kept} rejected"):
            k_family(model, [0.5], pot_gm2, MCSpec(40, 0))
        with pytest.raises(CoverageError):
            entropy_production_D(model, pot_gm2, MCSpec(40, 0))
    else:
        fam = k_family(model, [0.5], pot_gm2, MCSpec(40, 0))
        assert (fam.n, fam.n_rejected) == (2, 38)
        assert math.isfinite(fam.D.value) and math.isfinite(fam.D.abs_error)


@pytest.mark.parametrize("preset", ["maxwellian(1)", "aniso_gauss(2,0.5,0.5)", "bimodal(3)"])
def test_blocked_pair_fields_equal_one_whole_batch(monkeypatch, pot_gm2, preset):
    model = TensorPower(resolve_preset(preset), 2)
    X = model.sample(np.random.default_rng(8), _BLOCKED_N)
    X[[5, -2], 3:6] = X[[5, -2], 0:3]  # coincident pairs in the first and last block
    # the seeded blocks are this array's rows in blocks of the rows asked for
    monkeypatch.setattr(model, "sample_blocks", lambda rng, n, rows: _row_blocks(X, rows))
    betas = [0.0, 0.5, 1.0]
    blocked = _pair_functional_results(model, pot_gm2, betas)
    assert blocked["family"][3:5] == (_BLOCKED_N - 2, 2)

    whole = _PairBatch(model, pot_gm2, X)
    fam = k_family(model, betas, pot_gm2, MCSpec(_BLOCKED_N, 0))
    for beta in betas:
        assert np.array_equal(fam._samples[beta], whole.k_samples(beta))
    assert np.array_equal(fam._samples["J"], whole.j_samples())

    monkeypatch.setattr(functionals, "_MC_BLOCK", _BLOCKED_N)  # one batch
    assert _pair_functional_results(model, pot_gm2, betas) == blocked


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_k_family_memory_peak_is_bounded(aniso_pair, pot_gm2):
    # whole-array fields of 2^18 samples peaked at 75.5 MB, 65,536-sample
    # blocks joined by concatenation at 43 MB; now the sample array (12.6 MB),
    # one preallocated array per result (2.1 MB each) and one block: 29.4 MB
    peak = _traced_peak(lambda: k_family(aniso_pair, [0.0, 1.0 / 3.0, 1.0], pot_gm2,
                                         MCSpec(2**18, 1)))
    assert peak < 35e6, peak


def test_k_family_streams_its_last_sample_factor(aniso_pair, pot_gm2):
    # the whole (2^18, 6) sample peaked at 28.9 MB; streaming the second
    # factor in blocks holds the first factor (6.3 MB) instead: 23.8 MB
    peak = _traced_peak(lambda: k_family(aniso_pair, [0.0, 1.0 / 3.0, 1.0], pot_gm2,
                                         MCSpec(2**18, 1)))
    assert peak < 26e6, peak


@pytest.mark.parametrize("model", [_full_covariance_pair(), TensorPower(bimodal(3.0), 3)],
                         ids=["full_cov_gaussian", "bimodal_cube"])
def test_streamed_sample_gives_the_whole_sample_results(monkeypatch, model, pot_gm2):
    # a lone last row (n = _MC_BLOCK + 1) and a three-factor tensor power
    mc = MCSpec(_MC_BLOCK + 1, 3)
    streamed = _pair_functional_results(model, pot_gm2, [0.0, 1.0], mc)
    # the base class's blocks slice one whole draw
    monkeypatch.setattr(model, "sample_blocks", DensityModel.sample_blocks.__get__(model))
    assert _pair_functional_results(model, pot_gm2, [0.0, 1.0], mc) == streamed


def test_grid_functionals_memory_peak_is_one_chunk(aniso):
    # 2^20-point chunks of the 129^3 grid peaked at 143 MB; chunks of whole
    # slabs up to 2^16 points peak at 8.6 MB
    peak = _traced_peak(lambda: grid_functionals(aniso, ("H", "I")))
    assert peak < 12e6, peak


def test_blocked_D_and_J_need_no_hessian_form(aniso_pair, pot_gm2):
    model, mc = _GradientOnly(aniso_pair), MCSpec(_MC_BLOCK + 5, 2)
    fam = k_family(model, [], pot_gm2, mc)
    assert fam.n == _MC_BLOCK + 5
    assert fam.D == entropy_production_D(model, pot_gm2, mc) \
        == entropy_production_D(aniso_pair, pot_gm2, mc)
    assert fam.J == J_functional(model, pot_gm2, mc) == J_functional(aniso_pair, pot_gm2, mc)
    with pytest.raises(CapabilityError):
        k_family(model, [1.0], pot_gm2, mc)
