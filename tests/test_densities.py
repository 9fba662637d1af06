import math
import tracemalloc

import numpy as np
import pytest

import landausim.densities as densities
from landausim.densities import (DensityModel, GaussianMixtureModel,
                                 GaussianModel, ScaledModel, ShiftedModel,
                                 TensorPower, check_log_grad_fd, grid_integrate)
from landausim.errors import CapabilityError, CoverageError
from landausim.functionals import _MC_BLOCK, entropy
from landausim.reference import aniso_gauss, bimodal, maxwellian


def _probe_points(model, rng, n=200):
    return model.sample(rng, n)


# ---------------------------------------------------------------------------
# GaussianModel

def test_gaussian_log_density_value():
    m = GaussianModel([0.0, 0.0, 0.0], 1.0)
    assert m.log_density(np.zeros((1, 3)))[0] == pytest.approx(
        -1.5 * math.log(2 * math.pi), rel=1e-14)
    x = np.array([[1.0, 2.0, 3.0]])
    assert m.log_density(x)[0] == pytest.approx(
        -1.5 * math.log(2 * math.pi) - 0.5 * 14.0, rel=1e-14)


def test_gaussian_cov_input_forms():
    x = np.array([[0.4, -1.0, 2.0]])
    scalar = GaussianModel(np.zeros(3), 2.0)
    diag = GaussianModel(np.zeros(3), [2.0, 2.0, 2.0])
    full = GaussianModel(np.zeros(3), 2.0 * np.eye(3))
    v = scalar.log_density(x)[0]
    assert diag.log_density(x)[0] == v
    assert full.log_density(x)[0] == v


def test_gaussian_validation():
    with pytest.raises(ValueError):
        GaussianModel(np.zeros(3), np.eye(2))
    with pytest.raises(np.linalg.LinAlgError):
        GaussianModel(np.zeros(2), [[1.0, 2.0], [2.0, 1.0]])  # not PD


@pytest.mark.parametrize("mean, cov", [
    (np.zeros(3), [[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ([0.0, np.inf, 0.0], 1.0),
], ids=["nan_cov", "inf_mean"])
def test_gaussian_rejects_non_finite_parameters(mean, cov):
    with pytest.raises(ValueError, match="finite"):
        GaussianModel(mean, cov)


def test_gaussian_derivatives_fd(rng):
    cov = np.array([[2.0, 0.3, 0.0], [0.3, 0.5, -0.1], [0.0, -0.1, 1.0]])
    m = GaussianModel([0.5, -1.0, 0.2], cov)
    X = _probe_points(m, rng, 100)
    assert check_log_grad_fd(m, X) < 1e-6
    # Hessian quadratic form: for a Gaussian it is -u' P u independent of x
    U = rng.normal(size=(100, 3))
    expect = -np.einsum("ni,ij,nj->n", U, m.prec, U)
    np.testing.assert_allclose(m.log_hess_quadform(X, U), expect, rtol=1e-13)


def test_gaussian_quadratic_forms_full_covariance(rng):
    cov = np.array([[2.0, 0.3, -0.4], [0.3, 0.5, -0.1], [-0.4, -0.1, 1.0]])
    m = GaussianModel([0.5, -1.0, 0.2], cov)
    X = rng.normal(size=(50, 3)) * 3.0
    U = rng.normal(size=(50, 3))
    log_norm = -0.5 * (3 * math.log(2 * math.pi) + math.log(np.linalg.det(cov)))
    for x, u, logf, quad in zip(X, U, m.log_density(X), m.log_hess_quadform(X, U)):
        d = x - m.mean
        assert logf == pytest.approx(log_norm - 0.5 * (d @ m.prec @ d), rel=1e-13)
        assert quad == pytest.approx(-(u @ m.prec @ u), rel=1e-13)


def test_gaussian_sampling_moments(rng):
    m = GaussianModel([1.0, -2.0, 0.0], [0.5, 1.0, 2.0])
    X = m.sample(rng, 200_000)
    np.testing.assert_allclose(X.mean(axis=0), m.mean, atol=0.02)
    np.testing.assert_allclose(np.cov(X.T), m.cov, atol=0.03)


def test_gaussian_mass_certificate():
    # every grid functional checks that its grid holds the mass to 1e-6
    entropy(GaussianModel(np.zeros(3), 1.0))
    entropy(GaussianModel([5.0, 5.0, 5.0], [0.1, 1.0, 3.0]))


def test_gaussian_sample_is_the_whole_array_formula():
    # the in-place row-block form reproduces mean + Z @ L^T bit for bit,
    # across block boundaries and for a full covariance
    cov = np.array([[2.0, 0.3, -0.4], [0.3, 0.5, -0.1], [-0.4, -0.1, 1.0]])
    m = GaussianModel([0.5, -1.0, 0.2], cov)
    n = 2 * 2**16 + 5
    z = np.random.default_rng(7).standard_normal((n, 3))
    expect = m.mean + z @ np.linalg.cholesky(cov).T
    assert np.array_equal(m.sample(np.random.default_rng(7), n), expect)


@pytest.mark.parametrize("tail_mass", [0.0, -1e-9, 6.0, 7.5, float("nan")])
def test_bounding_box_rejects_tail_mass_outside_its_range(tail_mass):
    # a 3D box splits tail_mass over 6 half-axes: it must lie in (0, 6)
    with pytest.raises(ValueError, match="tail_mass"):
        GaussianModel(np.zeros(3), 1.0).bounding_box(tail_mass)


def test_bounding_box_halfwidth_is_the_normal_quantile():
    # 1e-9 over 6 half-axes: z = -Phi^{-1}(1e-9 / 6); the frozen value is
    # scipy.special.ndtri's, which inv_cdf meets within a few ulp
    lo, hi = GaussianModel(np.zeros(3), 4.0).bounding_box(1e-9)
    assert np.all(hi == -lo)
    assert hi[0] == pytest.approx(2.0 * 6.282424421620111, rel=1e-14)


# ---------------------------------------------------------------------------
# Mixture

def _bimodal():
    return GaussianMixtureModel(
        weights=[0.5, 0.5],
        means=[[-1.5, 0.0, 0.0], [1.5, 0.0, 0.0]],
        covs=[np.eye(3), np.eye(3)])


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        GaussianMixtureModel([0.7, 0.7], [np.zeros(3)] * 2, [np.eye(3)] * 2)


@pytest.mark.parametrize("weights", [[1.5, -0.5], [np.nan, 1.0], [np.inf, 0.0]])
def test_mixture_weights_must_be_finite_and_nonnegative(weights):
    # [1.5, -0.5] sums to 1; it gave NaN log-densities and a late numpy
    # error in sample
    with pytest.raises(ValueError, match="finite and >= 0"):
        GaussianMixtureModel(weights, [np.zeros(3)] * 2, [np.eye(3)] * 2)


@pytest.mark.parametrize("n_weights, n_means, n_covs", [(2, 1, 1), (2, 2, 3), (2, 3, 3),
                                                        (1, 1, 2)])
def test_mixture_needs_one_mean_and_cov_per_weight(n_weights, n_means, n_covs):
    # two weights over one component sampled rows of uninitialized memory,
    # and zip dropped an extra cov
    with pytest.raises(ValueError, match="one mean and cov per weight"):
        GaussianMixtureModel(np.full(n_weights, 1.0 / n_weights), [np.zeros(3)] * n_means,
                             [np.ones(3)] * n_covs)


def test_mixture_density_is_weighted_sum():
    mix = _bimodal()
    x = np.array([[0.2, -0.4, 1.0], [2.0, 0.0, 0.0]])
    c0 = GaussianModel([-1.5, 0.0, 0.0], np.eye(3))
    c1 = GaussianModel([1.5, 0.0, 0.0], np.eye(3))
    expect = 0.5 * c0.density(x) + 0.5 * c1.density(x)
    np.testing.assert_allclose(mix.density(x), expect, rtol=1e-13)


def test_mixture_derivatives_fd(rng):
    mix = _bimodal()
    X = _probe_points(mix, rng, 100)
    assert check_log_grad_fd(mix, X) < 1e-6
    # Hessian quadratic form against finite differences of log_grad
    U = rng.normal(size=(100, 3))
    h = 1e-5
    fd = np.einsum("ni,ni->n",
                   mix.log_grad(X + h * U) - mix.log_grad(X - h * U),
                   U) / (2 * h)
    got = mix.log_hess_quadform(X, U)
    assert np.max(np.abs(got - fd) / np.maximum(np.abs(got), 1.0)) < 1e-5


def test_mixture_sampling_and_mass(rng):
    mix = _bimodal()
    X = mix.sample(rng, 100_000)
    assert abs(X[:, 0].mean()) < 0.03          # symmetric modes
    assert X[:, 0].std() > 1.5                 # bimodal spread along axis 0
    entropy(mix)  # checks the grid mass


# ---------------------------------------------------------------------------
# Wrappers

def test_tensor_power_blocks(rng):
    base = GaussianModel(np.zeros(3), [0.5, 1.0, 2.0])
    pair = TensorPower(base, 2)
    assert pair.dim == 6
    X = pair.sample(rng, 50)
    v, w = X[:, :3], X[:, 3:]
    np.testing.assert_allclose(
        pair.log_density(X), base.log_density(v) + base.log_density(w),
        rtol=1e-13)
    np.testing.assert_allclose(
        pair.log_grad(X),
        np.concatenate([base.log_grad(v), base.log_grad(w)], axis=1),
        rtol=1e-13)
    U = rng.normal(size=(50, 6))
    np.testing.assert_allclose(
        pair.log_hess_quadform(X, U),
        base.log_hess_quadform(v, U[:, :3]) + base.log_hess_quadform(w, U[:, 3:]),
        rtol=1e-13)
    with pytest.raises(ValueError):
        TensorPower(base, 0)


@pytest.mark.parametrize("j", [2.0, True, "2"])
def test_tensor_power_needs_an_int_power(j):
    # TensorPower(base, 2.0) had dim 6.0 and died in sample with a TypeError
    with pytest.raises(ValueError, match="int j"):
        TensorPower(GaussianModel(np.zeros(3), 1.0), j)
    assert TensorPower(GaussianModel(np.zeros(3), 1.0), np.int64(2)).dim == 6


def test_tensor_power_sample_peak_is_its_output_and_one_factor(aniso):
    # joining the factors held both factors and the output (2.0x the
    # output); filling the output in place holds it, one factor and one
    # row block of the Cholesky product (1.68x)
    tracemalloc.start()
    try:
        X = TensorPower(aniso, 2).sample(np.random.default_rng(1), 2**18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * X.nbytes, peak / X.nbytes


@pytest.mark.parametrize("j, bound", [(1, 2.5), (2, 2.4)])
def test_mixture_sample_peak_is_its_output_one_draw_and_the_permutation(j, bound):
    # joining the component draws and fancy-indexing the join held 3.33x the
    # output for bimodal(3) (2.67x for its tensor square); writing the draws
    # into one array and taking its rows holds 2.33x (2.17x)
    model = bimodal(3.0) if j == 1 else TensorPower(bimodal(3.0), j)
    tracemalloc.start()
    try:
        X = model.sample(np.random.default_rng(1), 2**18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * X.nbytes, peak / X.nbytes


def test_mixture_sample_is_the_shuffled_join_of_its_component_draws():
    model = GaussianMixtureModel([0.2, 0.0, 0.5, 0.3], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                       [-1.0, 0.5, 0.0], [0.0, 0.0, 2.0]],
                                 [1.0, 1.0, 0.25, [0.5, 1.0, 2.0]])
    rng = np.random.default_rng(4)
    counts = rng.multinomial(1001, model.weights)
    joined = np.concatenate([c.sample(rng, k) for c, k in zip(model.components, counts)
                             if k > 0])
    expect = joined[rng.permutation(1001)]
    assert np.array_equal(model.sample(np.random.default_rng(4), 1001), expect)


def _full_cov_gaussian():
    cov = np.array([[2.0, 0.3, -0.4], [0.3, 0.5, -0.1], [-0.4, -0.1, 1.0]])
    return GaussianModel([0.5, -1.0, 0.2], cov)


def _streamed_models():
    bases = {"maxwellian": maxwellian(1.0), "aniso": aniso_gauss(2.0, 0.5, 0.5),
             "full_cov": _full_cov_gaussian()}
    models = dict(bases)
    for name, base in bases.items():
        for j in (2, 3):
            models[f"{name}^{j}"] = TensorPower(base, j)
    models["bimodal^2"] = TensorPower(bimodal(3.0), 2)  # its base slices a whole draw
    return models


_STREAMED = _streamed_models()


@pytest.mark.parametrize("n, rows", [
    (1, _MC_BLOCK), (5, _MC_BLOCK), (5, 2), (_MC_BLOCK - 1, _MC_BLOCK),
    (_MC_BLOCK, _MC_BLOCK), (_MC_BLOCK + 1, _MC_BLOCK), (2 * _MC_BLOCK + 3, _MC_BLOCK),
    (2**16 + 1, _MC_BLOCK), (2**16 + 7, _MC_BLOCK)])
@pytest.mark.parametrize("name", list(_STREAMED))
def test_sample_blocks_join_to_the_sample(name, n, rows):
    # each block also has the layout of its row slice of the whole sample
    model = _STREAMED[name]
    whole = model.sample(np.random.default_rng(n), n)
    parts, start = [], 0
    for block in model.sample_blocks(np.random.default_rng(n), n, rows):
        assert 0 < block.shape[0] <= rows
        assert block.flags.c_contiguous
        assert block.strides == whole[start:start + block.shape[0]].strides
        parts.append(block.copy())  # a block is valid until the next one
        start += block.shape[0]
    assert np.array_equal(np.concatenate(parts), whole)


def _joined(blocks):
    return np.concatenate([block.copy() for block in blocks])  # each valid until the next


@pytest.mark.parametrize("n", [5, _MC_BLOCK + 1, 40_000])
@pytest.mark.parametrize("j", [3, 5])
@pytest.mark.parametrize("make_base", [lambda: aniso_gauss(2.0, 0.5, 0.5), _full_cov_gaussian,
                                       lambda: bimodal(3.0)],
                         ids=["aniso", "full_cov", "bimodal"])
def test_seeded_pair_draw_is_the_first_two_factors_of_the_j_power(make_base, j, n):
    # tensor_consistency_D compares D on two seeded draws: rho^(x j)'s first
    # two factors must be rho^(x 2)'s draw, whole or streamed
    base = make_base()
    pair, power = TensorPower(base, 2), TensorPower(base, j)
    pairs = (pair.sample(np.random.default_rng(n), n),
             _joined(pair.sample_blocks(np.random.default_rng(n), n, _MC_BLOCK)))
    powers = (power.sample(np.random.default_rng(n), n),
              _joined(power.sample_blocks(np.random.default_rng(n), n, _MC_BLOCK)))
    for X in pairs:
        for Y in powers:
            assert np.array_equal(X, Y[:, 0:6])


def test_gaussian_sample_lone_last_row_is_the_whole_array_formula():
    # a one-row product would go through BLAS's matrix-vector kernel, which
    # rounds otherwise than the whole-array product on about 4 rows in 10
    # (seeds 1, 3 and 5 here)
    m, n = _full_cov_gaussian(), 2**16 + 1
    for seed in range(6):
        z = np.random.default_rng(seed).standard_normal((n, 3))
        expect = m.mean + z @ np.linalg.cholesky(m.cov).T
        assert np.array_equal(m.sample(np.random.default_rng(seed), n), expect)


def test_tensor_power_sample_is_the_factor_draws_side_by_side():
    base = GaussianModel([0.5, -1.0, 0.2], [0.5, 1.0, 2.0])
    rng = np.random.default_rng(3)
    expect = np.concatenate([base.sample(rng, 1000) for _ in range(3)], axis=1)
    assert np.array_equal(TensorPower(base, 3).sample(np.random.default_rng(3), 1000),
                          expect)


def _broadcast_log_density(model, X):
    """GaussianModel.log_density with the centering broadcast row by row and
    each row's quadratic form summed (p0 + p1) + p2, p = (d prec) * d."""
    d = np.atleast_2d(X) - model.mean
    p = (d @ model.prec) * d
    return model._log_norm - 0.5 * ((p[:, 0] + p[:, 1]) + p[:, 2])


def _broadcast_log_grad(model, X):
    """log_grad as numpy's broadcasting, concatenation and row-wise products
    form it: the reference for the column-by-column code."""
    X = np.atleast_2d(X)
    if isinstance(model, GaussianModel):
        return (model.mean - X) @ model.prec
    if isinstance(model, TensorPower):
        d = model.base.dim
        return np.concatenate([_broadcast_log_grad(model.base, X[:, i * d:(i + 1) * d])
                               for i in range(model.j)], axis=1)
    logs = np.stack([_broadcast_log_density(c, X) for c in model.components])
    logs += np.log(model.weights)[:, None]
    w = np.exp(logs - logs.max(axis=0))
    out = np.zeros_like(X)
    for ri, c in zip(w / w.sum(axis=0), model.components):
        out += ri[:, None] * _broadcast_log_grad(c, X)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and (np.ascontiguousarray(a).tobytes()
                                   == np.ascontiguousarray(b).tobytes())


def _full_covariance_gaussian():
    a = np.array([[1.0, 0.0, 0.0], [0.4, 0.8, 0.0], [-0.3, 0.2, 1.1]])
    return GaussianModel([0.5, -0.3, 0.2], a @ a.T)


@pytest.mark.parametrize("make_base", [lambda: bimodal(3.0), _full_covariance_gaussian],
                         ids=["bimodal", "full_cov_gaussian"])
def test_column_log_grad_has_the_bits_of_the_broadcast_form(make_base):
    base = make_base()
    X6 = TensorPower(base, 2).sample(np.random.default_rng(6), 5000)
    X6[::50] = 0.0  # rows of exact zeros: the sign of a zero must match too
    for model, inputs in ((base, (X6[:, 0:3], X6[:, 3:6], np.ascontiguousarray(X6[:, 3:6]),
                                  np.asfortranarray(X6[:, 0:3]), X6[7, 0:3])),
                          (TensorPower(base, 2), (X6, X6[::3], np.asfortranarray(X6)))):
        for X in inputs:
            assert _same_bits(model.log_grad(X), _broadcast_log_grad(model, X))
    for c in getattr(base, "components", [base]):
        for X in (X6[:, 0:3], np.asfortranarray(X6[:, 3:6])):
            assert _same_bits(c.log_density(X), _broadcast_log_density(c, X))


@pytest.mark.parametrize("make_base", [lambda: bimodal(3.0), _full_covariance_gaussian],
                         ids=["bimodal", "full_cov_gaussian"])
def test_quadratic_forms_have_the_same_bits_in_every_layout(make_base):
    base = make_base()
    X6 = TensorPower(base, 2).sample(np.random.default_rng(8), 5000)
    U6 = np.random.default_rng(9).standard_normal((5000, 6))
    for s in (slice(0, 3), slice(3, 6)):
        X, U = np.ascontiguousarray(X6[:, s]), np.ascontiguousarray(U6[:, s])
        log_f, quad = base.log_density(X), base.log_hess_quadform(X, U)
        # C, F, and column slices of a C and of an F array of 6 columns
        layouts = (np.ascontiguousarray, np.asfortranarray, lambda A: np.hstack([A, A])[:, 3:6],
                   lambda A: np.asfortranarray(np.hstack([A, A]))[:, 3:6])
        for x_in in layouts:
            assert _same_bits(base.log_density(x_in(X)), log_f)
            for u_in in layouts:
                assert _same_bits(base.log_hess_quadform(x_in(X), u_in(U)), quad)


def test_scaled_model_is_a_density(rng):
    base = GaussianModel(np.zeros(3), 1.0)
    lam = 2.0
    scaled = ScaledModel(base, lam)
    # lam^d f(lam x) for Gaussian(0, I) equals Gaussian(0, I/lam^2)
    target = GaussianModel(np.zeros(3), 1.0 / lam**2)
    X = rng.normal(size=(100, 3))
    np.testing.assert_allclose(scaled.log_density(X), target.log_density(X),
                               rtol=1e-12)
    np.testing.assert_allclose(scaled.log_grad(X), target.log_grad(X),
                               rtol=1e-12)
    entropy(scaled)  # checks the grid mass
    with pytest.raises(ValueError):
        ScaledModel(base, 0.0)


def test_shifted_model(rng):
    base = GaussianModel(np.zeros(3), [0.5, 1.0, 2.0])
    shift = np.array([1.0, -2.0, 0.5])
    moved = ShiftedModel(base, shift)
    target = GaussianModel(shift, [0.5, 1.0, 2.0])
    X = rng.normal(size=(100, 3)) + shift
    np.testing.assert_allclose(moved.log_density(X), target.log_density(X),
                               rtol=1e-12)
    np.testing.assert_allclose(moved.log_grad(X), target.log_grad(X),
                               rtol=1e-12)
    lo, hi = moved.bounding_box()
    lo0, hi0 = base.bounding_box()
    np.testing.assert_allclose(lo, lo0 + shift)
    np.testing.assert_allclose(hi, hi0 + shift)


def _affine_cases(g, lam, s):
    """Each wrapper over g and its formulas written out: log f, grad log f,
    u^T Hess(log f) u, and the map that carries g's samples and box to it."""
    return {
        "scaled": (ScaledModel(g, lam),
                   lambda X: 3 * math.log(lam) + g.log_density(lam * X),
                   lambda X: lam * g.log_grad(lam * X),
                   lambda X, U: lam**2 * g.log_hess_quadform(lam * X, U),
                   lambda Y: Y / lam),
        "shifted": (ShiftedModel(g, s),
                    lambda X: g.log_density(X - s),
                    lambda X: g.log_grad(X - s),
                    lambda X, U: g.log_hess_quadform(X - s, U),
                    lambda Y: Y + s),
        "shifted_scaled": (ShiftedModel(ScaledModel(g, lam), s),
                           lambda X: 3 * math.log(lam) + g.log_density(lam * (X - s)),
                           lambda X: lam * g.log_grad(lam * (X - s)),
                           lambda X, U: lam**2 * g.log_hess_quadform(lam * (X - s), U),
                           lambda Y: Y / lam + s),
    }


@pytest.mark.parametrize("case", ["scaled", "shifted", "shifted_scaled"])
@pytest.mark.parametrize("make_base", [_full_covariance_gaussian, lambda: bimodal(3.0)],
                         ids=["gaussian", "bimodal"])
def test_affine_wrappers_give_the_values_of_their_formulas(make_base, case):
    g = make_base()
    model, log_f, grad, quad, push = _affine_cases(g, 1.7, np.array([0.4, -1.2, 2.5]))[case]
    rng = np.random.default_rng(11)
    X = model.sample(rng, 4000)
    X[::40] = 0.0
    U = rng.normal(size=X.shape)
    np.testing.assert_array_equal(model.log_density(X), log_f(X))
    np.testing.assert_array_equal(model.log_grad(X), grad(X))
    np.testing.assert_array_equal(model.log_hess_quadform(X, U), quad(X, U))
    np.testing.assert_array_equal(model.sample(np.random.default_rng(5), 3000),
                                  push(g.sample(np.random.default_rng(5), 3000)))
    for got, base in zip(model.bounding_box(1e-6), g.bounding_box(1e-6)):
        np.testing.assert_array_equal(got, push(base))


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_scaled_model_rejects_a_scale_that_is_not_finite_and_positive(lam):
    with pytest.raises(ValueError, match="scale"):
        ScaledModel(maxwellian(1.0), lam)


@pytest.mark.parametrize("shift", [[math.inf, 0.0, 0.0], [0.0, math.nan, 0.0]])
def test_shifted_model_rejects_a_shift_that_is_not_finite(shift):
    with pytest.raises(ValueError, match="shift"):
        ShiftedModel(maxwellian(1.0), shift)


@pytest.mark.parametrize("shift", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
def test_shifted_model_rejects_a_shift_of_the_wrong_length(shift):
    with pytest.raises(ValueError, match="shift"):
        ShiftedModel(maxwellian(1.0), shift)


# ---------------------------------------------------------------------------
# Quadrature helpers

def test_grid_integrate_polynomial_1d():
    # trapezoid is exact for affine integrands regardless of resolution
    val = grid_integrate(lambda p: 2.0 * p[:, 0] + 1.0, [0.0], [1.0], 11)
    assert val == pytest.approx(2.0, rel=1e-14)


def test_grid_integrate_gaussian_3d_matches_mass():
    m = GaussianModel(np.zeros(3), 1.0)
    lo, hi = m.bounding_box(1e-8)
    val = grid_integrate(m.density, lo, hi, 64)
    assert val == pytest.approx(1.0, abs=2e-4)


def test_grid_integrate_chunking_invariance(monkeypatch):
    m = GaussianModel(np.zeros(2), 1.0)
    lo, hi = m.bounding_box(1e-8)
    monkeypatch.setattr(densities, "_GRID_CHUNK", 2**20)
    a = grid_integrate(m.density, lo, hi, 41)
    monkeypatch.setattr(densities, "_GRID_CHUNK", 97)
    b = grid_integrate(m.density, lo, hi, 41)
    assert a == b


def test_grid_integrate_chunking_invariance_3d(monkeypatch):
    # slabs of the leading axis hold 11 * 11 points: a chunk below one slab
    # and one spanning several both reproduce the one-chunk sum bit for bit
    m = GaussianModel([0.2, -0.1, 0.3], [1.5, 0.7, 1.0])
    lo, hi = m.bounding_box(1e-8)
    n = 11
    whole = grid_integrate(m.density, lo, hi, n)
    for chunk in (50, 4 * 11 * 11 + 7, 2**20):
        monkeypatch.setattr(densities, "_GRID_CHUNK", chunk)
        assert grid_integrate(m.density, lo, hi, n) == whole
    axes = [np.linspace(lo[d], hi[d], n) for d in range(3)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    wts = [np.full(n, ax[1] - ax[0]) for ax in axes]
    for w in wts:
        w[[0, -1]] *= 0.5
    w = (wts[0][:, None, None] * wts[1][None, :, None] * wts[2][None, None, :]).ravel()
    assert whole == pytest.approx(float(np.dot(w, m.density(pts))), rel=1e-12)


def test_grid_integrate_1d_chunks(monkeypatch):
    # one-dimensional grids have an empty trailing block; chunks are points
    def fn(p):
        return np.exp(-p[:, 0] ** 2)

    whole = grid_integrate(fn, [-2.0], [3.0], 101)
    for chunk in (1, 7, 100):
        monkeypatch.setattr(densities, "_GRID_CHUNK", chunk)
        assert grid_integrate(fn, [-2.0], [3.0], 101) == whole
    x = np.linspace(-2.0, 3.0, 101)
    assert whole == pytest.approx(np.trapezoid(np.exp(-x ** 2), x), rel=1e-12)


@pytest.mark.parametrize("chunk", [2**20, 50])
def test_grid_integrate_k_rows_equal_one_row_calls(chunk, monkeypatch):
    # each row of a k-row integrand is summed slab by slab exactly as a
    # one-row call sums it; 50 points is below one 11 x 11 slab
    monkeypatch.setattr(densities, "_GRID_CHUNK", chunk)
    m = GaussianMixtureModel([0.3, 0.7], [[0.5, 0.0, 0.1], [-0.4, 0.2, 0.0]],
                             [[1.0, 0.6, 0.9], [0.8, 1.2, 0.7]])
    lo, hi = m.bounding_box(1e-8)
    n = 11
    one_row = [m.density, lambda X: m.log_density(X) * m.density(X),
               lambda X: np.sum(m.log_grad(X) ** 2, axis=1)]
    expect = [grid_integrate(fn, lo, hi, n) for fn in one_row]
    assert all(isinstance(v, float) for v in expect)
    got = grid_integrate(lambda X: [fn(X) for fn in one_row], lo, hi, n)
    assert got == expect
    stacked = grid_integrate(lambda X: np.stack([fn(X) for fn in one_row]), lo, hi, n)
    assert stacked == expect


def test_check_mass_raises_on_nan_mass():
    class NaNDensity(GaussianModel):
        def log_density(self, X):
            return np.full(np.atleast_2d(X).shape[0], np.nan)

    with pytest.raises(CoverageError):
        entropy(NaNDensity(np.zeros(2), 1.0))


def test_check_mass_raises_on_bad_box():
    class Half(GaussianModel):
        def bounding_box(self, tail_mass=1e-8):
            lo, hi = super().bounding_box(tail_mass)
            return lo, np.zeros_like(hi)  # drops half the mass

    with pytest.raises(CoverageError):
        entropy(Half(np.zeros(2), 1.0))


def test_capability_errors_from_base():
    bare = DensityModel()
    with pytest.raises(CapabilityError):
        bare.log_density(np.zeros((1, 3)))
    with pytest.raises(CapabilityError):
        bare.log_grad(np.zeros((1, 3)))
    with pytest.raises(CapabilityError):
        bare.sample(np.random.default_rng(0), 4)
    with pytest.raises(CapabilityError):
        bare.bounding_box()
