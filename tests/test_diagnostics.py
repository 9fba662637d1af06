import math
import tracemalloc

import numpy as np
import pytest

import landausim.diagnostics as diagnostics
from landausim.diagnostics import (AffineFn, BumpWeakIntegrand, ConstantFn,
                                   GaussianBumpFn, NonAlignedTriple, QuadraticFn, RadialBumpFn,
                                   ball_mass, bl_distance, bump_h, default_dictionary,
                                   find_nonaligned_triple, holder_seminorm,
                                   increment_scaling_exponent,
                                   is_delta_nonaligned, iota,
                                   recorded_weak_residual, weak_form_residual)
from landausim.densities import GaussianMixtureModel, GaussianModel, grid_integrate
from landausim.dynamics import ParticleState, SimConfig, Trajectory, _PairWalk, _feed_pairs, run
from landausim.errors import ConfigError, StrideError
from landausim.estimators import EmpiricalMeasure
from landausim.reference import matched_maxwellian, maxwellian


def _fd_check(fn, X, tol_g=1e-6, tol_h=1e-5):
    """Finite-difference validation of fn.grad and fn.hess at rows of X."""
    X = np.atleast_2d(X)
    h = 1e-6
    g = fn.grad(X)
    H = fn.hess(X)
    for d in range(3):
        step = np.zeros(3)
        step[d] = h
        fd_g = (fn.value(X + step) - fn.value(X - step)) / (2 * h)
        assert np.max(np.abs(fd_g - g[:, d])) < tol_g
        fd_h = (fn.grad(X + step) - fn.grad(X - step)) / (2 * h)
        assert np.max(np.abs(fd_h - H[:, d, :])) < tol_h


# ---------------------------------------------------------------------------
# test functions

def test_gaussian_bump_derivatives(rng):
    fn = GaussianBumpFn([0.5, -1.0, 0.0], 1.3, 0.7)
    _fd_check(fn, rng.normal(size=(50, 3)))


def test_radial_bump_profile_values():
    assert bump_h([[0.0, 0.0, 0.0]])[0] == 1.0
    assert bump_h([[1.0, 0.0, 0.0]])[0] == 1.0          # plateau edge
    assert bump_h([[1.25, 0.0, 0.0]])[0] == 0.5          # blend midpoint
    assert bump_h([[1.5, 0.0, 0.0]])[0] == 0.0
    assert bump_h([[4.0, 0.0, 0.0]])[0] == 0.0


def test_radial_bump_derivatives(rng):
    fn = RadialBumpFn([0.2, 0.0, -0.5], 0.8)
    # probe the plateau, the blend shell, and outside the support
    X = np.concatenate([
        fn.center + 0.3 * rng.normal(size=(20, 3)),
        fn.center + 0.95 * rng.normal(size=(20, 3)),
        fn.center + 3.0 * rng.normal(size=(10, 3)),
    ])
    _fd_check(fn, X, tol_g=2e-6, tol_h=2e-4)
    np.testing.assert_array_equal(fn.grad([fn.center]), np.zeros((1, 3)))


def test_polynomial_test_functions(rng):
    X = rng.normal(size=(30, 3))
    _fd_check(ConstantFn(3.0), X)
    _fd_check(AffineFn([1.0, -2.0, 0.5], 4.0), X)
    _fd_check(QuadraticFn(np.diag([1.0, 2.0, 3.0])), X)


# ---------------------------------------------------------------------------
# dictionary and the weighted weak metric

def test_default_dictionary_structure():
    dic = default_dictionary()
    assert dic is default_dictionary()  # cached
    assert dic.n_max == 64
    np.testing.assert_allclose(dic.weights, 0.5 ** np.arange(1, 65), rtol=0)
    assert dic.truncation_bound == 2.0 * 0.5 ** 64
    # first functions sit at the origin with the three scales in order
    np.testing.assert_array_equal(dic.functions[0].center, np.zeros(3))
    assert [f.scale for f in dic.functions[:3]] == [0.5, 1.0, 2.0]
    for phi in dic.functions:
        assert phi.c2_norm_bound() <= 1.0
        assert phi.c2_norm_bound() > 0.5  # amplitudes saturate the budget


def test_dictionary_integrals_target_forms(rng):
    dic = default_dictionary()
    pts = rng.normal(size=(500, 3))
    a = dic.integrals(EmpiricalMeasure(pts))
    b = dic.integrals(pts)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ConfigError):
        dic.integrals({"not": "supported"})


def test_dictionary_integrals_density_vs_cloud(rng):
    dic = default_dictionary()
    model = maxwellian(1.0)
    from_model = dic.integrals(model)
    from_cloud = dic.integrals(model.sample(rng, 400_000))
    assert np.max(np.abs(from_model - from_cloud)) < 5e-3


def _grid_integrals(dic, model):
    return np.array([diagnostics._integral(model, phi.value, phi.center - 8.0 * phi.scale,
                                           phi.center + 8.0 * phi.scale)
                     for phi in dic.functions])


def test_dictionary_integrals_gaussian_closed_form_matches_grid(rng, monkeypatch):
    dic = default_dictionary()
    calls = []
    monkeypatch.setattr(diagnostics, "grid_integrate",
                        lambda *a, **k: calls.append(1) or grid_integrate(*a, **k))
    for model in (maxwellian(1.0), matched_maxwellian(1.3 * rng.normal(size=(256, 3)) + 0.2)):
        closed = dic.integrals(model)
        assert calls == []  # a Gaussian target needs no quadrature
        np.testing.assert_allclose(closed, _grid_integrals(dic, model), rtol=0, atol=1e-9)
        calls.clear()


def test_dictionary_integrals_mixture_takes_the_grid(monkeypatch):
    dic = default_dictionary()
    mix = GaussianMixtureModel([0.5, 0.5], [np.zeros(3), np.full(3, 0.5)],
                               [np.eye(3), 2.0 * np.eye(3)])
    calls = []
    monkeypatch.setattr(diagnostics, "grid_integrate",
                        lambda *a, **k: calls.append(1) or grid_integrate(*a, **k))
    got = dic.integrals(mix)
    assert len(calls) == dic.n_max
    np.testing.assert_array_equal(got, _grid_integrals(dic, mix))
    # a single-component mixture is the Gaussian: the grid agrees with the closed form
    one = GaussianMixtureModel([1.0], [np.zeros(3)], [np.eye(3)])
    np.testing.assert_allclose(dic.integrals(one),
                               dic.integrals(GaussianModel(np.zeros(3), np.eye(3))),
                               rtol=0, atol=1e-9)


def test_bl_distance_axioms(rng):
    a = EmpiricalMeasure(rng.normal(size=(200, 3)))
    b = EmpiricalMeasure(rng.normal(size=(200, 3)) + 0.5)
    c = EmpiricalMeasure(2.0 * rng.normal(size=(100, 3)))
    assert bl_distance(a, a) == 0.0
    dab = bl_distance(a, b)
    assert dab > 0.0
    assert bl_distance(b, a) == dab
    assert dab <= bl_distance(a, c) + bl_distance(c, b) + 1e-15
    assert dab < 1.0  # series bound: sum 2^-n sup|phi_n| < 1
    val, bound = bl_distance(a, b), default_dictionary().truncation_bound
    assert val == dab and bound == 2.0 ** -63


def test_bl_distance_lln(rng):
    # empirical measures converge to the sampling density as N grows
    model = maxwellian(1.0)
    medians = []
    for n in (100, 1000, 10000):
        dists = [bl_distance(EmpiricalMeasure(model.sample(rng, n)), model)
                 for _ in range(5)]
        medians.append(np.median(dists))
    assert medians[0] > medians[1] > medians[2]


def test_holder_seminorm_two_point_arithmetic(rng):
    a = rng.normal(size=(300, 3))
    b = rng.normal(size=(300, 3)) + 1.0
    d = bl_distance(EmpiricalMeasure(a), EmpiricalMeasure(b))
    # with |t - s| = 1 the seminorm is the distance itself
    got = holder_seminorm([0.0, 1.0],
                          [EmpiricalMeasure(a), EmpiricalMeasure(b)])
    assert got == pytest.approx(d, rel=1e-12)
    # a shorter gap divides by |t-s|^(1/8) < 1, enlarging the quotient
    closer = holder_seminorm([0.0, 0.5],
                             [EmpiricalMeasure(a), EmpiricalMeasure(b)])
    assert closer == pytest.approx(d / 0.5 ** 0.125, rel=1e-12)


def test_holder_seminorm_constant_path_is_zero(rng):
    a = EmpiricalMeasure(rng.normal(size=(100, 3)))
    assert holder_seminorm([0.0, 0.5, 1.0], [a, a, a]) == 0.0
    with pytest.raises(ConfigError):
        holder_seminorm([0.0], [a])


def test_holder_seminorm_accepts_trajectory():
    # a trajectory goes in as its times and its snapshots' empirical measures
    traj = run(SimConfig(n_particles=16, gamma=-2.0, dt=1e-3, t_end=0.01,
                         seed=1, eta=0.2, snapshot_stride=5))
    out = holder_seminorm(traj.times, [EmpiricalMeasure(s.v) for s in traj.snapshots])
    assert np.isfinite(out) and out > 0.0


# ---------------------------------------------------------------------------
# weak-form residual

@pytest.fixture(scope="module")
def residual_traj():
    cfg = SimConfig(n_particles=48, gamma=-2.0, dt=1e-3, t_end=0.1, seed=6,
                    eta=0.2, energy_mode="rescale", snapshot_stride=10)
    return run(cfg)


def test_weak_residual_walks_every_snapshot_with_one_walk(residual_traj, monkeypatch):
    built = []
    real_init = _PairWalk.__init__

    def counted_init(self, n):
        built.append(n)
        real_init(self, n)

    monkeypatch.setattr(_PairWalk, "__init__", counted_init)
    phi = GaussianBumpFn([0.3, 0.0, -0.2], 0.8, 0.5)
    weak_form_residual(residual_traj, phi, residual_traj.times[-1])
    assert len(residual_traj.snapshots) == 11 and built == [48]


def test_weak_residual_constant_is_exactly_zero(residual_traj):
    assert weak_form_residual(residual_traj, ConstantFn(3.7), 0.1) == 0.0


def test_weak_residual_affine_is_momentum_conservation(residual_traj):
    phi = AffineFn([0.3, -1.0, 2.0], 0.5)
    assert abs(weak_form_residual(residual_traj, phi, 0.1)) <= 1e-12


def test_weak_residual_isotropic_quadratic_is_energy(residual_traj):
    # phi = |v|^2: the drift and diffusion brackets cancel pairwise, and the
    # rescaled dynamics pins the particle energy, so everything vanishes
    phi = QuadraticFn(np.eye(3))
    assert abs(weak_form_residual(residual_traj, phi, 0.1)) <= 1e-10


def test_weak_residual_bump_is_small(residual_traj):
    phi = GaussianBumpFn([0.0, 0.0, 0.0], 1.0, 0.5)
    assert abs(weak_form_residual(residual_traj, phi, 0.1)) < 0.05


def test_weak_residual_does_not_depend_on_pair_block(residual_traj, monkeypatch):
    import landausim.dynamics as dynamics
    phis = [GaussianBumpFn([0.3, 0.0, -0.2], 1.0, 0.5),
            QuadraticFn([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, -1.0]])]
    one = [weak_form_residual(residual_traj, phi, 0.1) for phi in phis]
    monkeypatch.setattr(dynamics, "_PAIR_BLOCK", 100)  # 24 blocks of 2 rows at N = 48
    many = [weak_form_residual(residual_traj, phi, 0.1) for phi in phis]
    assert many == pytest.approx(one, rel=1e-12, abs=1e-15)


def test_weak_residual_skips_coincident_pairs(residual_traj):
    # particle 1 sits on particle 0 in every snapshot; that pair carries no
    # interaction, so the residual equals the ordered-pair sum over V_i != V_j
    snaps = []
    for s in residual_traj.snapshots:
        v = s.v.copy()
        v[1] = v[0]
        snaps.append(ParticleState(v, s.t, s.step_index))
    traj = Trajectory(config=residual_traj.config, snapshots=snaps)
    phi = GaussianBumpFn([0.3, 0.0, -0.2], 1.0, 0.5)
    gamma = residual_traj.config.gamma
    vals = []
    for s in snaps:
        v, n = s.v, s.v.shape[0]
        g, h = phi.grad(v), phi.hess(v)
        total = 0.0
        for i in range(n):
            for j in range(n):
                z = v[i] - v[j]
                if i == j or not np.any(z):
                    continue
                r2 = float(z @ z)
                alpha = math.sqrt(r2) ** gamma
                total += -2.0 * alpha * float(z @ (g[i] - g[j]))
                total += alpha * (r2 * np.trace(h[i]) - float(z @ h[i] @ z))
        vals.append(total / n**2)
    expect = (-float(np.mean(phi.value(snaps[-1].v)))
              + float(np.mean(phi.value(snaps[0].v)))
              + float(np.trapezoid(vals, traj.times)))
    got = weak_form_residual(traj, phi, traj.times[-1])
    assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("coincident", [False, True])
def test_bump_integrand_matches_weak_form_residual(residual_traj, coincident):
    # the pair-pass integrand, fed block by block, against the post-hoc residual
    snaps = []
    for s in residual_traj.snapshots:
        v = s.v.copy()
        if coincident:
            v[1] = v[0]
        snaps.append(ParticleState(v, s.t, s.step_index))
    phi = GaussianBumpFn([0.3, 0.0, -0.2], 0.8, 0.5)
    gamma = residual_traj.config.gamma
    rows = []
    for s in snaps:
        consumer = BumpWeakIntegrand(phi, gamma, s.v)
        _feed_pairs(s.v, [consumer], _PairWalk(s.n))
        rows.append(consumer.row())
    traj = Trajectory(config=residual_traj.config, snapshots=snaps, diagnostics=rows)
    want = weak_form_residual(traj, phi, traj.times[-1])
    assert recorded_weak_residual(traj, phi) == pytest.approx(want, rel=1e-12, abs=0)


def test_weak_residual_allocates_no_block_beyond_its_walk(monkeypatch):
    # every block temporary lives in the walk's spare rows, and the Hessians
    # are gathered as six one-dimensional rows of unique entries, so at
    # N = 1024 (16 blocks) the residual allocates O(N) beyond the walk's own
    # 9.7 MB of buffers, where it used to take 11.6 MB
    traj = run(SimConfig(n_particles=1024, gamma=-2.0, dt=1e-3, t_end=0.002, seed=3,
                         eta=0.2, snapshot_stride=1))
    walks = []
    real_init = _PairWalk.__init__

    def recorded_init(self, n):
        walks.append(self)
        real_init(self, n)

    monkeypatch.setattr(_PairWalk, "__init__", recorded_init)
    phi = GaussianBumpFn(np.zeros(3), 1.0, 0.5)
    tracemalloc.start()
    try:
        weak_form_residual(traj, phi, traj.times[-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    walk_bytes = sum(a.nbytes for a in vars(walks[0]).values() if isinstance(a, np.ndarray))
    assert len(walks) == 1 and walk_bytes > 9e6
    assert peak - walk_bytes < 5e6, (peak, walk_bytes)


def test_weak_residual_stride_errors(residual_traj):
    phi = ConstantFn()
    with pytest.raises(StrideError):
        weak_form_residual(residual_traj, phi, 0.0137)
    clipped = Trajectory(config=residual_traj.config,
                         snapshots=residual_traj.snapshots[1:],
                         diagnostics=residual_traj.diagnostics[1:])
    with pytest.raises(StrideError):
        weak_form_residual(clipped, phi, 0.1)


# ---------------------------------------------------------------------------
# non-alignment, ball masses, iota

def test_nonalignment_worked_example():
    delta = 0.01
    ok, (m1, m2) = is_delta_nonaligned([0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                       [0.0, 1.0, 0.0], delta)
    assert ok
    assert m1 == pytest.approx(0.4, abs=1e-14)   # 1 - 6 sqrt(0.01)
    assert m2 == pytest.approx(0.56, abs=1e-14)  # 1 - (0.24 + 0.2)


def test_nonalignment_rigid_motion_invariance(rng):
    delta = 0.02
    v1, v2, v3 = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    shift = rng.normal(size=3)
    ok_a, (a1, a2) = is_delta_nonaligned(v1, v2, v3, delta)
    ok_b, (b1, b2) = is_delta_nonaligned(v1 @ q.T + shift, v2 @ q.T + shift,
                                         v3 @ q.T + shift, delta)
    assert ok_a == ok_b
    assert b1 == pytest.approx(a1, abs=1e-12)
    assert b2 == pytest.approx(a2, abs=1e-12)


def test_nonalignment_rejects_degenerate_triples():
    delta = 0.01
    ok, _ = is_delta_nonaligned([0, 0, 0], [1, 0, 0], [2, 0, 0], delta)
    assert not ok  # collinear
    ok, (m1, _) = is_delta_nonaligned([0, 0, 0], [0, 0, 0], [1, 0, 0], delta)
    assert not ok and m1 < 0.0  # v2 == v1
    ok, _ = is_delta_nonaligned([0, 0, 0], [0.1, 0, 0], [0, 1, 0], delta)
    assert not ok  # separation below 6 sqrt(delta)


def test_ball_mass_hand_value():
    delta = 0.4
    center = np.zeros(3)
    pts = np.array([[0.0, 0.0, 0.0],
                    [1.25 * delta, 0.0, 0.0],
                    [5.0, 0.0, 0.0]])
    assert ball_mass(pts, center, delta) == pytest.approx((1.0 + 0.5) / 3.0,
                                                          rel=1e-12)


def test_ball_mass_monotone_in_delta(rng):
    pts = rng.normal(size=(2000, 3))
    masses = [ball_mass(pts, np.zeros(3), d) for d in (0.1, 0.3, 0.9, 2.7)]
    assert all(b >= a for a, b in zip(masses, masses[1:]))
    assert all(0.0 <= m <= 1.0 for m in masses)


def test_ball_mass_density_route_matches_cloud(rng):
    model = maxwellian(1.0)
    quad = ball_mass(model, np.zeros(3), 0.5)
    emp = ball_mass(model.sample(rng, 400_000), np.zeros(3), 0.5)
    assert quad == pytest.approx(emp, abs=3e-3)
    with pytest.raises(ConfigError):
        ball_mass(object(), np.zeros(3), 0.5)


def test_iota_uniform_on_centers():
    delta = 0.05
    v1, v2, v3 = np.eye(3) * 4.0  # far apart, balls disjoint
    triple = NonAlignedTriple(v1, v2, v3, delta,
                              margins=(1.0, 1.0))
    cloud = np.array([v1, v2, v3])
    assert iota(cloud, triple) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert iota(np.array([v1]), triple) == 0.0  # one empty ball


def test_find_nonaligned_triple_on_density():
    # Three tight, well-separated modes whose centers land on the search
    # lattice (spacing max(2 sqrt(0.04), 3/6) = 0.5).  The mode centers carry
    # the three largest ball masses, so the returned triple must be exactly
    # the set of centers: that is the triple maximizing the minimum mass.
    centers = np.array([[-2.5, 0.0, 0.0], [2.5, 0.0, 0.0], [0.0, 2.5, 0.0]])
    target = GaussianMixtureModel([1 / 3, 1 / 3, 1 / 3], centers,
                                  [0.09 * np.eye(3)] * 3)
    triple = find_nonaligned_triple(target, delta=0.04, radius=3.0, kappa=1e-4)
    assert triple is not None
    got = sorted(tuple(c) for c in triple.centers)
    want = sorted(tuple(c) for c in centers)
    np.testing.assert_allclose(got, want, atol=1e-12)
    ok, margins = is_delta_nonaligned(triple.v1, triple.v2, triple.v3, 0.04)
    assert ok
    assert margins == triple.margins
    assert triple.min_mass >= 1e-4
    assert triple.min_mass == pytest.approx(
        min(ball_mass(target, c, 0.04) for c in triple.centers), rel=1e-12)
    assert iota(target, triple) == pytest.approx(triple.min_mass, rel=1e-12)


def test_find_nonaligned_triple_on_cloud():
    # Clusters at mutual distance ~6 with sigma = 0.05: the lattice (spacing
    # 2/3) misses them, so success exercises the quantile-rank cloud picks.
    rng = np.random.default_rng(7)
    centers = np.array([[-3.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    cloud = EmpiricalMeasure(np.concatenate(
        [c + 0.05 * rng.normal(size=(40, 3)) for c in centers]))
    triple = find_nonaligned_triple(cloud, delta=0.04, radius=4.0, kappa=5e-3)
    assert triple is not None
    # each returned point sits inside a distinct cluster
    got = np.stack(triple.centers)
    dists = np.linalg.norm(got[:, None, :] - centers[None], axis=2)
    assert sorted(np.argmin(dists, axis=1).tolist()) == [0, 1, 2]
    assert dists.min(axis=1).max() < 0.3
    assert triple.min_mass >= 5e-3
    assert iota(cloud, triple) >= 5e-3
    # a bare (N, 3) array is the same cloud, cloud candidates included
    bare = find_nonaligned_triple(cloud.points, delta=0.04, radius=4.0, kappa=5e-3)
    assert bare is not None
    np.testing.assert_array_equal(np.stack(bare.centers), got)
    assert (bare.margins, bare.min_mass) == (triple.margins, triple.min_mass)


def test_find_nonaligned_triple_infeasible_geometry():
    # 6 sqrt(delta) > 2 radius: no two candidate centers are far enough apart
    assert find_nonaligned_triple(maxwellian(1.0), delta=0.2, radius=1.0,
                                  kappa=1e-6) is None


def test_find_nonaligned_triple_infeasible_mass():
    # kappa close to 1 exceeds any smoothed ball mass of a unit Gaussian
    assert find_nonaligned_triple(maxwellian(1.0), delta=0.3, radius=3.0,
                                  kappa=0.9) is None


# ---------------------------------------------------------------------------
# increment scaling exponent

def test_increment_exponent_recovers_sqrt_and_linear():
    t = np.linspace(0.0, 1.0, 513)
    # the largest lag-L increment of sqrt(t) is sqrt(L), taken at t = 0
    out = increment_scaling_exponent(t, np.sqrt(t), statistic="max")
    assert out["exponent"] == pytest.approx(0.5, abs=1e-6)
    out_lin = increment_scaling_exponent(t, 2.0 * t)
    assert out_lin["exponent"] == pytest.approx(1.0, abs=0.01)
    assert len(out["lags"]) == len(out["amplitudes"]) >= 3


def test_increment_exponent_median_on_rough_path():
    # a random walk has lag-L increments of typical size sqrt(L)
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 1.0, 2049)
    walk = np.concatenate([[0.0], np.cumsum(rng.normal(size=2048))])
    walk *= math.sqrt(t[1] - t[0])
    out = increment_scaling_exponent(t, walk, statistic="median")
    assert out["exponent"] == pytest.approx(0.5, abs=0.15)


def test_increment_exponent_max_statistic():
    t = np.linspace(0.0, 1.0, 129)
    out = increment_scaling_exponent(t, 2.0 * t, statistic="max")
    assert out["exponent"] == pytest.approx(1.0, abs=0.01)


def test_increment_exponent_errors():
    with pytest.raises(ConfigError):
        increment_scaling_exponent([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ConfigError):
        increment_scaling_exponent(np.linspace(0, 1, 65), np.ones(65))
