"""End-to-end acceptance battery.

One test (or small group) per advertised guarantee, each asserting both the
quantitative tolerance and its own wall-clock budget.  Trend tests use fixed
seeds throughout, so every number here is reproducible bit-for-bit.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import isotonic_regression

from landausim.densities import ScaledModel, TensorPower
from landausim.diagnostics import (AffineFn, ConstantFn, GaussianBumpFn,
                                   NonAlignedTriple, ball_mass, bump_h,
                                   find_nonaligned_triple,
                                   increment_scaling_exponent,
                                   is_delta_nonaligned, iota,
                                   weak_form_residual)
from landausim.dynamics import (SimConfig, conserved_quantities, init_iid,
                                run, step)
from landausim.estimators import (EmpiricalMeasure, knn_entropy,
                                  pair_inverse_square)
from landausim.functionals import (MCSpec, J_functional,
                                   beta_power_identity_probes, entropy,
                                   entropy_production_D, fisher_information,
                                   k_family, tensor_consistency_D)
from landausim.potentials import (PotentialSpec, a_matrix, alpha_reg,
                                  cross_kernels, diffusion_sigmaN)
from landausim.reference import (MAXWELL_ANISOTROPY_RATE, aniso_gauss,
                                 maxwell_molecule_moment_ode, maxwellian,
                                 maxwellian_entropy, maxwellian_fisher)

BETAS = (0.0, 1.0 / 3.0, 0.5, 1.0)


@contextmanager
def budget(seconds: float):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"runtime budget exceeded: {elapsed:.1f}s >= {seconds}s"


# ---------------------------------------------------------------------------
# 1. pathwise momentum conservation, per step


def test_momentum_conserved_every_step():
    with budget(120):
        for gamma in (0.0, -2.0, -3.0):
            for n in (2, 64, 512):
                cfg = SimConfig(n_particles=n, gamma=gamma, dt=1e-4,
                                t_end=0.1, seed=17)
                state = init_iid(cfg)
                vscale = float(np.max(np.abs(state.v)))
                p_prev, _ = conserved_quantities(state)
                worst = 0.0
                for _ in range(1000):
                    state = step(state, cfg)
                    p, _ = conserved_quantities(state)
                    worst = max(worst, float(np.max(np.abs(p - p_prev))))
                    p_prev = p
                    vscale = max(vscale, float(np.max(np.abs(state.v))))
                assert np.isfinite(state.v).all(), (gamma, n)
                assert worst <= 1e-12 * n * vscale, (gamma, n, worst)


# ---------------------------------------------------------------------------
# 2. energy: drift halves with dt; rescale mode pins it


def _terminal_energy_drift(dt: float, seed: int, energy_mode: str = "none") -> float:
    cfg = SimConfig(n_particles=64, gamma=-2.0, dt=dt, t_end=0.96, seed=seed,
                    snapshot_stride=10 ** 9, energy_mode=energy_mode)
    traj = run(cfg)
    e0 = traj.diagnostics[0]["energy"]
    e1 = traj.diagnostics[-1]["energy"]
    return abs(e1 - e0) / e0


def test_energy_drift_scales_with_dt():
    with budget(300):
        seeds = range(56, 64)
        coarse = np.array([_terminal_energy_drift(0.16, s) for s in seeds])
        fine = np.array([_terminal_energy_drift(0.08, s) for s in seeds])
        ratio_of_medians = np.median(coarse) / np.median(fine)
        median_of_ratios = float(np.median(coarse / fine))
        assert 1.5 <= ratio_of_medians <= 2.5, ratio_of_medians
        assert 1.5 <= median_of_ratios <= 2.5, median_of_ratios
        assert _terminal_energy_drift(0.08, 56, "rescale") <= 1e-12


# ---------------------------------------------------------------------------
# 3. Gaussian closed forms and scaling laws for H and I


def test_entropy_fisher_closed_forms_and_scaling():
    with budget(60):
        for T in (0.5, 1.0, 2.0):
            g = maxwellian(T)
            assert entropy(g).value == pytest.approx(maxwellian_entropy(T), rel=1e-6)
            assert fisher_information(g).value == pytest.approx(
                maxwellian_fisher(T), rel=1e-6)
        for lam in (0.5, 2.0):
            for g in (maxwellian(1.0), aniso_gauss(2.0, 0.5, 0.5)):
                scaled = ScaledModel(g, lam)
                assert entropy(scaled).value == pytest.approx(
                    entropy(g).value + 3.0 * math.log(lam), rel=1e-6)
                assert fisher_information(scaled).value == pytest.approx(
                    lam ** 2 * fisher_information(g).value, rel=1e-6)


# ---------------------------------------------------------------------------
# 4. dissipation functionals vanish on equilibrium tensors


def test_equilibrium_dissipation_vanishes():
    with budget(120):
        pot = PotentialSpec(gamma=-2.0, eta=0.1)
        mc = MCSpec(n_samples=1_000_000, seed=4)
        for T in (0.5, 1.0, 2.0):
            pair = TensorPower(maxwellian(T), 2)
            d = entropy_production_D(pair, pot, mc)
            assert abs(d.value) <= 5.0 * d.abs_error, (T, d)
            j = J_functional(pair, pot, mc)
            assert abs(j.value) <= 5.0 * j.abs_error, (T, j)
            fam = k_family(pair, BETAS, pot, mc)
            for beta in BETAS:
                est = fam.estimates[beta]
                assert abs(est.value) <= 5.0 * est.abs_error, (T, beta, est)


# ---------------------------------------------------------------------------
# 5. the beta family: pointwise identity, shared-sample ladder, sandwich


def test_beta_identity_ladder_and_sandwich():
    with budget(300):
        aniso = aniso_gauss(2.0, 0.5, 0.5)
        pair = TensorPower(aniso, 2)
        pot = PotentialSpec(gamma=-2.0, eta=0.1)

        probes = pair.sample(np.random.default_rng(5), 10_000)
        for beta in BETAS:
            worst = beta_power_identity_probes(pair, pot, beta, probes)
            assert worst <= 1e-12, (beta, worst)

        fam = k_family(pair, BETAS, pot, MCSpec(n_samples=200_000, seed=11))
        k1 = fam.estimates[1.0]
        for beta in BETAS:
            res = fam.residual(beta)  # K_beta - K_1/3 - (beta - 1/3)^2 J
            assert abs(res.value) <= 3.0 * res.abs_error + 1e-12, (beta, res)
            est = fam.estimates[beta]
            coef = 2.25 * (beta - 1.0 / 3.0) ** 2
            lower_slack = 3.0 * (est.abs_error + coef * k1.abs_error)
            assert coef * k1.value <= est.value + lower_slack, (beta, est, k1)
            diff = fam.difference(beta, 1.0)  # K_beta - K_1
            assert diff.value <= 3.0 * diff.abs_error + 1e-12, (beta, diff)


# ---------------------------------------------------------------------------
# 6. kernel algebra: rank-one decomposition, diffusion square, annihilation


def test_kernel_algebra_identities():
    with budget(60):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(100_000, 3)) * 10.0 ** rng.uniform(-2, 1, (100_000, 1))
        r2 = np.sum(z * z, axis=1)
        scale = 1.0 + r2

        bk = cross_kernels(z)
        sum_outer = np.einsum("pka,pkb->pab", bk, bk)
        err = np.abs(sum_outer - a_matrix(z)).max(axis=(1, 2)) / scale
        assert err.max() <= 1e-12

        for gamma, eta in ((-2.0, 0.1), (-3.0, 0.2)):
            spec = PotentialSpec(gamma=gamma, eta=eta)
            sig = diffusion_sigmaN(spec, z)
            alpha = alpha_reg(spec, np.sqrt(r2))
            target = alpha[:, None, None] * a_matrix(z)
            err = (np.abs(np.einsum("pab,pbc->pac", sig, sig) - target)
                   .max(axis=(1, 2)) / (1.0 + alpha * r2))
            assert err.max() <= 1e-12, gamma

        # b_k . grad of any radial function vanishes (finite differences)
        pts = rng.normal(size=(200, 3))
        f = lambda w: np.sin(np.sum(w * w, axis=-1)) * np.exp(-np.sum(w * w, axis=-1) / 2)
        h = 1e-6
        bhat = cross_kernels(pts)
        bhat = bhat / np.maximum(np.linalg.norm(bhat, axis=-1, keepdims=True), 1e-30)
        for k in range(3):
            d = (f(pts + h * bhat[:, k, :]) - f(pts - h * bhat[:, k, :])) / (2 * h)
            assert np.abs(d).max() <= 1e-6, k


# ---------------------------------------------------------------------------
# 7. pair-singularity statistic: Gaussian value and boundedness along runs


def test_pair_statistic_gaussian_clouds():
    with budget(180):
        vals = np.array([
            pair_inverse_square(EmpiricalMeasure(
                np.random.default_rng(s).normal(size=(10_000, 3))))
            for s in range(16)])
        sem = vals.std(ddof=1) / 4.0
        assert abs(vals.mean() - 0.5) <= 3.0 * sem, (vals.mean(), sem)


def test_pair_statistic_bounded_along_coulomb_runs():
    with budget(420):
        series = []
        for seed in range(16):
            cfg = SimConfig(n_particles=256, gamma=-3.0, dt=1e-3, t_end=0.5,
                            seed=seed, snapshot_stride=25, g0="maxwellian(0.5)")
            traj = run(cfg)
            series.append([pair_inverse_square(EmpiricalMeasure(s.v))
                           for s in traj.snapshots])
        series = np.asarray(series)
        mean = series.mean(axis=0)
        sem = series.std(axis=0, ddof=1) / 4.0
        bound = 3.0
        assert np.all(mean <= bound + 3.0 * sem), float(np.max(mean - 3 * sem))


# ---------------------------------------------------------------------------
# 8. weak-form residual: decays with N, vanishes on constant/affine tests


def test_weak_form_residual_decays_with_n():
    with budget(900):
        phi = GaussianBumpFn(np.zeros(3), 1.0, 0.5)
        medians = []
        sample_traj = None
        for n in (64, 128, 256):
            vals = []
            for seed in range(16):
                cfg = SimConfig(n_particles=n, gamma=-2.0, dt=1e-3, t_end=0.5,
                                seed=seed, eta=0.2, snapshot_stride=10)
                traj = run(cfg)
                vals.append(abs(weak_form_residual(traj, phi, 0.5)))
                if sample_traj is None:
                    sample_traj = traj
            medians.append(float(np.median(vals)))
        assert medians[0] >= medians[1] >= medians[2], medians

        assert weak_form_residual(sample_traj, ConstantFn(1.0), 0.5) == 0.0
        aff = AffineFn(np.array([0.3, -1.1, 0.7]), 0.2)
        assert abs(weak_form_residual(sample_traj, aff, 0.5)) <= 1e-12


# ---------------------------------------------------------------------------
# 9. gamma = 0 oracle: anisotropy decay rate against the moment ODE


def test_maxwell_molecule_anisotropy_rate():
    with budget(900):
        Ps = []
        for seed in range(16):
            cfg = SimConfig(n_particles=512, gamma=0.0, dt=1e-3, t_end=0.12,
                            seed=seed, snapshot_stride=5,
                            g0="aniso_gauss(2,0.5,0.5)")
            traj = run(cfg)
            Ps.append([s.v.T @ s.v / s.v.shape[0] for s in traj.snapshots])
            times = np.asarray(traj.times)
        P = np.mean(Ps, axis=0)
        dev = P - (np.trace(P, axis1=1, axis2=2) / 3.0)[:, None, None] * np.eye(3)
        norms = np.linalg.norm(dev, axis=(1, 2))
        slope = -np.polyfit(times, np.log(norms), 1)[0]
        rate = MAXWELL_ANISOTROPY_RATE
        assert abs(slope - rate) <= 0.10 * rate, slope

        # the closed-form moment flow conserves the trace to rounding
        P0 = np.diag([2.0, 0.5, 0.5])
        flow = maxwell_molecule_moment_ode(P0, np.linspace(0.0, 1.0, 101))
        traces = np.trace(flow, axis1=-2, axis2=-1)
        np.testing.assert_allclose(traces, 3.0, rtol=1e-15)

        drift = _terminal_energy_drift(0.08, 56, "rescale")
        assert drift <= 1e-10


# ---------------------------------------------------------------------------
# 10. entropy estimate is non-increasing along runs, up to seed noise


def test_entropy_monotone_up_to_noise():
    with budget(900):
        H = []
        for seed in range(16):
            cfg = SimConfig(n_particles=512, gamma=-2.0, dt=1e-3, t_end=0.5,
                            seed=seed, snapshot_stride=25,
                            g0="aniso_gauss(2,0.5,0.5)")
            traj = run(cfg)
            H.append([knn_entropy(s.v) for s in traj.snapshots])
        H = np.asarray(H)
        mean = H.mean(axis=0)
        dispersion = H.std(axis=0, ddof=1)
        fit = isotonic_regression(mean, increasing=False).x
        violation = float(np.max(np.abs(mean - fit)))
        assert violation <= float(dispersion.max()), (violation, dispersion.max())
        assert mean[-1] < mean[0]  # it actually relaxes


# ---------------------------------------------------------------------------
# 11. non-alignment machinery


def test_nonalignment_worked_example():
    with budget(10):
        ok, margins = is_delta_nonaligned(
            np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
            0.01)
        assert ok
        assert margins[0] == pytest.approx(1.0 - 6.0 * math.sqrt(0.01), abs=1e-14)
        assert margins[1] == pytest.approx(
            1.0 - (24.0 * 0.01 + 2.0 * math.sqrt(0.01)), abs=1e-14)
        assert margins[0] == pytest.approx(0.4, abs=1e-14)
        assert margins[1] == pytest.approx(0.56, abs=1e-14)


def test_triple_search_on_unit_gaussian():
    """No kappa-heavy triple exists at these parameters, so the search says so.

    For every center c, ball_mass(f, c, delta) = int h((w - c)/delta) f(w) dw
    is at most ||f||_inf * delta^3 * int h.  For the unit Gaussian
    ||f||_inf = (2 pi)^{-3/2} and int h ~ 8.32, so at delta = 0.05 the bound
    is ~6.6e-5 < kappa = 1e-3: no ball is kappa-heavy and
    find_nonaligned_triple must return None.  The density route of ball_mass
    at the origin is pinned to its radial closed form
    (2 pi)^{-3/2} delta^3 4 pi int_0^{3/2} h(r) r^2 exp(-delta^2 r^2 / 2) dr.
    The search succeeds on feasible targets (see tests/test_diagnostics.py).
    """
    with budget(120):
        target = maxwellian(1.0)
        delta, kappa = 0.05, 1e-3
        triple = find_nonaligned_triple(target, delta=delta, radius=3.0,
                                        kappa=kappa)
        assert triple is None, f"found a triple at {triple.centers}"

        def radial_integral(weight):
            # 4 pi int_0^{3/2} h(r) r^2 weight(r) dr, split at the plateau edge
            def integrand(r):
                return bump_h([[r, 0.0, 0.0]])[0] * r * r * weight(r)
            return 4.0 * math.pi * sum(
                quad(integrand, a, b, epsabs=0.0, epsrel=1e-12)[0]
                for a, b in ((0.0, 1.0), (1.0, 1.5)))

        peak_density = (2.0 * math.pi) ** -1.5
        closed_form = peak_density * delta**3 * radial_integral(
            lambda r: math.exp(-0.5 * (delta * r) ** 2))
        peak = ball_mass(target, np.zeros(3), delta)
        assert peak == pytest.approx(closed_form, rel=1e-6)
        bound = peak_density * delta**3 * radial_integral(lambda r: 1.0)
        assert bound < kappa, f"ball-mass bound {bound:.2e} >= {kappa}"


def test_iota_time_regularity_along_trajectory():
    with budget(450):
        cfg = SimConfig(n_particles=256, gamma=-2.0, dt=1.5625e-5, t_end=0.032,
                        seed=2, snapshot_stride=1, g0="maxwellian(1)")
        traj = run(cfg)
        triple = NonAlignedTriple(np.array([-1.0, 0.0, 0.0]),
                                  np.array([1.0, 0.0, 0.0]),
                                  np.array([0.0, 1.0, 0.0]), 1.0, (0.0, 0.0))
        series = np.array([iota(EmpiricalMeasure(s.v), triple)
                           for s in traj.snapshots])
        fit = increment_scaling_exponent(np.asarray(traj.times), series,
                                         statistic="median")
        assert fit["exponent"] >= 0.4, fit["exponent"]


# ---------------------------------------------------------------------------
# 12. tensorized D reduces to the pair functional


def test_tensor_consistency_of_entropy_production():
    with budget(300):
        aniso = aniso_gauss(2.0, 0.5, 0.5)
        pot = PotentialSpec(gamma=-2.0, eta=0.1)
        est3, est2 = tensor_consistency_D(aniso, 3, pot,
                                          MCSpec(n_samples=200_000, seed=3))
        tol = 3.0 * math.hypot(est3.abs_error, est2.abs_error)
        assert abs(est3.value - est2.value) <= tol

        indep = entropy_production_D(TensorPower(aniso, 2), pot,
                                     MCSpec(n_samples=200_000, seed=77))
        tol = 3.0 * math.hypot(est3.abs_error, indep.abs_error)
        assert abs(est3.value - indep.value) <= tol
