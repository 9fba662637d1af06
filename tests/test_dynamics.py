import hashlib
import math

import numpy as np
import pytest

from landausim.densities import GaussianModel
import landausim.dynamics as dynamics
from landausim.dynamics import (NoiseKey, ParticleState, SimConfig,
                                Trajectory, conserved_quantities, init_iid,
                                pair_noise, run, step)
from landausim.errors import BlowupError, ConfigError, StrideError


def _cfg(**kw):
    base = dict(n_particles=16, gamma=-2.0, dt=1e-3, t_end=0.01, seed=3,
                eta=0.2)
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# SimConfig

def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(n_particles=1)
    with pytest.raises(ConfigError):
        _cfg(dt=0.0)
    with pytest.raises(ConfigError):
        _cfg(t_end=-1.0)
    with pytest.raises(ConfigError):
        _cfg(seed=-1)
    with pytest.raises(ConfigError):
        _cfg(energy_mode="clamp")
    with pytest.raises(ConfigError):
        _cfg(snapshot_stride=0)
    with pytest.raises(ConfigError):
        _cfg(gamma=1.0)
    with pytest.raises(ConfigError):
        _cfg(eta=-0.5)


def test_config_dict_roundtrip():
    cfg = _cfg(energy_mode="rescale", snapshot_stride=4)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_rejects_unknown_and_missing():
    with pytest.raises(ConfigError, match="unknown"):
        SimConfig.from_dict(dict(n_particles=8, gamma=-2.0, dt=1e-3,
                                 t_end=0.1, n_steps=5))
    with pytest.raises(ConfigError, match="missing"):
        SimConfig.from_dict(dict(n_particles=8, gamma=-2.0, dt=1e-3))


def test_eta_default_schedule():
    cfg = _cfg(eta=None, n_particles=256)
    assert cfg.eta_effective == pytest.approx(256 ** -0.25, rel=1e-15)
    assert _cfg(eta=0.37).eta_effective == 0.37
    pot = cfg.potential()
    assert pot.gamma == cfg.gamma and pot.eta == cfg.eta_effective


def test_n_steps_rounding():
    assert _cfg(dt=0.1, t_end=1.0).n_steps == 10
    assert _cfg(dt=0.1, t_end=0.0).n_steps == 0
    # 0.3 / 0.1 is 2.9999... in floats; rounding must still give 3
    assert _cfg(dt=0.1, t_end=0.3).n_steps == 3


# ---------------------------------------------------------------------------
# Keyed noise

def test_noise_key_validation_and_rank():
    with pytest.raises(ConfigError):
        NoiseKey(seed=0, step_index=0, i=3, j=3)
    with pytest.raises(ConfigError):
        NoiseKey(seed=0, step_index=0, i=4, j=2)
    assert NoiseKey(0, 0, 0, 1).row_index(8) == 0
    assert NoiseKey(0, 0, 0, 7).row_index(8) == 6
    assert NoiseKey(0, 0, 1, 2).row_index(8) == 7
    assert NoiseKey(0, 0, 6, 7).row_index(8) == 27  # last pair of n = 8


def test_rank_matches_triu_enumeration():
    n = 11
    iu, ju = np.triu_indices(n, k=1)
    for rank, (i, j) in enumerate(zip(iu, ju)):
        assert NoiseKey(0, 0, int(i), int(j)).row_index(n) == rank


@pytest.mark.parametrize("block", [1, 5, 100, None])
@pytest.mark.parametrize("n", [2, 3, 7, 300, 1025])
def test_pair_blocks_walk_the_rank_order(n, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(dynamics, "_PAIR_BLOCK", block)
    cap = max(dynamics._PAIR_BLOCK, n - 1)
    blocks = list(dynamics._pair_blocks(n))
    iu, ju = np.triu_indices(n, k=1)
    np.testing.assert_array_equal(np.concatenate([b[1] for b in blocks]), iu)
    np.testing.assert_array_equal(np.concatenate([b[2] for b in blocks]), ju)
    expect_lo = 0
    for lo, bi, bj in blocks:
        assert 0 < bi.size <= cap
        assert lo == expect_lo  # rank offsets are contiguous
        assert NoiseKey(0, 0, int(bi[0]), int(bj[0])).row_index(n) == lo
        expect_lo += bi.size
    assert expect_lo == n * (n - 1) // 2


def test_pair_noise_shape_determinism_and_scale():
    a = pair_noise(seed=9, step_index=4, n=8, dt=0.25)
    b = pair_noise(seed=9, step_index=4, n=8, dt=0.25)
    assert a.shape == (28, 3)
    np.testing.assert_array_equal(a, b)
    assert np.any(pair_noise(9, 5, 8, 0.25) != a)   # new step, new draw
    assert np.any(pair_noise(10, 4, 8, 0.25) != a)  # new seed, new draw
    big = pair_noise(0, 0, 200, 4.0)
    assert big.std() == pytest.approx(2.0, rel=0.02)  # sqrt(dt) scaling


def test_noise_key_increment_indexes_the_shared_array():
    arr = pair_noise(seed=2, step_index=7, n=6, dt=0.1)
    key = NoiseKey(seed=2, step_index=7, i=1, j=4)
    np.testing.assert_array_equal(key.increment(6, 0.1), arr[key.row_index(6)])


# ---------------------------------------------------------------------------
# Initialization

def test_init_iid_deterministic_and_distribution():
    cfg = _cfg(n_particles=20000, g0="maxwellian(2)")
    s1, s2 = init_iid(cfg), init_iid(cfg)
    np.testing.assert_array_equal(s1.v, s2.v)
    assert s1.v.shape == (20000, 3)
    # CLT checks at T = 2: mean 0, energy per particle 3T
    assert np.max(np.abs(s1.v.mean(axis=0))) < 0.05
    assert (s1.v ** 2).sum() / 20000 == pytest.approx(6.0, rel=0.03)


def test_init_iid_model_override():
    cfg = _cfg(n_particles=50)
    model = GaussianModel([5.0, 0.0, 0.0], 0.01)
    s = init_iid(cfg, model)
    assert abs(s.v[:, 0].mean() - 5.0) < 0.1


def test_init_iid_rejects_wrong_dimension():
    cfg = _cfg(n_particles=10)
    with pytest.raises(ConfigError):
        init_iid(cfg, GaussianModel(np.zeros(2), 1.0))


# ---------------------------------------------------------------------------
# One step: conservation, exchangeability, fixed points

@pytest.mark.parametrize("gamma", [0.0, -2.0, -3.0])
def test_momentum_conserved_each_step(gamma):
    cfg = _cfg(n_particles=64, gamma=gamma, dt=1e-3, t_end=0.2, eta=0.2,
               seed=11)
    state = init_iid(cfg)
    pot = cfg.potential()
    p0, _ = conserved_quantities(state)
    for _ in range(50):
        state = step(state, cfg, pot)
        p, _ = conserved_quantities(state)
        bound = 1e-12 * state.n * np.max(np.abs(state.v))
        assert np.max(np.abs(p - p0)) <= bound


def test_energy_rescale_mode_is_exact():
    cfg = _cfg(n_particles=32, energy_mode="rescale", t_end=0.2, dt=2e-3,
               seed=7)
    state = init_iid(cfg)
    pot = cfg.potential()
    _, e0 = conserved_quantities(state)
    for _ in range(cfg.n_steps):
        state = step(state, cfg, pot, e_target=e0)
        _, e = conserved_quantities(state)
        assert abs(e - e0) <= 1e-12 * e0


def test_energy_martingale_raw_scheme():
    # without rescaling the energy drift is a small martingale fluctuation
    # plus an O(dt) bias; across seeds it stays well under half a percent
    drifts = []
    for seed in range(24):
        cfg = _cfg(n_particles=64, dt=1e-3, t_end=0.1, seed=seed, eta=0.2)
        state = init_iid(cfg)
        pot = cfg.potential()
        _, e0 = conserved_quantities(state)
        for _ in range(cfg.n_steps):
            state = step(state, cfg, pot)
        _, e1 = conserved_quantities(state)
        drifts.append((e1 - e0) / e0)
    drifts = np.array(drifts)
    assert np.median(np.abs(drifts)) < 5e-3
    se = drifts.std(ddof=1) / math.sqrt(drifts.size)
    assert abs(drifts.mean()) < 4.0 * se + 1e-4  # consistent with zero mean


def test_exchangeability_under_relabeling():
    # permuting particle labels and remapping the pair noise (with the
    # antisymmetry sign for flipped pairs) permutes the output state
    cfg = _cfg(n_particles=12, dt=1e-3, seed=5)
    state = init_iid(cfg)
    pot = cfg.potential()
    n = state.n
    noise = pair_noise(cfg.seed, 0, n, cfg.dt)

    rng = np.random.default_rng(99)
    p = rng.permutation(n)
    remapped = np.empty_like(noise)
    for a in range(n):
        for b in range(a + 1, n):
            oi, oj = int(p[a]), int(p[b])
            sign = 1.0 if oi < oj else -1.0
            src = NoiseKey(0, 0, min(oi, oj), max(oi, oj)).row_index(n)
            dst = NoiseKey(0, 0, a, b).row_index(n)
            remapped[dst] = sign * noise[src]

    out = step(state, cfg, pot, noise=noise)
    out_perm = step(ParticleState(state.v[p].copy()), cfg, pot, noise=remapped)
    scale = np.max(np.abs(out.v))
    assert np.max(np.abs(out_perm.v - out.v[p])) <= 1e-12 * scale


def test_two_particles_conserve_center_of_mass():
    cfg = _cfg(n_particles=2, dt=1e-3, t_end=0.1, seed=1)
    state = ParticleState(np.array([[1.0, 0.0, 0.0], [-1.0, 0.5, 0.0]]))
    pot = cfg.potential()
    com0 = state.v.sum(axis=0)
    for _ in range(100):
        state = step(state, cfg, pot)
    np.testing.assert_allclose(state.v.sum(axis=0), com0, atol=1e-13)


def test_coincident_pair_is_a_fixed_point():
    # both the drift and the diffusion vanish at z = 0, so a fully collapsed
    # cloud never moves
    cfg = _cfg(n_particles=4, dt=1e-2, seed=0)
    v = np.tile([0.3, -0.2, 0.9], (4, 1))
    out = step(ParticleState(v.copy()), cfg, cfg.potential())
    np.testing.assert_array_equal(out.v, v)


# ---------------------------------------------------------------------------
# run() and Trajectory

def test_run_deterministic_and_snapshot_grid():
    cfg = _cfg(n_particles=24, t_end=0.02, dt=1e-3, snapshot_stride=5)
    t1, t2 = run(cfg), run(cfg)
    np.testing.assert_array_equal(t1.snapshots[-1].v, t2.snapshots[-1].v)
    np.testing.assert_allclose(t1.times, [0.0, 0.005, 0.01, 0.015, 0.02])
    assert [d["step"] for d in t1.diagnostics] == [0, 5, 10, 15, 20]
    assert t1.error is None and t1.runtime_s > 0.0


def test_run_records_final_step_off_stride():
    cfg = _cfg(t_end=0.007, dt=1e-3, snapshot_stride=5)
    traj = run(cfg)
    assert [s.step_index for s in traj.snapshots] == [0, 5, 7]


def test_run_t_end_zero_is_a_single_snapshot():
    traj = run(_cfg(t_end=0.0))
    assert len(traj.snapshots) == 1
    assert traj.snapshots[0].t == 0.0


def test_state_at_and_stride_error():
    cfg = _cfg(t_end=0.02, dt=1e-3, snapshot_stride=5)
    traj = run(cfg)
    assert traj.state_at(0.01).step_index == 10
    with pytest.raises(StrideError):
        traj.state_at(0.0035)


def test_run_observers_merge_rows():
    seen = []

    def spy(s):
        seen.append(s.step_index)
        return {"maxv": float(np.max(np.abs(s.v)))}

    traj = run(_cfg(t_end=0.002, dt=1e-3), observers=(spy,))
    assert seen == [0, 1, 2]
    assert all("maxv" in row and "energy" in row for row in traj.diagnostics)


def test_blowup_attaches_partial_trajectory():
    # gamma = 0 with a huge step size amplifies velocities geometrically until
    # overflow; the raised error carries the truncated trajectory
    cfg = _cfg(n_particles=8, gamma=0.0, eta=1.0, dt=1e3, t_end=1e6, seed=2,
               snapshot_stride=10)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError) as exc:
            run(cfg)
    traj = exc.value.trajectory
    assert isinstance(traj, Trajectory)
    assert traj.error == {"type": "blowup", "step": exc.value.step_index}
    assert 0 < exc.value.step_index < cfg.n_steps
    assert len(traj.snapshots) >= 1
    assert np.all(np.isfinite(traj.snapshots[-1].v))


def test_run_rescale_keeps_initial_energy():
    cfg = _cfg(n_particles=32, t_end=0.05, dt=1e-3, energy_mode="rescale")
    traj = run(cfg)
    e = [row["energy"] for row in traj.diagnostics]
    assert max(abs(x - e[0]) for x in e) <= 1e-12 * e[0]


# ---------------------------------------------------------------------------
# Seeded-output digests: any change to the step's arithmetic or summation
# order shows up here.  A change that moves results on purpose updates the
# digest and says why.

_DIGEST_CONFIGS = [
    (dict(n_particles=64, gamma=0.0, dt=1e-2, t_end=0.1, seed=1, eta=0.5),
     "dc34ff8a8e7e44273eeeeb6aaa996bff"
     "db9bc5936c32f69ebbd392f0c3ddd663"),
    # N = 400 has 79 800 pairs: the step walks more than one row block
    (dict(n_particles=400, gamma=-2.0, dt=1e-3, t_end=0.005, seed=2,
          energy_mode="rescale"),
     "2fa9bb788d6e69a8ae2827e12cc9a1d6"
     "1b4b916f687b653803b275498de099b1"),
    (dict(n_particles=130, gamma=-3.0, dt=1e-3, t_end=0.01, seed=3),
     "0d87e65770371858244518026beab7e2"
     "fc0fa3cd164b63d2ef038dbb97921704"),
]


@pytest.mark.parametrize("kw, digest", _DIGEST_CONFIGS,
                         ids=["gamma0", "gamma-2", "gamma-3"])
def test_seeded_final_snapshot_digest(kw, digest):
    cfg = SimConfig(snapshot_stride=1000, **kw)
    final = run(cfg).snapshots[-1]
    assert final.step_index == cfg.n_steps
    got = hashlib.sha256(final.v.astype("<f8").tobytes()).hexdigest()
    assert got == digest
