import hashlib
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from landausim.diagnostics import BumpWeakIntegrand, GaussianBumpFn
import landausim.dynamics as dynamics
from landausim.dynamics import (ParticleState, SimConfig, Trajectory,
                                conserved_quantities, init_iid, pair_noise, run,
                                step)
from landausim.errors import BlowupError, ConfigError
from landausim.estimators import EmpiricalMeasure, PairStats, pair_inverse_square
from landausim.potentials import diffusion_sigmaN, drift_bN

from _child import avx512_dispatch_targets, run_child


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
    with pytest.raises(ConfigError, match="step count"):  # t_end / dt overflows
        _cfg(dt=1e-300, t_end=1e300)
    for name in ("gamma", "dt", "t_end", "eta", "eta_c", "eta_kappa", "theta"):
        for bad in (math.nan, math.inf, 10 ** 400):  # 10**400 is beyond the float range
            with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
                _cfg(**{name: bad})
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
    # the default-eta rule: a clip to [1e-4, 1] would hide each of these
    for bad in (dict(eta_c=-1.0), dict(eta_c=0.0), dict(eta_c=math.inf),
                dict(eta_c=math.nan), dict(eta_kappa=-3.0), dict(eta_kappa=math.inf),
                dict(eta_kappa=math.nan)):
        with pytest.raises(ConfigError, match="eta_c|eta_kappa"):
            _cfg(eta=None, **bad)


@pytest.mark.parametrize("g0", [3, None, "nosuch(1)", "aniso_gauss(2,0.5)", "maxwellian(nan)"])
def test_config_rejects_a_bad_g0(g0):
    # the preset is resolved, and so checked, when the config is built
    with pytest.raises(ConfigError, match="g0|preset"):
        _cfg(g0=g0)


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
    pot = cfg.potential
    assert pot.gamma == cfg.gamma and pot.eta == cfg.eta_effective


def test_n_steps_rounding():
    assert _cfg(dt=0.1, t_end=1.0).n_steps == 10
    assert _cfg(dt=0.1, t_end=0.0).n_steps == 0
    # 0.3 / 0.1 is 2.9999... in floats; rounding must still give 3
    assert _cfg(dt=0.1, t_end=0.3).n_steps == 3
    # an int t_end beyond int64 counts like the float of the same value
    assert _cfg(dt=0.1, t_end=10 ** 20).n_steps == _cfg(dt=0.1, t_end=1e20).n_steps


# ---------------------------------------------------------------------------
# Keyed noise

@pytest.mark.parametrize("block", [1, 5, 100, None])
@pytest.mark.parametrize("n", [2, 3, 7, 300, 1025])
def test_pair_blocks_walk_the_rank_order(n, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(dynamics, "_PAIR_BLOCK", block)
    cap = max(dynamics._PAIR_BLOCK, n - 1)
    walk = dynamics._PairWalk(n)
    iu, ju = np.triu_indices(n, k=1)
    for seed in (n, n + 1):  # the same walk twice, over two clouds
        v = np.random.default_rng(seed).normal(size=(n, 3))
        # the yielded arrays are views of the walk's buffers, valid until the next block
        blocks = [[a.copy() for a in arrays] for *arrays, _ in walk.blocks(v)]
        # the blocks are contiguous runs of the rank order
        np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks]), iu)
        np.testing.assert_array_equal(np.concatenate([b[1] for b in blocks]), ju)
        for bi, bj, z, r2 in blocks:
            np.testing.assert_array_equal(z.T, v[bi] - v[bj])
            np.testing.assert_allclose(r2, np.sum(z * z, axis=0), rtol=1e-15, atol=0)
            assert 0 < bi.size <= cap


@pytest.mark.parametrize("n", [7, 400])  # one row block; three
def test_walk_r2_has_the_bits_of_the_row_major_einsum(n):
    # the (3, m) walk sums (z0^2 + z2^2) + z1^2, as einsum does on (m, 3) rows
    v = np.random.default_rng(n).normal(size=(n, 3)) * np.array([1.0, 1e-3, 30.0])
    for iu, ju, z, r2, _ in dynamics._PairWalk(n).blocks(v):
        rows = v[iu] - v[ju]
        np.testing.assert_array_equal(z.T, rows)
        np.testing.assert_array_equal(r2, np.einsum("pc,pc->p", rows, rows))


def test_walk_rejects_a_cloud_of_another_size():
    with pytest.raises(ValueError, match="a walk over 5 points got 6"):
        next(dynamics._PairWalk(5).blocks(np.zeros((6, 3))))


def test_pair_noise_shape_determinism_and_scale():
    a = pair_noise(seed=9, step_index=4, n=8, dt=0.25)
    b = pair_noise(seed=9, step_index=4, n=8, dt=0.25)
    assert a.shape == (28, 3)
    np.testing.assert_array_equal(a, b)
    assert np.any(pair_noise(9, 5, 8, 0.25) != a)   # new step, new draw
    assert np.any(pair_noise(10, 4, 8, 0.25) != a)  # new seed, new draw
    big = pair_noise(0, 0, 200, 4.0)
    assert big.std() == pytest.approx(2.0, rel=0.02)  # sqrt(dt) scaling


def _assert_mean_within_5_se(samples, mean):
    se = samples.std() / math.sqrt(samples.size)
    assert abs(samples.mean() - mean) < 5 * se, (samples.mean(), mean, se)


def test_pair_noise_moments_and_independence():
    # one step at N = 400 draws 239 400 increments: N(0, dt) in the first
    # four moments, and uncorrelated with the next step, with another seed
    # and with the init draw of the same seed (maxwellian(1) samples plain
    # standard normals from its stream)
    n, dt, seed = 400, 0.01, 7
    x = pair_noise(seed, 0, n, dt).ravel()
    _assert_mean_within_5_se(x, 0.0)
    _assert_mean_within_5_se(x ** 2, dt)
    _assert_mean_within_5_se(x ** 4, 3 * dt ** 2)
    init = init_iid(_cfg(n_particles=x.size // 3, seed=seed)).v.ravel()
    for other in (pair_noise(seed, 1, n, dt).ravel(), pair_noise(seed + 1, 0, n, dt).ravel(),
                  init):
        _assert_mean_within_5_se(x * other, 0.0)


def _step_with_noise(state, cfg, noise, **kwargs):
    """step with the rows of noise, in rank order, as its pair increments:
    the step's draws run in block order on one thread, so a substitute for
    _draw_noise that copies the next rows of noise into each block's slot
    hands every pair its row."""
    taken = 0

    def copy_rows(stream, raw, db, sqrt_dt):
        nonlocal taken
        m = db.shape[1]
        np.copyto(db, noise[taken:taken + m].T)
        taken += m

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_draw_noise", copy_rows)
        out = step(state, cfg, **kwargs)
    assert taken == len(noise)
    return out


@pytest.mark.parametrize("n", [3, 258, 400, 1025])
def test_block_noise_is_the_keyed_array(n):
    # blocks 1, 2, ... of the keyed noise are drawn one block ahead on a
    # worker thread; the step has the bits of the whole-step keyed array
    cfg = _cfg(n_particles=n, gamma=-3.0, eta=None, seed=11)
    assert len(dynamics._PairWalk(n).sizes) == {3: 1, 258: 2, 400: 3, 1025: 16}[n]
    state = ParticleState(init_iid(cfg).v, step_index=5)
    keyed = _step_with_noise(state, cfg, pair_noise(cfg.seed, 5, n, cfg.dt),
                             consumers=[a := PairStats(0.1)])
    drawn = step(state, cfg, consumers=[b := PairStats(0.1)])
    assert (drawn.v == keyed.v).all()
    assert b.row() == a.row()


class _ThreadCount:
    """threading.Thread.start, counting the threads started."""

    def __init__(self, monkeypatch):
        self.started = 0
        start = threading.Thread.start

        def counted_start(thread):
            self.started += 1
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)


@pytest.mark.parametrize("n", [2, 257], ids=["one-pair", "one-block"])
def test_a_step_without_a_keyed_draw_ahead_starts_no_thread(n, monkeypatch):
    threads = _ThreadCount(monkeypatch)
    cfg = _cfg(n_particles=n)
    step(init_iid(cfg), cfg)  # the smallest and the largest one-block step
    assert threads.started == 0
    cfg = _cfg(n_particles=258)
    step(init_iid(cfg), cfg)  # two blocks: one worker
    assert threads.started == 1


def test_multi_block_runs_leave_no_thread_behind():
    before = threading.active_count()
    run(_cfg(n_particles=400, t_end=0.003))
    assert threading.active_count() == before
    # gamma = 0 with a huge step overflows; the failing step joins its worker
    # (no later state is recorded: the energy fsum of a state near overflow
    # raises OverflowError before the step can raise BlowupError)
    cfg = _cfg(n_particles=258, gamma=0.0, eta=1.0, dt=1e3, t_end=1e6, seed=2,
               snapshot_stride=10**6)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError):
            run(cfg)
    assert threading.active_count() == before


class _FailingConsumer:
    def __init__(self, block):
        self.block, self.calls = block, 0

    def add(self, iu, ju, z, r2, spare):
        if self.calls == self.block:
            raise ValueError("consumer failed")
        self.calls += 1


def test_a_consumer_error_propagates_and_joins_the_worker():
    before = threading.active_count()
    cfg = _cfg(n_particles=1025)
    with pytest.raises(ValueError, match="consumer failed"):
        step(init_iid(cfg), cfg, consumers=[_FailingConsumer(2)])
    assert threading.active_count() == before


def test_a_draw_error_on_the_worker_propagates_and_leaves_no_thread(monkeypatch):
    real = dynamics._draw_noise
    drawers = []

    def draw_then_fail(*args):
        drawers.append(threading.get_ident())
        if len(drawers) == 4:
            raise MemoryError("draw failed")
        real(*args)

    before = threading.active_count()
    monkeypatch.setattr(dynamics, "_draw_noise", draw_then_fail)
    cfg = _cfg(n_particles=1025)  # 16 blocks
    with pytest.raises(MemoryError, match="draw failed"):
        step(init_iid(cfg), cfg)
    assert len(drawers) == 4  # no block is drawn after the failed one
    assert len(set(drawers)) == 1 and drawers[0] != threading.main_thread().ident
    assert threading.active_count() == before


def test_traced_names_are_called_from_the_main_thread_only(monkeypatch):
    # perfbench's tracer wraps these names and keeps one span stack
    callers = set()
    for name in ("alpha_reg", "conserved_quantities"):
        real = getattr(dynamics, name)

        def recorded(*args, _real=real, **kwargs):
            callers.add(threading.get_ident())
            return _real(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, recorded)
    run(_cfg(n_particles=400, t_end=0.003))
    assert callers == {threading.main_thread().ident}


def test_step_peak_allocation_is_one_block():
    # the noise is drawn per block: one step at N = 2048 (2.1e6 pairs) holds
    # no (P, 3) array, which alone would take 50 MB
    cfg = _cfg(n_particles=2048, gamma=-3.0, eta=None, seed=1)
    state = init_iid(cfg)
    tracemalloc.start()
    try:
        step(state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak


@pytest.mark.parametrize("n", [256, 1024])  # one block; 16 blocks
def test_run_allocates_no_block_after_its_first_step(n, monkeypatch):
    # the run's walk holds every block temporary of the step and of its pair
    # consumers, so later steps allocate only O(N) arrays
    real_step = dynamics.step
    walks = []

    def step_after_the_first(state, *args, **kwargs):
        walks.append(kwargs["walk"])
        if len(walks) == 2:
            tracemalloc.start()
        return real_step(state, *args, **kwargs)

    monkeypatch.setattr(dynamics, "step", step_after_the_first)
    cfg = _cfg(n_particles=n, eta=0.2, t_end=0.004)
    phi = GaussianBumpFn(np.zeros(3), 1.0, 0.5)
    try:
        run(cfg, pair_observers=[
            lambda s: PairStats(cfg.eta_effective),
            lambda s: BumpWeakIntegrand(phi, cfg.gamma, s.v)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(walks) == 4 and all(w is walks[0] for w in walks)
    block = sum(a.nbytes for a in vars(walks[0]).values() if isinstance(a, np.ndarray))
    assert peak < 0.05 * block, (peak, block)


@pytest.mark.parametrize("n,block", [(256, None), (400, None), (50, 60)])
def test_reused_walk_gives_the_bits_of_fresh_walks(n, block, monkeypatch):
    if block is not None:  # 50 points in blocks of one row
        monkeypatch.setattr(dynamics, "_PAIR_BLOCK", block)
    cfg = _cfg(n_particles=n, gamma=-3.0, eta=None, seed=4)
    walk = dynamics._PairWalk(n)
    fresh = shared = init_iid(cfg)
    for _ in range(4):
        fresh = step(fresh, cfg, consumers=[a := PairStats(0.3)])
        shared = step(shared, cfg, consumers=[b := PairStats(0.3)], walk=walk)
        np.testing.assert_array_equal(shared.v, fresh.v)
        assert b.row() == a.row()
        dynamics._feed_pairs(init_iid(cfg).v, [PairStats(0.3)], walk)  # as run's final pass


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


# ---------------------------------------------------------------------------
# One step: conservation, exchangeability, fixed points

@pytest.mark.parametrize("gamma", [0.0, -2.0, -3.0])
def test_momentum_conserved_each_step(gamma):
    cfg = _cfg(n_particles=64, gamma=gamma, dt=1e-3, t_end=0.2, eta=0.2,
               seed=11)
    state = init_iid(cfg)
    p0, _ = conserved_quantities(state)
    for _ in range(50):
        state = step(state, cfg)
        p, _ = conserved_quantities(state)
        bound = 1e-12 * state.n * np.max(np.abs(state.v))
        assert np.max(np.abs(p - p0)) <= bound


def test_energy_rescale_mode_is_exact():
    cfg = _cfg(n_particles=32, energy_mode="rescale", t_end=0.2, dt=2e-3,
               seed=7)
    state = init_iid(cfg)
    _, e0 = conserved_quantities(state)
    for _ in range(cfg.n_steps):
        state = step(state, cfg, e_target=e0)
        _, e = conserved_quantities(state)
        assert abs(e - e0) <= 1e-12 * e0


def test_rescale_step_keeps_its_starting_energy_by_default():
    # without e_target each step rescales to the energy of the state it starts from
    cfg = _cfg(n_particles=32, energy_mode="rescale", dt=2e-3, seed=7)
    state = init_iid(cfg)
    for _ in range(20):
        _, e0 = conserved_quantities(state)
        state = step(state, cfg)
        _, e = conserved_quantities(state)
        assert abs(e - e0) <= 1e-12 * e0


def test_energy_martingale_raw_scheme():
    # without rescaling the energy drift is a small martingale fluctuation
    # plus an O(dt) bias; across seeds it stays well under half a percent
    drifts = []
    for seed in range(24):
        cfg = _cfg(n_particles=64, dt=1e-3, t_end=0.1, seed=seed, eta=0.2)
        state = init_iid(cfg)
        _, e0 = conserved_quantities(state)
        for _ in range(cfg.n_steps):
            state = step(state, cfg)
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
    n = state.n
    noise = pair_noise(cfg.seed, 0, n, cfg.dt)

    rng = np.random.default_rng(99)
    p = rng.permutation(n)
    rank = {(int(i), int(j)): k for k, (i, j) in enumerate(zip(*np.triu_indices(n, k=1)))}
    remapped = np.empty_like(noise)
    for (a, b), dst in rank.items():
        oi, oj = int(p[a]), int(p[b])
        sign = 1.0 if oi < oj else -1.0
        remapped[dst] = sign * noise[rank[min(oi, oj), max(oi, oj)]]

    out = _step_with_noise(state, cfg, noise)
    out_perm = _step_with_noise(ParticleState(state.v[p].copy()), cfg, remapped)
    scale = np.max(np.abs(out.v))
    assert np.max(np.abs(out_perm.v - out.v[p])) <= 1e-12 * scale


@pytest.mark.parametrize("v", [
    [[1.0, 0.0, 0.0], [-1.0, 0.5, 0.0]],
    [[0.3, -0.2, 0.1], [0.35, -0.15, 0.12], [-1.0, 0.4, 0.8]],  # one pair below eta
    [[0.3, -0.2, 0.1], [0.3, -0.2, 0.1], [-1.0, 0.4, 0.8]],     # one coincident pair
])
def test_step_matches_reference_pair_kernels(v):
    # v_i +- sum over pairs of (2/(N-1)) b_eta(z) dt + sqrt(2/(N-1)) sigma_eta(z) dB
    v = np.array(v)
    n = v.shape[0]
    cfg = _cfg(n_particles=n, gamma=-2.5, dt=1e-2, eta=0.2)
    pot = cfg.potential
    noise = np.random.default_rng(n).normal(size=(n * (n - 1) // 2, 3)) * 0.1
    expect = v.copy()
    iu, ju = np.triu_indices(n, k=1)
    for db, i, j in zip(noise, iu, ju):
        z = v[i] - v[j]
        term = (2.0 / (n - 1)) * drift_bN(pot, z) * cfg.dt
        term += math.sqrt(2.0 / (n - 1)) * diffusion_sigmaN(pot, z) @ db
        expect[i] += term
        expect[j] -= term
    out = _step_with_noise(ParticleState(v.copy()), cfg, noise)
    np.testing.assert_allclose(out.v, expect, rtol=1e-14, atol=0)


def test_multi_block_step_matches_reference_pair_kernels():
    # N = 400 walks three row blocks: the blocks' row sums and bincounts add
    # up to the pair kernels applied pair by pair to the keyed draw
    n = 400
    cfg = _cfg(n_particles=n, gamma=-3.0, dt=1e-3, eta=None, seed=8)
    pot = cfg.potential
    v = init_iid(cfg).v
    noise = pair_noise(cfg.seed, 0, n, cfg.dt)
    iu, ju = np.triu_indices(n, k=1)
    z = v[iu] - v[ju]
    assert np.any(np.sum(z * z, axis=1) < pot.eta**2)  # the chi_eta branch is walked
    term = (2.0 / (n - 1)) * drift_bN(pot, z) * cfg.dt
    term += math.sqrt(2.0 / (n - 1)) * np.einsum("pab,pb->pa", diffusion_sigmaN(pot, z), noise)
    expect = v.copy()
    np.add.at(expect, iu, term)
    np.add.at(expect, ju, -term)
    out = step(ParticleState(v.copy()), cfg)
    assert len(dynamics._PairWalk(n).offsets) == 3
    np.testing.assert_allclose(out.v, expect, rtol=1e-13, atol=0)


def test_two_particles_conserve_center_of_mass():
    cfg = _cfg(n_particles=2, dt=1e-3, t_end=0.1, seed=1)
    state = ParticleState(np.array([[1.0, 0.0, 0.0], [-1.0, 0.5, 0.0]]))
    com0 = state.v.sum(axis=0)
    for _ in range(100):
        state = step(state, cfg)
    np.testing.assert_allclose(state.v.sum(axis=0), com0, atol=1e-13)


def test_coincident_pair_is_a_fixed_point():
    # both the drift and the diffusion vanish at z = 0, so a fully collapsed
    # cloud never moves
    cfg = _cfg(n_particles=4, dt=1e-2, seed=0)
    v = np.tile([0.3, -0.2, 0.9], (4, 1))
    out = step(ParticleState(v.copy()), cfg)
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


def test_run_observers_merge_rows():
    seen = []

    def spy(s):
        seen.append(s.step_index)
        return {"maxv": float(np.max(np.abs(s.v)))}

    traj = run(_cfg(t_end=0.002, dt=1e-3), observers=(spy,))
    assert seen == [0, 1, 2]
    assert all("maxv" in row and "energy" in row for row in traj.diagnostics)


def _check_pair_rows(traj, eta):
    for snap, row in zip(traj.snapshots, traj.diagnostics, strict=True):
        assert row["pair_inv_sq"] == pair_inverse_square(EmpiricalMeasure(snap.v))
        z = snap.v[:, None, :] - snap.v[None, :, :]
        r = np.sqrt(np.sum(z * z, axis=-1))[np.triu_indices(snap.n, k=1)]
        assert row["min_pair_dist"] == pytest.approx(r.min(), rel=1e-15)
        assert row["n_pairs_below_eta"] == int(np.sum(r < eta))


@pytest.mark.parametrize("kw", [dict(snapshot_stride=1), dict(snapshot_stride=3),
                                dict(t_end=0.0)], ids=["stride1", "stride3", "t_end0"])
def test_pair_observers_ride_the_step_pass(kw):
    cfg = _cfg(**{"n_particles": 40, "t_end": 0.01, "eta": 0.5, **kw})
    traj = run(cfg, pair_observers=[lambda s: PairStats(cfg.eta_effective)])
    assert traj.snapshots[-1].step_index == cfg.n_steps  # final state: own pass
    assert sum(row["n_pairs_below_eta"] for row in traj.diagnostics) > 0
    _check_pair_rows(traj, cfg.eta_effective)


class _PairCounter:
    """A pair consumer that leaves each block's spare unused."""

    def __init__(self):
        self.pairs = 0

    def add(self, iu, ju, z, r2, spare):
        assert spare[0].shape == (6, r2.size)
        self.pairs += r2.size

    def row(self):
        return {"pairs_seen": self.pairs}


@pytest.mark.parametrize("n", [40, 400])  # one row block; two
def test_pair_observer_is_built_from_the_state_alone(n):
    cfg = _cfg(n_particles=n, t_end=0.005, snapshot_stride=2)
    traj = run(cfg, pair_observers=[lambda s: _PairCounter()])
    assert len(traj.diagnostics) == 4  # steps 0, 2, 4 and the final 5
    assert [row["pairs_seen"] for row in traj.diagnostics] == [n * (n - 1) // 2] * 4


def test_pair_observers_survive_a_blowup(monkeypatch):
    # the failed step's pass ran before its finite check, so the last row is whole
    real_step = dynamics.step

    def step_then_blow_up(state, *args, **kwargs):
        out = real_step(state, *args, **kwargs)
        if out.step_index == 7:
            raise BlowupError(7)
        return out

    monkeypatch.setattr(dynamics, "step", step_then_blow_up)
    cfg = _cfg(n_particles=40, snapshot_stride=3)
    with pytest.raises(BlowupError) as exc:
        run(cfg, pair_observers=[lambda s: PairStats(cfg.eta_effective)])
    traj = exc.value.trajectory
    assert [s.step_index for s in traj.snapshots] == [0, 3, 6]
    _check_pair_rows(traj, cfg.eta_effective)


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


@pytest.mark.parametrize("energy_mode, dt, step", [("none", 1e3, 43),
                                                    ("rescale", 1e153, 2)])
def test_blowup_recorded_every_step_attaches_partial_trajectory(energy_mode, dt, step):
    # every state is recorded, the last one with squared speeds that sum past
    # the float range: its energy is inf and the run still ends in a
    # BlowupError with the partial trajectory (fsum raised OverflowError)
    cfg = _cfg(n_particles=8, gamma=0.0, eta=1.0, dt=dt, t_end=1e6 * dt, seed=2,
               snapshot_stride=1, energy_mode=energy_mode)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError) as exc:
            run(cfg)
    traj = exc.value.trajectory
    assert exc.value.step_index == step
    assert traj.error == {"type": "blowup", "step": step}
    assert [s.step_index for s in traj.snapshots] == list(range(step))
    assert np.all(np.isfinite(traj.snapshots[-1].v))
    assert traj.diagnostics[-1]["energy"] == math.inf
    assert all(math.isfinite(row["energy"]) for row in traj.diagnostics[:-1])


def test_conserved_energy_past_the_float_range_is_inf():
    v = np.full((8, 3), 1e154)
    assert np.all(np.isfinite(v * v))
    momentum, energy = conserved_quantities(ParticleState(v, 0.0, 0))
    assert energy == math.inf
    assert momentum.tolist() == [8e154] * 3


def test_run_rescale_keeps_initial_energy():
    cfg = _cfg(n_particles=32, t_end=0.05, dt=1e-3, energy_mode="rescale")
    traj = run(cfg)
    e = [row["energy"] for row in traj.diagnostics]
    assert max(abs(x - e[0]) for x in e) <= 1e-12 * e[0]


# ---------------------------------------------------------------------------
# Seeded-output digests: any change to the step's arithmetic or summation
# order shows up here.  A change that moves results on purpose updates the
# digest and says why.
# Frozen with the SFC64 keyed streams: the init and pair draws come from
# SFC64 generators seeded by SeedSequence((seed, domain, step)), in place
# of Philox, which moved every seeded trajectory once.

_DIGEST_CONFIGS = [
    (dict(n_particles=64, gamma=0.0, dt=1e-2, t_end=0.1, seed=1, eta=0.5),
     "569738d39c798e1e15009a16fc40f795"
     "65646cf54a85ea127cdb704bcc500e05"),
    # N = 400 has 79 800 pairs: the step walks more than one row block
    (dict(n_particles=400, gamma=-2.0, dt=1e-3, t_end=0.005, seed=2,
          energy_mode="rescale"),
     "2abacf7534e9e485265ddc1e54fcb0ec"
     "a963842eb44604f0c24064400e7bf702"),
    (dict(n_particles=130, gamma=-3.0, dt=1e-3, t_end=0.01, seed=3),
     "5cdb61ad660643cb7773f86105764c3f"
     "e681daf4e3fe47289af88c5e474c813c"),
]


@pytest.mark.parametrize("kw, digest", _DIGEST_CONFIGS,
                         ids=["gamma0", "gamma-2", "gamma-3"])
def test_seeded_final_snapshot_digest(kw, digest):
    cfg = SimConfig(snapshot_stride=1000, **kw)
    final = run(cfg).snapshots[-1]
    assert final.step_index == cfg.n_steps
    got = hashlib.sha256(final.v.astype("<f8").tobytes()).hexdigest()
    assert got == digest


_DIGEST_BITS = """
import hashlib, json
import numpy as np
from landausim.diagnostics import BumpWeakIntegrand, GaussianBumpFn
from landausim.dynamics import SimConfig, run
from landausim.potentials import PotentialSpec, alpha_reg
configs = json.loads(%r)
for kw in configs:
    final = run(SimConfig(snapshot_stride=1000, **kw)).snapshots[-1]
    print(hashlib.sha256(final.v.astype("<f8").tobytes()).hexdigest())
# alpha_eta over the chi_eta band and below it, which a digest run may miss
r = np.linspace(0.0, 0.5, 100001)
for gamma in (-1.0, -2.0, -3.0):
    print(hashlib.sha256(alpha_reg(PotentialSpec(gamma, 0.25), r).tobytes()).hexdigest())
# the weak-form integrand that rides the step's pass
phi = GaussianBumpFn(np.zeros(3), 1.0, 0.5)
kw = configs[1]
traj = run(SimConfig(**kw), pair_observers=[lambda s: BumpWeakIntegrand(phi, kw["gamma"], s.v)])
print([row["weak_integrand"] for row in traj.diagnostics])
"""


def test_seeded_digests_do_not_depend_on_simd_dispatch_or_blas_threads():
    # integer gamma is taken by products and one division, never np.power,
    # and no sum of the step goes through BLAS, so the seeded runs give the
    # same bytes with AVX-512 dispatch on or off and at one or two BLAS
    # threads; the weak-form integrand (no BLAS sum either) takes np.exp,
    # so only its thread count is free
    settings = [{}]
    targets = avx512_dispatch_targets()
    if targets:
        settings.append({"NPY_DISABLE_CPU_FEATURES": " ".join(targets)})
    script = _DIGEST_BITS % json.dumps([kw for kw, _ in _DIGEST_CONFIGS])
    out = []
    for env in settings:
        for threads in ("1", "2"):
            proc = run_child(script, OPENBLAS_NUM_THREADS=threads, **env)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout.splitlines())
    assert out[0][:3] == [digest for _, digest in _DIGEST_CONFIGS]
    assert all(o[:-1] == out[0][:-1] for o in out), out
    assert all(out[k][-1] == out[k + 1][-1] for k in range(0, len(out), 2)), out
