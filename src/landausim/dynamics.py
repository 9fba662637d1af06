"""Conservative stochastic N-particle dynamics.

Each unordered pair (i, j) carries one pair interaction

    dV_i ni= (2/(N-1)) b_eta(V_i - V_j) dt + sqrt(2/(N-1)) sigma_eta(V_i - V_j) dB_ij

with b_eta, sigma_eta from `potentials` and a three-dimensional Brownian
increment dB_ij attached to the pair with dB_ji = -dB_ij.  Because b_eta is
odd, sigma_eta is even, and the same floating-point pair term is added to
particle i and subtracted from particle j, the total momentum sum_i V_i is
conserved pathwise to rounding, and V_i . sigma_eta(V_i - V_j) dB_ij cancels
pairwise so the kinetic energy sum_i |V_i|^2 is conserved by the continuous
dynamics; the Euler-Maruyama step leaves an O(dt) energy error that
energy_mode="rescale" removes by an affine rescaling about the mean.

Noise is counter-based: step s of a run with seed q draws all N(N-1)/2 pair
increments as one array from Philox keyed by (q, "pair", s), in upper-triangle
rank order, so the increment of NoiseKey(q, s, i, j) is a pure function of the
key and trajectories are reproducible bit for bit.  The step (and every other
pair sweep) walks the pairs in row blocks of that same rank order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import BlowupError, ConfigError
from .potentials import PotentialSpec, alpha_reg, default_eta

__all__ = [
    "SimConfig",
    "ParticleState",
    "NoiseKey",
    "pair_noise",
    "init_iid",
    "step",
    "run",
    "Trajectory",
    "conserved_quantities",
]

_DOMAIN_INIT = 0x696E6974   # "init"
_DOMAIN_PAIR = 0x70616972   # "pair"

@dataclass(frozen=True)
class SimConfig:
    """Run parameters; eta defaults to clip(eta_c * N**-eta_kappa, 1e-4, 1)."""

    n_particles: int
    gamma: float
    dt: float
    t_end: float
    seed: int = 0
    eta: float | None = None
    eta_c: float = 1.0
    eta_kappa: float = 0.25
    theta: float = 0.99
    energy_mode: str = "none"
    snapshot_stride: int = 1
    g0: str = "maxwellian(1)"

    def __post_init__(self):
        if not (isinstance(self.n_particles, int) and self.n_particles >= 2):
            raise ConfigError(f"n_particles must be an int >= 2, got {self.n_particles}")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not (self.t_end >= 0 and np.isfinite(self.t_end)):
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative int, got {self.seed}")
        if self.energy_mode not in ("none", "rescale"):
            raise ConfigError(f"energy_mode must be 'none' or 'rescale', got {self.energy_mode!r}")
        if not (isinstance(self.snapshot_stride, int) and self.snapshot_stride >= 1):
            raise ConfigError(f"snapshot_stride must be an int >= 1, got {self.snapshot_stride}")
        self.potential()  # validates gamma/eta/theta

    @property
    def eta_effective(self) -> float:
        if self.eta is not None:
            return float(self.eta)
        return default_eta(self.n_particles, self.eta_c, self.eta_kappa)

    def potential(self) -> PotentialSpec:
        return PotentialSpec(self.gamma, self.eta_effective, self.theta)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"n_particles", "gamma", "dt", "t_end"} - set(d)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**d)


@dataclass
class ParticleState:
    """Velocities (N, 3) at a time point of a run."""

    v: np.ndarray
    t: float = 0.0
    step_index: int = 0

    @property
    def n(self) -> int:
        return self.v.shape[0]

    def copy(self) -> "ParticleState":
        return ParticleState(self.v.copy(), self.t, self.step_index)


def conserved_quantities(state: ParticleState):
    """(total momentum vector, total kinetic energy) via compensated sums."""
    v = state.v
    momentum = np.array([math.fsum(v[:, c]) for c in range(3)])
    energy = math.fsum((v * v).ravel())
    return momentum, energy


def _stream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=(seed, domain, index))
    return np.random.Generator(np.random.Philox(seed=ss))


@dataclass(frozen=True)
class NoiseKey:
    """Identifies the Brownian increment of pair (i, j), i < j, at one step."""

    seed: int
    step_index: int
    i: int
    j: int

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ConfigError(f"NoiseKey needs 0 <= i < j, got ({self.i}, {self.j})")

    def row_index(self, n: int) -> int:
        """Rank of (i, j) in upper-triangle order for an n-particle system."""
        i, j = self.i, self.j
        return i * n - i * (i + 1) // 2 + (j - i - 1)

    def increment(self, n: int, dt: float) -> np.ndarray:
        """The 3-vector sqrt(dt) * xi attached to this key."""
        return pair_noise(self.seed, self.step_index, n, dt)[self.row_index(n)]


_PAIR_BLOCK = 1 << 16


def _pair_blocks(n: int):
    """Yield (lo, iu, ju): the pairs i < j of one block of whole rows, in rank
    order, with lo the rank of the first pair.  A block holds at most
    max(_PAIR_BLOCK, n - 1) pairs."""
    rows = max(1, _PAIR_BLOCK // (n - 1))
    for i0 in range(0, n - 1, rows):
        iu, ju = np.triu_indices(min(rows, n - 1 - i0), k=1, m=n - i0)
        yield i0 * n - i0 * (i0 + 1) // 2, iu + i0, ju + i0


def pair_noise(seed: int, step_index: int, n: int, dt: float) -> np.ndarray:
    """All pair increments of one step, shape (n(n-1)/2, 3), in rank order."""
    n_pairs = n * (n - 1) // 2
    g = _stream(seed, _DOMAIN_PAIR, step_index)
    return math.sqrt(dt) * g.standard_normal((n_pairs, 3))


def init_iid(config: SimConfig, model=None) -> ParticleState:
    """IID draw of the initial cloud from the g0 preset (or an explicit model)."""
    if model is None:
        from .reference import resolve_preset
        model = resolve_preset(config.g0)
    rng = _stream(config.seed, _DOMAIN_INIT)
    v = model.sample(rng, config.n_particles)
    if v.shape != (config.n_particles, 3):
        raise ConfigError("g0 model must sample 3D velocities")
    return ParticleState(np.ascontiguousarray(v, dtype=float))


def _rescale_energy(v: np.ndarray, e_target: float) -> np.ndarray:
    """Affine rescale about the mean so that sum |v_i|^2 == e_target."""
    n = v.shape[0]
    m = np.array([math.fsum(v[:, c]) for c in range(3)]) / n
    w = v - m
    sw = math.fsum((w * w).ravel())
    tw = e_target - n * float(m @ m)
    if sw <= 0.0 or tw <= 0.0:
        return v  # degenerate cloud: energy already pinned by the mean
    lam = math.sqrt(tw / sw)
    return m + lam * w


def step(state: ParticleState, config: SimConfig, pot: PotentialSpec | None = None,
         noise: np.ndarray | None = None,
         e_target: float | None = None) -> ParticleState:
    """One Euler-Maruyama step; `noise` overrides the keyed pair increments."""
    if pot is None:
        pot = config.potential()
    v = state.v
    n = v.shape[0]
    if noise is None:
        noise = pair_noise(config.seed, state.step_index, n, config.dt)
    noise = noise.reshape(n * (n - 1) // 2, 3)  # rejects an override of the wrong size
    w_noise = math.sqrt(2.0 / (n - 1))
    w_drift = -4.0 * config.dt / (n - 1)
    # each side adds in rank order, as one bincount over all pairs would
    acc_i = np.zeros_like(v)
    acc_j = np.zeros_like(v)
    for lo, iu, ju in _pair_blocks(n):
        db = noise[lo:lo + iu.size]
        z = np.take(v, iu, axis=0) - np.take(v, ju, axis=0)
        r2 = np.einsum("pc,pc->p", z, z)
        r = np.sqrt(r2)
        alpha = alpha_reg(pot, r)
        # sigma(z) dB = sqrt(alpha)/|z| * (|z|^2 dB - z (z . dB)); zero for r == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = np.where(r > 0.0, np.sqrt(alpha) / r, 0.0)
        zdb = np.einsum("pc,pc->p", z, db)
        pair_term = db * (w_noise * coef * r2)[:, None]
        pair_term += z * (w_drift * alpha - w_noise * coef * zdb)[:, None]
        for c in range(3):
            np.add.at(acc_i[:, c], iu, pair_term[:, c])
            np.add.at(acc_j[:, c], ju, pair_term[:, c])
    v_new = v + (acc_i - acc_j)

    if config.energy_mode == "rescale":
        if e_target is None:
            e_target = math.fsum((v * v).ravel())
        v_new = _rescale_energy(v_new, e_target)

    if not np.all(np.isfinite(v_new)):
        raise BlowupError(state.step_index + 1)
    return ParticleState(v_new, state.t + config.dt, state.step_index + 1)


@dataclass
class Trajectory:
    """Recorded run: snapshot states plus per-snapshot diagnostics rows."""

    config: SimConfig
    snapshots: list = field(default_factory=list)   # ParticleState copies
    diagnostics: list = field(default_factory=list)  # dicts, one per snapshot
    error: dict | None = None
    runtime_s: float = 0.0

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    def state_at(self, t: float, tol: float = 1e-9) -> ParticleState:
        times = self.times
        k = int(np.argmin(np.abs(times - t)))
        if abs(times[k] - t) > tol:
            from .errors import StrideError
            raise StrideError(
                f"t={t} not on the snapshot grid (nearest {times[k]}); "
                "reduce snapshot_stride")
        return self.snapshots[k]

    def save(self, out_dir, fmt: str = "csv"):
        from .runio import save_trajectory
        save_trajectory(self, out_dir, fmt)


def _default_observer(state: ParticleState) -> dict:
    momentum, energy = conserved_quantities(state)
    return {"momentum": momentum.tolist(), "energy": energy}


def run(config: SimConfig, model=None, observers=(), record: bool = True) -> Trajectory:
    """Integrate from an IID g0 draw to t_end, recording every stride-th step.

    Observers are callables state -> dict merged into the diagnostics row of
    each recorded snapshot.  On blowup the partial trajectory is attached to
    the raised BlowupError as `.trajectory` (with `.error` set).
    """
    t0 = time.perf_counter()
    state = init_iid(config, model)
    pot = config.potential()
    e_target = math.fsum((state.v * state.v).ravel())
    traj = Trajectory(config=config)

    def record_state(s: ParticleState):
        if not record:
            return
        traj.snapshots.append(s.copy())
        row = {"step": s.step_index, "t": s.t}
        row.update(_default_observer(s))
        for obs in observers:
            row.update(obs(s))
        traj.diagnostics.append(row)

    record_state(state)
    n_steps = config.n_steps
    try:
        for k in range(n_steps):
            state = step(state, config, pot, e_target=e_target)
            if state.step_index % config.snapshot_stride == 0 or k == n_steps - 1:
                record_state(state)
    except BlowupError as err:
        traj.error = {"type": "blowup", "step": err.step_index}
        traj.runtime_s = time.perf_counter() - t0
        err.trajectory = traj
        raise
    traj.runtime_s = time.perf_counter() - t0
    return traj
