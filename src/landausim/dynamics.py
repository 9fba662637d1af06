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

Noise is keyed: step s of a run with seed q draws its N(N-1)/2 pair
increments from one SFC64 stream seeded by SeedSequence((q, "pair", s)), in
upper-triangle rank order, so a pair's increment is a pure function of the
seed, the step and the pair, and trajectories are reproducible bit for bit
(the initial cloud comes from the stream of (q, "init", 0)).  The step (and
every other pair sweep) walks the pairs in row blocks of that rank order and
draws each block's increments from the stream in block order: the
consecutive draws are exactly the rows of `pair_noise`'s single draw, and a
step holds two blocks of noise, not all N(N-1)/2 rows.  The same walk feeds
the pair observers of `run` on the states it records.

A block of the step is three helpers: `_draw_noise` (the block's standard
normals from the step's stream, then scaled by sqrt(dt) into (3, m) rows),
`_pair_term` (z, |z|^2 and dB in, the (3, m) pair term out) and `_scatter`
(the term added to both particles of each pair).  The draw depends only on
the seed, the step and the block, not on the state, so a step of two or
more blocks hands its draws, in order from the one stream, to one worker
thread (a one-worker `ThreadPoolExecutor`): block 0's is submitted before
the walk gathers block 0, and block k + 1's, into the walk's other noise
slot, once block k's consumers have run and its noise is in.  So the
numbers do not depend on thread timing.  The worker lives inside one
`step` call, whose `with` block joins it; a one-block step submits
nothing, so starts no thread, and draws inline after its consumers.
`_draw_noise` is the only way noise enters a step.  `Generator` releases
the GIL while it fills, so the draw runs beside the kernel on a second core.

A `_PairWalk` holds one block of every temporary of that pass: the pair
indices, z and |z|^2, two blocks of noise and the kernel terms; a
one-block walk writes its pair indices once, when it is built.  `run`
builds one before its first step and hands it to every step, so a run
allocates no block-length array after it starts (freed and re-allocated
blocks would be trimmed and faulted back in by the allocator on every
block).  The arrays a walk yields are views of its buffers, valid until the
next block; with each block it lends the pair consumers its idle term
buffers as scratch.

The pass is component major: z, the noise and the pair term of a block are
(3, m) rows, each pair's arithmetic is that of the (m, 3) formulas (|z|^2
and z . dB summed as (c0 + c2) + c1), and every sum has a fixed order.
Particle i's share of a block is one pairwise `np.add.reduceat` over its
row, and particle j's is one `np.bincount` per block and coordinate, in
rank order, added to the running total block by block.  Integer gamma is
taken by products (`potentials._power`), and nothing goes through BLAS, so
a seeded run gives the same bits at any BLAS thread count and on any SIMD
path of the same numpy for gamma in {0, -1, -2, -3}.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from functools import cached_property

import numpy as np

from .errors import BlowupError, ConfigError, StrideError
from .potentials import PotentialSpec, alpha_reg, default_eta
from .reference import resolve_preset

__all__ = [
    "SimConfig",
    "ParticleState",
    "pair_noise",
    "init_iid",
    "step",
    "run",
    "Trajectory",
    "conserved_quantities",
]

_DOMAIN_INIT = 0x696E6974   # "init"
_DOMAIN_PAIR = 0x70616972   # "pair"

_NUMBER = (int, float)
# the type of every SimConfig field but energy_mode; a bool is refused although it is an int
_FIELD_TYPES = {"n_particles": int, "gamma": _NUMBER, "dt": _NUMBER, "t_end": _NUMBER,
                "seed": int, "eta": (*_NUMBER, type(None)), "eta_c": _NUMBER,
                "eta_kappa": _NUMBER, "theta": _NUMBER, "snapshot_stride": int, "g0": str}


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
        for name, kinds in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                kind = {int: "an int", str: "a preset string"}.get(kinds, "a number")
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
            if kinds is not int and isinstance(value, _NUMBER):  # a real-valued field
                try:
                    finite = math.isfinite(value)
                except OverflowError:  # an int beyond the float range
                    finite = False
                if not finite:
                    raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.n_particles < 2:
            raise ConfigError(f"n_particles must be an int >= 2, got {self.n_particles}")
        try:  # maps one cloud without touching it: a size this machine cannot map is bad input
            np.empty((self.n_particles, 3))
        except (MemoryError, ValueError) as exc:
            raise ConfigError(f"n_particles = {self.n_particles} is too large: "
                              f"its cloud cannot be allocated ({exc})") from exc
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.t_end >= 0:
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")
        if not math.isfinite(self.t_end / self.dt):  # n_steps rounds this to an int
            raise ConfigError(f"t_end / dt must be a finite step count, "
                              f"got {self.t_end} / {self.dt}")
        if not self.eta_c > 0:
            raise ConfigError(f"eta_c must be > 0, got {self.eta_c}")
        if not self.eta_kappa >= 0:
            raise ConfigError(f"eta_kappa must be >= 0, got {self.eta_kappa}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative int, got {self.seed}")
        if self.energy_mode not in ("none", "rescale"):
            raise ConfigError(f"energy_mode must be 'none' or 'rescale', got {self.energy_mode!r}")
        if self.snapshot_stride < 1:
            raise ConfigError(f"snapshot_stride must be an int >= 1, got {self.snapshot_stride}")
        self.potential  # builds, and so checks, the PotentialSpec once
        self.g0_model  # resolves, and so checks, the g0 preset once

    @property
    def eta_effective(self) -> float:
        if self.eta is not None:
            return float(self.eta)
        return default_eta(self.n_particles, self.eta_c, self.eta_kappa)

    @cached_property
    def potential(self) -> PotentialSpec:
        """PotentialSpec(gamma, eta_effective, theta), built once; the steps take it."""
        return PotentialSpec(self.gamma, self.eta_effective, self.theta)

    @cached_property
    def g0_model(self):
        """The density model of the g0 preset, resolved once; init_iid samples it."""
        return resolve_preset(self.g0)

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
    momentum = np.array([math.fsum(v[:, c].tolist()) for c in range(3)])
    return momentum, _sum_squares(v)


def _sum_squares(a: np.ndarray) -> float:
    """The compensated sum of a's squared entries; inf once it passes the
    float range, where math.fsum raises OverflowError."""
    try:
        return math.fsum((a * a).ravel().tolist())
    except OverflowError:
        return math.inf


def _stream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=(seed, domain, index))
    return np.random.Generator(np.random.SFC64(seed=ss))


_PAIR_BLOCK = 1 << 16


class _PairWalk:
    """One block's worth of every buffer of a pair pass over n points.

    `blocks(v)` walks the pairs i < j of the (n, 3) points v in blocks of
    max(1, _PAIR_BLOCK // (n - 1)) whole rows, in rank order, so a block
    holds at most max(_PAIR_BLOCK, n - 1) pairs.  The layout is component
    major: the pass copies v once into one (3, n) array vt, and the walk
    holds two views of vt per row i, built once: the head, column i
    repeated n - 1 - i times (a stride-0 (3, n - 1 - i) view), and the
    tail, the columns > i.  A block's z = v[iu] - v[ju] is its rows' heads
    joined into a (3, m) buffer minus its rows' tails joined into another,
    two calls per block and no index gather; iu and ju are joined from
    row views too (once, when a one-block walk is built).  r2 sums |z|^2 =
    (z0^2 + z2^2) + z1^2, the order of einsum("pc,pc->p") on the
    row-major z, so r2 has the same bits; the gather takes terms[:3] as
    scratch.  The step draws each block's noise into `raw` in rank order
    and keeps it, transposed and scaled, in the (3, m) slot `noise[k % 2]`
    of block k: the worker of a multi-block step fills the slot of block
    k + 1 while the step reads that of block k.  The pair term goes into
    terms[:3] and the kernel's r, alpha and coef into terms[3:]; the six
    term rows and the mask are idle while a block's consumers run, and are
    lent to them as its spare (the noise slots never are).  `sizes[b]` is
    the number of pairs of block b and `offsets[b]` holds the first pair of
    each of its rows, relative to the block, for the step's row sums.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows = max(1, _PAIR_BLOCK // (n - 1))
        lengths = np.arange(n - 1, 0, -1)  # row i holds n - 1 - i pairs
        chunks = [lengths[i0:i0 + self.rows] for i0 in range(0, n - 1, self.rows)]
        self.offsets = [np.cumsum(rows) - rows for rows in chunks]
        self.sizes = [int(rows.sum()) for rows in chunks]
        cap = self.sizes[0]  # the first block is the largest
        self.iu = np.empty(cap, dtype=np.intp)
        self.ju = np.empty(cap, dtype=np.intp)
        self.vt = np.empty((3, n))
        self.z = np.empty((3, cap))
        self.raw = np.empty((cap, 3))  # the keyed normals, drawn in rank order
        self.noise = np.empty((2, 3, cap))  # two blocks' dB: the current and the next
        self.r2, self.zdb = np.empty((2, cap))
        self.mask = np.empty(cap, dtype=bool)
        self.terms = np.empty((6, cap))  # the pair term, then r, alpha and coef
        # row i's pairs as views: n - 1 - i copies of i, and the columns > i,
        # of the indices and of the points' coordinates in vt
        cols = np.arange(n)
        same = np.broadcast_to(cols[:, None], (n, n - 1))
        self._row_i = [same[i, :n - 1 - i] for i in range(n - 1)]
        self._row_j = [cols[i + 1:] for i in range(n - 1)]
        heads = np.broadcast_to(self.vt.T[:, :, None], (n, 3, n - 1))
        self._heads = [heads[i, :, :n - 1 - i] for i in range(n - 1)]
        self._tails = [self.vt[:, i + 1:] for i in range(n - 1)]
        if len(self.sizes) == 1:  # the indices of the only block never change
            np.concatenate(self._row_i, out=self.iu)
            np.concatenate(self._row_j, out=self.ju)

    def blocks(self, v: np.ndarray):
        """Yield (iu, ju, z, r2, spare) per block, the arguments of a pair
        consumer's add: z = (v[iu] - v[ju]).T (shape (3, m), one contiguous
        row per coordinate) and r2 = |z|^2; spare is (six float rows, one
        bool row) of the block's length, scratch for the block's consumers
        until the step resumes.
        The arrays are views of the walk's buffers, valid until the next
        block."""
        n = self.n
        if v.shape[0] != n:
            raise ValueError(f"a walk over {n} points got {v.shape[0]}")
        np.copyto(self.vt, v.T)
        for m, i0 in zip(self.sizes, range(0, n - 1, self.rows)):
            stop = min(i0 + self.rows, n - 1)
            if len(self.sizes) > 1:
                np.concatenate(self._row_i[i0:stop], out=self.iu[:m])
                np.concatenate(self._row_j[i0:stop], out=self.ju[:m])
            iu, ju, z, r2 = self.iu[:m], self.ju[:m], self.z[:, :m], self.r2[:m]
            other = self.terms[:3, :m]
            np.concatenate(self._heads[i0:stop], axis=1, out=z)
            z -= np.concatenate(self._tails[i0:stop], axis=1, out=other)
            np.multiply(z, z, out=other)
            np.add(other[0], other[2], out=r2)
            r2 += other[1]
            yield iu, ju, z, r2, (self.terms[:, :m], self.mask[:m])


def _feed_pairs(v: np.ndarray, consumers, walk: _PairWalk) -> None:
    """One pair pass over v in walk's buffers that only feeds the consumers'
    add(iu, ju, z, r2, spare)."""
    for block in walk.blocks(v):
        for c in consumers:
            c.add(*block)


def pair_noise(seed: int, step_index: int, n: int, dt: float) -> np.ndarray:
    """All pair increments of one step, shape (n(n-1)/2, 3), in rank order;
    the step draws the same numbers one block at a time."""
    n_pairs = n * (n - 1) // 2
    g = _stream(seed, _DOMAIN_PAIR, step_index)
    return math.sqrt(dt) * g.standard_normal((n_pairs, 3))


def init_iid(config: SimConfig) -> ParticleState:
    """IID draw of the initial cloud from the g0 preset."""
    v = config.g0_model.sample(_stream(config.seed, _DOMAIN_INIT), config.n_particles)
    return ParticleState(np.ascontiguousarray(v, dtype=float))


def _rescale_energy(v: np.ndarray, e_target: float) -> np.ndarray:
    """Affine rescale about the mean so that sum |v_i|^2 == e_target."""
    n = v.shape[0]
    m = np.array([math.fsum(v[:, c].tolist()) for c in range(3)]) / n
    w = v - m
    sw = _sum_squares(w)
    tw = e_target - n * float(m @ m)
    if sw <= 0.0 or tw <= 0.0:
        return v  # degenerate cloud: energy already pinned by the mean
    lam = math.sqrt(tw / sw)
    return m + lam * w


def _draw_noise(stream: np.random.Generator, raw: np.ndarray, db: np.ndarray,
                sqrt_dt: float) -> None:
    """The stream's next m pair increments into the (3, m) rows db: m
    standard normal rows drawn into the (cap, 3) buffer raw, in rank order,
    then transposed and scaled by sqrt(dt)."""
    m = db.shape[1]
    stream.standard_normal(out=raw[:m])
    np.multiply(raw[:m].T, sqrt_dt, out=db)


def _pair_term(pot: PotentialSpec, z, r2, db, term, scratch, w_noise: float,
               w_drift: float) -> None:
    """A block's (3, m) pair term into term, from its (3, m) rows z and dB and
    r2 = |z|^2; db is overwritten, and scratch = (r, alpha, coef, zdb, far)
    holds four float rows and a bool row of the block's length."""
    r, alpha, coef, zdb, far = scratch
    np.sqrt(r2, out=r)
    alpha_reg(pot, r, out=alpha, mask=far)
    # sigma(z) dB = sqrt(alpha)/|z| * (|z|^2 dB - z (z . dB)); zero for r == 0
    with np.errstate(divide="ignore"):
        np.divide(np.sqrt(alpha, out=zdb), r, out=coef)
    if not np.greater(r, 0.0, out=far).all():
        coef[~far] = 0.0
    coef *= w_noise
    # z . dB = (z0 d0 + z2 d2) + z1 d1, the order of einsum("pc,pc->p")
    np.multiply(z[0], db[0], out=zdb)
    zdb += np.multiply(z[2], db[2], out=r)
    zdb += np.multiply(z[1], db[1], out=r)
    # term = (w_noise coef r2) dB + (w_drift alpha - w_noise coef (z . dB)) z
    np.multiply(db, np.multiply(coef, r2, out=r), out=term)
    coef *= zdb
    alpha *= w_drift
    alpha -= coef
    term += np.multiply(z, alpha, out=db)


def _scatter(term, iu, ju, rows, acc_i, acc_j) -> None:
    """Add a block's (3, m) pair term to particle i's sums in acc_i, one
    pairwise reduceat over each of the block's whole rows (so each entry is
    written once), and to particle j's in acc_j, one bincount per
    coordinate in rank order; rows holds the first pair of each row."""
    np.add.reduceat(term, rows, axis=1, out=acc_i[:, iu[0]:iu[0] + rows.size])
    for c in range(3):
        acc_j[c] += np.bincount(ju, weights=term[c], minlength=acc_j.shape[1])


def step(state: ParticleState, config: SimConfig, *, e_target: float | None = None,
         consumers=(), walk: _PairWalk | None = None) -> ParticleState:
    """One Euler-Maruyama step under `config.potential` with the keyed pair
    increments; `e_target` is the starting energy that "rescale" keeps.

    Each of `consumers` gets add(iu, ju, z, r2, spare) for every block of
    the pair pass over the starting state, before the step checks its
    result (see `_PairWalk.blocks`).  The pass runs in `walk`'s buffers (a
    fresh walk when none is given).  With two or more blocks, one worker
    thread draws each block's noise, one block ahead of the kernel, and is
    joined before the step returns or raises; one block is drawn inline.
    """
    pot = config.potential
    v = state.v
    n = v.shape[0]
    if walk is None:
        walk = _PairWalk(n)
    stream = _stream(config.seed, _DOMAIN_PAIR, state.step_index)
    sqrt_dt = math.sqrt(config.dt)
    w_noise = math.sqrt(2.0 / (n - 1))
    w_drift = -4.0 * config.dt / (n - 1)
    acc_i = np.zeros((3, n))
    acc_j = np.zeros((3, n))
    last = len(walk.sizes) - 1

    def draw(k):  # block k's keyed noise into the slot of its parity
        _draw_noise(stream, walk.raw, walk.noise[k % 2, :, :walk.sizes[k]], sqrt_dt)

    with ThreadPoolExecutor(1) as pool:  # its thread starts at the first submit
        drawn = pool.submit(draw, 0) if last else None
        for k, (iu, ju, z, r2, spare) in enumerate(walk.blocks(v)):
            m = iu.size
            for c in consumers:
                c.add(iu, ju, z, r2, spare)
            if drawn is None:
                draw(k)
            else:
                drawn.result()
                if k < last:  # the slot of block k - 1 is free again
                    drawn = pool.submit(draw, k + 1)
            term = walk.terms[:3, :m]
            scratch = (*walk.terms[3:, :m], walk.zdb[:m], walk.mask[:m])
            _pair_term(pot, z, r2, walk.noise[k % 2, :, :m], term, scratch, w_noise, w_drift)
            _scatter(term, iu, ju, walk.offsets[k], acc_i, acc_j)
    acc_i -= acc_j
    v_new = v + acc_i.T

    if config.energy_mode == "rescale":
        if e_target is None:
            e_target = _sum_squares(v)
        v_new = _rescale_energy(v_new, e_target)

    if not np.all(np.isfinite(v_new)):
        raise BlowupError(state.step_index + 1)
    return ParticleState(v_new, state.t + config.dt, state.step_index + 1)


_SNAPSHOT_TOL = 1e-9  # how far from t a snapshot recorded "at t" may lie


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

    def _index_at(self, t: float) -> int:
        """Index of the snapshot recorded at t (to 1e-9); StrideError if none is."""
        times = self.times
        if times.size == 0:
            raise StrideError("trajectory has no snapshots")
        k = int(np.argmin(np.abs(times - t)))
        if not abs(times[k] - t) <= _SNAPSHOT_TOL:
            raise StrideError(
                f"t={t} not on the snapshot grid (nearest {times[k]}); "
                "reduce snapshot_stride")
        return k


def _default_observer(state: ParticleState) -> dict:
    momentum, energy = conserved_quantities(state)
    return {"momentum": momentum.tolist(), "energy": energy}


def run(config: SimConfig, observers=(), pair_observers=()) -> Trajectory:
    """Integrate from an IID g0 draw to t_end, recording every stride-th step.

    Observers are callables state -> dict merged into the diagnostics row of
    each recorded snapshot.  Pair observers are callables state -> consumer:
    the consumer gets add(iu, ju, z, r2, spare) for every block of a pair
    pass over the recorded state (the next step's own pass; one pass of its
    own for the final state), may use or ignore the block's `spare` scratch
    rows, and its row() -> dict is then merged into the state's row.
    On blowup the partial trajectory is attached to the raised BlowupError
    as `.trajectory` (with `.error` set); the state the failed step started
    from was fully passed, so its row is complete.
    """
    t0 = time.perf_counter()
    state = init_iid(config)
    e_target = _sum_squares(state.v)
    traj = Trajectory(config=config)
    walk = _PairWalk(config.n_particles)

    def record_state(s: ParticleState):
        """Append s and its row; returns the consumers that complete the row."""
        traj.snapshots.append(s.copy())
        row = {"step": s.step_index, "t": s.t}
        row.update(_default_observer(s))
        for obs in observers:
            row.update(obs(s))
        traj.diagnostics.append(row)
        return [make(s) for make in pair_observers]

    def complete_row(consumers):
        for c in consumers:
            traj.diagnostics[-1].update(c.row())

    consumers = record_state(state)
    n_steps = config.n_steps
    try:
        for k in range(n_steps):
            state = step(state, config, e_target=e_target, consumers=consumers, walk=walk)
            complete_row(consumers)
            consumers = ()
            if state.step_index % config.snapshot_stride == 0 or k == n_steps - 1:
                consumers = record_state(state)
    except BlowupError as err:
        complete_row(consumers)
        traj.error = {"type": "blowup", "step": err.step_index}
        traj.runtime_s = time.perf_counter() - t0
        err.trajectory = traj
        raise
    if consumers:  # the final state: no step starts from it
        _feed_pairs(state.v, consumers, walk)
        complete_row(consumers)
    traj.runtime_s = time.perf_counter() - t0
    return traj
