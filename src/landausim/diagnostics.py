"""Convergence and continuity diagnostics for particle trajectories.

Contents:

* a dictionary of C^2-normalized Gaussian test functions phi_n and the
  weighted metric  d(mu, nu) = sum_n 2^{-n} |int phi_n d(mu - nu)|,
  which metrizes weak convergence on the centers/scales it spans;
* Hoelder seminorm of a measure-valued path in that metric;
* the time-integrated weak-form residual of the interaction dynamics
  against a C^2 test function (zero in the mean-field limit);
* quantitative non-alignment of point triples and a searcher for
  well-separated high-mass triples, plus the associated ball-mass
  functional iota built on a fixed C^2 bump h (1 on B(0,1), 0 outside
  B(0, 3/2), quintic transition).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .densities import DensityModel, GaussianModel, grid_integrate
from .dynamics import Trajectory, _PairWalk, _take
from .errors import ConfigError, StrideError
from .estimators import EmpiricalMeasure
from .potentials import _power
from .smoothstep import smoothstep, smoothstep_d1, smoothstep_d2

__all__ = [
    "GaussianBumpFn", "ConstantFn", "AffineFn", "QuadraticFn", "RadialBumpFn",
    "TestFunctionDictionary", "default_dictionary", "bl_distance",
    "holder_seminorm", "weak_form_residual", "BumpWeakIntegrand",
    "recorded_weak_residual", "bump_h",
    "is_delta_nonaligned", "NonAlignedTriple", "find_nonaligned_triple",
    "ball_mass", "iota", "increment_scaling_exponent",
]


# ---------------------------------------------------------------------------
# C^2 test functions (value / grad / hess on batched 3D points)

class GaussianBumpFn:
    """phi(x) = amplitude * exp(-|x - center|^2 / (2 scale^2))."""

    def __init__(self, center, scale: float, amplitude: float = 1.0):
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.amplitude = float(amplitude)

    def value(self, X):
        d = np.atleast_2d(X) - self.center
        return self.amplitude * np.exp(-0.5 * np.sum(d * d, axis=1) / self.scale**2)

    def grad(self, X):
        d = np.atleast_2d(X) - self.center
        return -(self.value(X) / self.scale**2)[:, None] * d

    def hess(self, X):
        d = np.atleast_2d(X) - self.center
        s2 = self.scale**2
        outer = d[:, :, None] * d[:, None, :] / s2**2
        return self.value(X)[:, None, None] * (outer - np.eye(3) / s2)

    def c2_norm_bound(self) -> float:
        """sup|phi| + sup|grad phi| + sup||hess phi||_2 by dense radial
        sampling (4001 radii on [0, 8 scale])."""
        r = np.linspace(0.0, 8.0 * self.scale, 4001)
        e = self.amplitude * np.exp(-0.5 * (r / self.scale) ** 2)
        grad_mag = e * r / self.scale**2
        eig_radial = e * (r**2 / self.scale**4 - 1.0 / self.scale**2)
        eig_tangent = -e / self.scale**2
        hess_norm = np.maximum(np.abs(eig_radial), np.abs(eig_tangent))
        return float(e.max() + grad_mag.max() + hess_norm.max())


class ConstantFn:
    def __init__(self, c: float = 1.0):
        self.c = float(c)

    def value(self, X):
        return np.full(np.atleast_2d(X).shape[0], self.c)

    def grad(self, X):
        return np.zeros_like(np.atleast_2d(X))

    def hess(self, X):
        return np.zeros(np.atleast_2d(X).shape[:1] + (3, 3))


class AffineFn:
    """phi(x) = a . x + b."""

    def __init__(self, a, b: float = 0.0):
        self.a = np.asarray(a, dtype=float)
        self.b = float(b)

    def value(self, X):
        return np.atleast_2d(X) @ self.a + self.b

    def grad(self, X):
        X = np.atleast_2d(X)
        return np.broadcast_to(self.a, X.shape).copy()

    def hess(self, X):
        return np.zeros(np.atleast_2d(X).shape[:1] + (3, 3))


class QuadraticFn:
    """phi(x) = x^T A x with symmetric A."""

    def __init__(self, A):
        self.A = 0.5 * (np.asarray(A, dtype=float) + np.asarray(A, dtype=float).T)

    def value(self, X):
        X = np.atleast_2d(X)
        return np.einsum("ni,ij,nj->n", X, self.A, X)

    def grad(self, X):
        return 2.0 * (np.atleast_2d(X) @ self.A)

    def hess(self, X):
        X = np.atleast_2d(X)
        return np.broadcast_to(2.0 * self.A, X.shape[:1] + (3, 3)).copy()


def _bump_profile(rho):
    """p(rho): 1 below 1, quintic fall to 0 on [1, 3/2]."""
    return smoothstep(3.0 - 2.0 * rho)


def bump_h(y):
    """The fixed C^2 bump h: 1 on B(0,1), 0 outside B(0,3/2); batched 3D input."""
    y = np.atleast_2d(y)
    return _bump_profile(np.sqrt(np.sum(y * y, axis=1)))


class RadialBumpFn:
    """phi(x) = h((x - center)/delta) with the fixed C^2 bump profile."""

    def __init__(self, center, delta: float):
        self.center = np.asarray(center, dtype=float)
        self.delta = float(delta)

    def _rho(self, X):
        d = (np.atleast_2d(X) - self.center) / self.delta
        return np.sqrt(np.sum(d * d, axis=1)), d

    def value(self, X):
        rho, _ = self._rho(X)
        return _bump_profile(rho)

    def grad(self, X):
        rho, d = self._rho(X)
        dp = -2.0 * smoothstep_d1(3.0 - 2.0 * rho)  # p'(rho)
        with np.errstate(invalid="ignore", divide="ignore"):
            coef = np.where(rho > 0.0, dp / (rho * self.delta**2), 0.0)
        return coef[:, None] * d * self.delta

    def hess(self, X):
        rho, d = self._rho(X)
        dp = -2.0 * smoothstep_d1(3.0 - 2.0 * rho)
        ddp = 4.0 * smoothstep_d2(3.0 - 2.0 * rho)
        with np.errstate(invalid="ignore", divide="ignore"):
            inv = np.where(rho > 0.0, 1.0 / rho, 0.0)
        yhat = d * inv[:, None]
        outer = yhat[:, :, None] * yhat[:, None, :]
        eye = np.eye(3)
        radial = ddp[:, None, None] * outer
        tangent = (dp * inv)[:, None, None] * (eye - outer)
        return (radial + tangent) / self.delta**2


# ---------------------------------------------------------------------------
# integrals against a cloud or a density, test-function dictionary, weak metric

def _as_target(target):
    """A cloud or a density model; an (N, 3) array is taken as a cloud."""
    if isinstance(target, np.ndarray):
        return EmpiricalMeasure(target)
    if isinstance(target, (EmpiricalMeasure, DensityModel)):
        return target
    raise ConfigError(f"unsupported target type {type(target).__name__}")


def _integral(target, fn, lo, hi) -> float:
    """int fn d(target): the mean over a cloud, or for a density the 41-point
    per-axis trapezoid rule of fn * density on the box [lo, hi]."""
    target = _as_target(target)
    if isinstance(target, EmpiricalMeasure):
        return target.mean_of(fn)
    return grid_integrate(lambda X: fn(X) * target.density(X), lo, hi, 41)


def _bump_gaussian_integral(phi: GaussianBumpFn, model: GaussianModel) -> float:
    """int phi dN(m, S) = A s^3 det(S + s^2 I)^(-1/2) exp(-q/2), with
    q = (c - m)^T (S + s^2 I)^(-1) (c - m), for phi = A exp(-|x - c|^2 / (2 s^2))."""
    cov = model.cov + phi.scale**2 * np.eye(3)
    d = phi.center - model.mean
    q = float(d @ np.linalg.solve(cov, d))
    return phi.amplitude * phi.scale**3 * math.exp(-0.5 * q) / math.sqrt(np.linalg.det(cov))


def _lattice_centers(radius: float):
    m = int(math.floor(radius))
    pts = [np.array(c, dtype=float)
           for c in itertools.product(range(-m, m + 1), repeat=3)
           if np.dot(c, c) <= radius**2]
    pts.sort(key=lambda p: (float(p @ p), tuple(p)))
    return pts


# the dictionary's length, lattice radius and bump scales
_DICT_SIZE, _DICT_RADIUS, _DICT_SCALES = 64, 6.0, (0.5, 1.0, 2.0)


class TestFunctionDictionary:
    """Weighted family {(2^-n, phi_n)}, n = 1..64: Gaussian bumps with C^2
    norm sum <= 1.

    Centers run over the integer lattice in B(0, 6) ordered by |center|
    then lexicographically; each center carries scales (1/2, 1, 2) in order.
    Amplitudes normalize sup|phi| + sup|grad phi| + sup||hess phi|| to 1,
    re-verified by dense sampling at construction.
    """

    def __init__(self):
        grid = ((center, s) for center in _lattice_centers(_DICT_RADIUS)
                for s in _DICT_SCALES)
        self.functions = [
            GaussianBumpFn(center, s, (1.0 - 1e-9) / (1.0 + math.exp(-0.5) / s + 1.0 / s**2))
            for center, s in itertools.islice(grid, _DICT_SIZE)]
        for phi in self.functions:
            bound = phi.c2_norm_bound()
            if bound > 1.0:
                raise ConfigError(f"C^2 norm bound violated: {bound}")
        self.weights = 0.5 ** np.arange(1, _DICT_SIZE + 1)

    @property
    def n_max(self) -> int:
        return len(self.functions)

    @property
    def truncation_bound(self) -> float:
        """Tail of the metric series beyond n_max: sum_{n>n_max} 2^{-n} * 2."""
        return 2.0 * 0.5 ** self.n_max

    def integrals(self, target) -> np.ndarray:
        """Vector of int phi_n d(target) for a cloud or a density model; in
        closed form for a Gaussian model."""
        target = _as_target(target)
        if isinstance(target, GaussianModel):
            return np.array([_bump_gaussian_integral(phi, target) for phi in self.functions])
        return np.array([_integral(target, phi.value, phi.center - 8.0 * phi.scale,
                                   phi.center + 8.0 * phi.scale)
                         for phi in self.functions])


@functools.cache
def default_dictionary() -> TestFunctionDictionary:
    return TestFunctionDictionary()


def bl_distance(a, b) -> float:
    """d(a, b) = sum_n 2^{-n} |int phi_n da - int phi_n db| over the
    functions of `default_dictionary()`.

    The series is truncated at the dictionary length; the dictionary's
    `truncation_bound` bounds the tail.
    """
    dic = default_dictionary()
    ia, ib = dic.integrals(a), dic.integrals(b)
    return float(np.sum(dic.weights * np.abs(ia - ib)))


_HOLDER_EXPONENT = 0.125  # of holder_seminorm


def holder_seminorm(times, measures) -> float:
    """sup_{s<t} d(mu_s, mu_t)/|t-s|^(1/8) along a measure-valued path, d
    being `bl_distance`.

    times and measures are parallel lists; for a Trajectory pass
    traj.times and [EmpiricalMeasure(s.v) for s in traj.snapshots].
    """
    times = np.asarray(times, dtype=float)
    if len(times) != len(measures) or len(times) < 2:
        raise ConfigError("need matching times/measures with at least two entries")
    dic = default_dictionary()
    table = np.stack([dic.integrals(m) for m in measures], axis=1)  # (n_phi, S)
    best = 0.0
    for l in range(len(times) - 1):
        diff = np.abs(table[:, l + 1:] - table[:, [l]])
        dists = dic.weights @ diff
        gaps = np.abs(times[l + 1:] - times[l]) ** _HOLDER_EXPONENT
        best = max(best, float(np.max(dists / gaps)))
    return best


# ---------------------------------------------------------------------------
# weak-form residual

_HESS_ENTRIES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _dot(x, y) -> float:
    """sum(x * y) as one pairwise sum, written into y (no BLAS: the same bits
    at any thread count)."""
    return float(np.add.reduce(np.multiply(x, y, out=y)))


def _bare_alpha(r2, gamma: float, alpha, r, far):
    """alpha = |z|^gamma from r2 = |z|^2, 0 where r2 = 0; r and far are scratch."""
    np.greater(r2, 0.0, out=far)
    alpha.fill(0.0)
    return _power(np.sqrt(r2, out=r), gamma, alpha, where=far)


def weak_form_residual(traj: Trajectory, phi, t: float) -> float:
    """Residual of the time-integrated weak form against phi at time t.

    F = -int phi dmu_t + int phi dmu_0
        + int_0^t (1/N^2) sum_{i != j} 1_{V_i != V_j} [ b(z_ij).(grad phi(V_i)
          - grad phi(V_j)) + alpha(|z_ij|) a(z_ij) : Hess phi(V_i) ] ds

    with the bare alpha(r) = r^gamma, gamma that of the trajectory's config,
    and b(z) = -2 alpha z; the time integral is a trapezoid over the recorded
    snapshots.  For phi constant the residual is exactly zero; for affine phi
    it reduces to momentum conservation.
    """
    gamma = traj.config.gamma
    idx = traj._index_at(t)
    times = traj.times
    if abs(times[0]) > 1e-12:
        raise StrideError("trajectory does not start at t=0")

    n = traj.snapshots[0].n
    walk = _PairWalk(n)
    vals = np.empty(idx + 1)
    for m in range(idx + 1):
        v = traj.snapshots[m].v
        g = phi.grad(v).T.copy()  # one row per coordinate, for one-dimensional gathers
        h = phi.hess(v)
        # one row per unique entry: H_cc, and H_cd + H_dc for c < d
        hu = np.stack([h[:, c, d] + h[:, d, c] if c != d else h[:, c, c]
                       for c, d in _HESS_ENTRIES])
        term_b = term_a = 0.0
        for _, iu, ju, z, r2, ((alpha, acc, a, b, t, _), far) in walk.blocks(v):
            _bare_alpha(r2, gamma, alpha, acc, far)
            # z . (grad phi_i - grad phi_j)
            acc.fill(0.0)
            for c in range(3):
                _take(g[c], iu, a)
                a -= _take(g[c], ju, b)
                acc += np.multiply(a, z[c], out=a)
            term_b -= 2.0 * _dot(alpha, acc)
            # a(z) : (H_i + H_j)
            #   = sum_c H_cc sum_{e != c} z_e^2 - sum_{c < d} (H_cd + H_dc) z_c z_d
            acc.fill(0.0)
            for k, (c, d) in enumerate(_HESS_ENTRIES):
                _take(hu[k], iu, a)
                a += _take(hu[k], ju, b)
                if c == d:
                    e, f = (x for x in range(3) if x != c)
                    np.multiply(z[e], z[e], out=b)
                    b += np.multiply(z[f], z[f], out=t)
                    acc += np.multiply(a, b, out=a)
                else:
                    acc -= np.multiply(a, np.multiply(z[c], z[d], out=b), out=a)
            term_a += _dot(alpha, acc)
        # term_b and term_a already hold the ordered-pair sums of the
        # gradient and Hessian contributions; the gradient bracket is applied
        # per ordered pair, so it alone picks up a second factor of two
        vals[m] = (2.0 * term_b + term_a) / n**2
    return _residual(traj, phi, vals)


def _residual(traj: Trajectory, phi, vals) -> float:
    """-int phi dmu_t + int phi dmu_0 + the trapezoid of the integrand vals
    over the first len(vals) snapshots, t being the last of them."""
    idx = len(vals) - 1
    times = traj.times
    integral = float(np.trapezoid(vals, times[: idx + 1])) if idx > 0 else 0.0
    mean_t = float(np.mean(phi.value(traj.snapshots[idx].v)))
    mean_0 = float(np.mean(phi.value(traj.snapshots[0].v)))
    return -mean_t + mean_0 + integral


class BumpWeakIntegrand:
    """Pair consumer: the snapshot integrand of `weak_form_residual` for a
    Gaussian bump phi, with the bare alpha = r^gamma, on the blocks of a pair
    pass over the cloud v.

    With d_i = V_i - c and s the bump's scale, grad phi_i = -phi_i d_i / s^2
    and a(z) : Hess phi_i = phi_i |z x d_i|^2 / s^4 - 2 phi_i |z|^2 / s^2, so
    no 3x3 Hessian is gathered.  By Lagrange's identity
    |z x d_i|^2 = |z|^2 |d_i|^2 - u_i^2 with u_i = z . d_i, and u_j = u_i - |z|^2,
    so a pair adds alpha [phi_i (|z|^2 (|d_i|^2 - 2 s^2) + u_i (4 s^2 - u_i))
    + phi_j (|z|^2 (|d_j|^2 - 2 s^2) - u_j (4 s^2 + u_j))] / (N^2 s^4).
    row() gives {"weak_integrand": value}.  The temporaries live in each
    block's spare.
    """

    def __init__(self, phi: GaussianBumpFn, gamma: float, v):
        s2 = phi.scale**2
        d = v - phi.center
        self.gamma = gamma
        self.four_s2 = 4.0 * s2
        self.phi = phi.value(v)
        self.d = d.T.copy()  # one row per coordinate, for one-dimensional gathers
        self.e = np.einsum("pc,pc->p", d, d) - 2.0 * s2
        self.norm = 1.0 / (v.shape[0] ** 2 * s2**2)
        self.total = 0.0

    def add(self, iu, ju, z, r2, spare):
        (alpha, u, t, g, h, r), far = spare
        z0, z1, z2 = z
        _bare_alpha(r2, self.gamma, alpha, r, far)
        np.multiply(z0, _take(self.d[0], iu, t), out=u)
        u += np.multiply(z1, _take(self.d[1], iu, t), out=t)
        u += np.multiply(z2, _take(self.d[2], iu, t), out=t)
        np.multiply(r2, _take(self.e, iu, g), out=g)
        g += np.multiply(u, np.subtract(self.four_s2, u, out=t), out=t)
        g *= _take(self.phi, iu, t)
        u -= r2
        np.multiply(r2, _take(self.e, ju, h), out=h)
        h -= np.multiply(u, np.add(self.four_s2, u, out=t), out=t)
        h *= _take(self.phi, ju, t)
        g += h
        self.total += _dot(alpha, g)

    def row(self) -> dict:
        return {"weak_integrand": self.total * self.norm}


def recorded_weak_residual(traj: Trajectory, phi: GaussianBumpFn) -> float:
    """`weak_form_residual(traj, phi, traj.times[-1])` from the
    "weak_integrand" column that BumpWeakIntegrand wrote into every
    diagnostics row of the run."""
    return _residual(traj, phi, np.array([row["weak_integrand"]
                                          for row in traj.diagnostics]))


# ---------------------------------------------------------------------------
# non-alignment of triples, ball masses, iota

def is_delta_nonaligned(v1, v2, v3, delta: float):
    """Quantitative non-alignment test.

    Requires |v2 - v1| >= 6 sqrt(delta) and a transverse offset of v3 from
    the v1-v2 line of at least 24 delta + 2 sqrt(delta) |v3 - v1|.  Returns
    (ok, (margin_separation, margin_transverse)); both margins nonnegative
    exactly when the triple is delta-non-aligned.
    """
    m1, m2 = _triple_margins_batch(*np.asarray([v1, v2, v3], dtype=float)[:, None], delta)
    return bool(m1[0] >= 0.0 and m2[0] >= 0.0), (float(m1[0]), float(m2[0]))


@dataclass(frozen=True)
class NonAlignedTriple:
    """A delta-non-aligned triple with its margins and minimum ball mass."""

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    delta: float
    margins: tuple
    min_mass: float = float("nan")

    @property
    def centers(self):
        return (self.v1, self.v2, self.v3)


def ball_mass(target, center, delta: float) -> float:
    """int h((w - center)/delta) d(target), the smoothed mass near center."""
    center = np.asarray(center, dtype=float)
    return _integral(target, lambda X: bump_h((X - center) / delta),
                     center - 1.5 * delta, center + 1.5 * delta)


def iota(target, triple: NonAlignedTriple) -> float:
    """min over the triple's centers of the smoothed ball mass at scale delta."""
    return min(ball_mass(target, c, triple.delta) for c in triple.centers)


def _triple_margins_batch(v1, v2, v3, delta: float):
    """Non-alignment margins (m1, m2) of stacked triples, one per row of the
    (P, 3) arrays v1, v2, v3."""
    d12 = v2 - v1
    sep = np.linalg.norm(d12, axis=1)
    m1 = sep - 6.0 * math.sqrt(delta)
    w = v3 - v1
    wn = np.linalg.norm(w, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(sep[:, None] > 0.0, d12 / sep[:, None], 0.0)
    perp = w - np.einsum("pc,pc->p", w, u)[:, None] * u
    pn = np.where(sep > 0.0, np.linalg.norm(perp, axis=1), 0.0)
    m2 = pn - (24.0 * delta + 2.0 * math.sqrt(delta) * wn)
    return m1, m2


def find_nonaligned_triple(target, delta: float, radius: float,
                           kappa: float) -> NonAlignedTriple | None:
    """Search B(0, radius) for a delta-non-aligned triple of kappa-heavy balls.

    Candidate centers are a deterministic lattice in the ball (plus, for
    clouds, points at evenly spaced quantile ranks of |v|); centers with
    smoothed ball mass below kappa are discarded.  Among the surviving
    non-aligned triples the one maximizing the minimum ball mass is returned
    (None when the search fails): scanning the candidates in decreasing-mass
    order by the triple's lightest member makes the first hit optimal.
    It returns None when fewer than three lattice or cloud candidates reach
    kappa, which is certain once kappa exceeds sup(density) * delta^3 * int h,
    the bound on every ball mass.
    """
    if 6.0 * math.sqrt(delta) > 2.0 * radius:
        return None  # no pair inside the ball can be separated enough
    spacing = max(2.0 * math.sqrt(delta), radius / 6.0)
    axes = np.arange(-radius, radius + spacing / 2.0, spacing)
    cands = [np.array(p) for p in itertools.product(axes, repeat=3)
             if float(np.dot(p, p)) <= radius**2]
    target = _as_target(target)
    if isinstance(target, EmpiricalMeasure):
        inside = target.points[np.sum(target.points**2, axis=1) <= radius**2]
        if inside.shape[0]:
            ranks = np.argsort(np.linalg.norm(inside, axis=1), kind="stable")
            picks = ranks[np.linspace(0, inside.shape[0] - 1, min(32, inside.shape[0])
                                      ).astype(int)]
            cands.extend(inside[picks])
    masses = np.array([ball_mass(target, c, delta) for c in cands])
    order = np.argsort(-masses, kind="stable")
    order = order[masses[order] >= kappa]
    if order.size < 3:
        return None
    pts = np.stack([cands[k] for k in order])
    wts = masses[order]
    for l in range(2, order.size):
        ii, jj = np.triu_indices(l, k=1)
        stacks = (pts[ii], pts[jj], np.broadcast_to(pts[l], (ii.size, 3)))
        for roles in itertools.permutations(range(3)):
            v1, v2, v3 = (stacks[r] for r in roles)
            m1, m2 = _triple_margins_batch(v1, v2, v3, delta)
            hit = np.flatnonzero((m1 >= 0.0) & (m2 >= 0.0))
            if hit.size:
                h = int(hit[0])
                return NonAlignedTriple(v1[h].copy(), v2[h].copy(), v3[h].copy(), delta,
                                        (float(m1[h]), float(m2[h])),
                                        min_mass=float(wts[l]))
    return None


# ---------------------------------------------------------------------------
# increment scaling (empirical Hoelder exponent of a scalar series)

def increment_scaling_exponent(times, values, statistic: str = "median") -> dict:
    """Fit |x(t+L) - x(t)| ~ L^H over dyadic lags; returns slope and table.

    The per-lag statistic (median by default, or max) is regressed against
    the lag in log-log; lags whose statistic vanishes are skipped.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size != values.size or times.size < 5:
        raise ConfigError("need at least 5 samples")
    stat = {"median": np.median, "max": np.max}[statistic]
    lags, amps = [], []
    lag = 1
    while lag <= (times.size - 1) // 2:
        inc = np.abs(values[lag:] - values[:-lag])
        a = float(stat(inc))
        if a > 0.0:
            lags.append(float(np.median(times[lag:] - times[:-lag])))
            amps.append(a)
        lag *= 2
    if len(lags) < 3:
        raise ConfigError("not enough nonzero lags to fit an exponent")
    slope, intercept = np.polyfit(np.log(lags), np.log(amps), 1)
    return {"exponent": float(slope), "intercept": float(intercept),
            "lags": lags, "amplitudes": amps}
