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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .densities import DensityModel, grid_integrate
from .dynamics import Trajectory, _pair_blocks
from .errors import ConfigError, StrideError
from .estimators import EmpiricalMeasure
from .potentials import alpha_bare
from .smoothstep import smoothstep, smoothstep_d1, smoothstep_d2

__all__ = [
    "GaussianBumpFn", "ConstantFn", "AffineFn", "QuadraticFn", "RadialBumpFn",
    "TestFunctionDictionary", "default_dictionary", "bl_distance",
    "holder_seminorm", "weak_form_residual", "bump_h",
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

    def c2_norm_bound(self, n_samples: int = 4001) -> float:
        """sup|phi| + sup|grad phi| + sup||hess phi||_2 by dense radial sampling."""
        r = np.linspace(0.0, 8.0 * self.scale, n_samples)
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
# test-function dictionary and the weighted weak metric

def _lattice_centers(radius: float):
    m = int(math.floor(radius))
    pts = [np.array(c, dtype=float)
           for c in itertools.product(range(-m, m + 1), repeat=3)
           if np.dot(c, c) <= radius**2]
    pts.sort(key=lambda p: (float(p @ p), tuple(p)))
    return pts


class TestFunctionDictionary:
    """Weighted family {(2^-n, phi_n)}: Gaussian bumps with C^2 norm sum <= 1.

    Centers run over the integer lattice in B(0, radius) ordered by |center|
    then lexicographically; each center carries scales (1/2, 1, 2) in order.
    Amplitudes normalize sup|phi| + sup|grad phi| + sup||hess phi|| to 1,
    re-verified by dense sampling at construction.
    """

    def __init__(self, n_max: int = 64, radius: float = 6.0,
                 scales=(0.5, 1.0, 2.0)):
        self.functions = []
        for center in _lattice_centers(radius):
            for s in scales:
                amp = (1.0 - 1e-9) / (1.0 + math.exp(-0.5) / s + 1.0 / s**2)
                self.functions.append(GaussianBumpFn(center, s, amp))
                if len(self.functions) == n_max:
                    break
            if len(self.functions) == n_max:
                break
        if len(self.functions) < n_max:
            raise ConfigError("lattice too small for requested dictionary size")
        for phi in self.functions:
            bound = phi.c2_norm_bound()
            if bound > 1.0:
                raise ConfigError(f"C^2 norm bound violated: {bound}")
        self.weights = 0.5 ** np.arange(1, n_max + 1)

    @property
    def n_max(self) -> int:
        return len(self.functions)

    @property
    def truncation_bound(self) -> float:
        """Tail of the metric series beyond n_max: sum_{n>n_max} 2^{-n} * 2."""
        return 2.0 * 0.5 ** self.n_max

    def integrals(self, target) -> np.ndarray:
        """Vector of int phi_n d(target) for a cloud or a density model."""
        if isinstance(target, EmpiricalMeasure):
            return np.array([float(np.mean(phi.value(target.points)))
                             for phi in self.functions])
        if isinstance(target, np.ndarray):
            return self.integrals(EmpiricalMeasure(target))
        if isinstance(target, DensityModel):
            out = np.empty(self.n_max)
            for i, phi in enumerate(self.functions):
                lo = phi.center - 8.0 * phi.scale
                hi = phi.center + 8.0 * phi.scale
                out[i] = grid_integrate(
                    lambda X: phi.value(X) * target.density(X), lo, hi, 41)
            return out
        raise ConfigError(f"unsupported target type {type(target).__name__}")


_DEFAULT_DICT = None


def default_dictionary() -> TestFunctionDictionary:
    global _DEFAULT_DICT
    if _DEFAULT_DICT is None:
        _DEFAULT_DICT = TestFunctionDictionary()
    return _DEFAULT_DICT


def bl_distance(a, b, dictionary: TestFunctionDictionary | None = None,
                return_bound: bool = False):
    """d(a, b) = sum_n 2^{-n} |int phi_n da - int phi_n db|.

    The series is truncated at the dictionary length; with
    ``return_bound=True`` the tail bound 2 * 2^{-n_max} is returned alongside
    the value.
    """
    dic = dictionary or default_dictionary()
    ia, ib = dic.integrals(a), dic.integrals(b)
    value = float(np.sum(dic.weights * np.abs(ia - ib)))
    if return_bound:
        return value, dic.truncation_bound
    return value


def holder_seminorm(times, measures=None, exponent: float = 0.125,
                    dictionary: TestFunctionDictionary | None = None) -> float:
    """sup_{s<t} d(mu_s, mu_t)/|t-s|^exponent along a measure-valued path.

    Accepts a Trajectory (snapshots become empirical measures) or parallel
    lists of times and measures.
    """
    if isinstance(times, Trajectory):
        traj = times
        measures = [EmpiricalMeasure(s.v) for s in traj.snapshots]
        times = traj.times
    times = np.asarray(times, dtype=float)
    if len(times) != len(measures) or len(times) < 2:
        raise ConfigError("need matching times/measures with at least two entries")
    dic = dictionary or default_dictionary()
    table = np.stack([dic.integrals(m) for m in measures], axis=1)  # (n_phi, S)
    best = 0.0
    for l in range(len(times) - 1):
        diff = np.abs(table[:, l + 1:] - table[:, [l]])
        dists = dic.weights @ diff
        gaps = np.abs(times[l + 1:] - times[l]) ** exponent
        best = max(best, float(np.max(dists / gaps)))
    return best


# ---------------------------------------------------------------------------
# weak-form residual

def weak_form_residual(traj: Trajectory, phi, t: float,
                       gamma: float | None = None) -> float:
    """Residual of the time-integrated weak form against phi at time t.

    F = -int phi dmu_t + int phi dmu_0
        + int_0^t (1/N^2) sum_{i != j} 1_{V_i != V_j} [ b(z_ij).(grad phi(V_i)
          - grad phi(V_j)) + alpha(|z_ij|) a(z_ij) : Hess phi(V_i) ] ds

    with the bare alpha(r) = r^gamma and b(z) = -2 alpha z; the time integral
    is a trapezoid over the recorded snapshots.  For phi constant the residual
    is exactly zero; for affine phi it reduces to momentum conservation.
    """
    if gamma is None:
        gamma = traj.config.gamma
    times = traj.times
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9:
        raise StrideError(f"t={t} not on the snapshot grid (nearest {times[idx]})")
    if abs(times[0]) > 1e-12:
        raise StrideError("trajectory does not start at t=0")

    vals = np.empty(idx + 1)
    for m in range(idx + 1):
        v = traj.snapshots[m].v
        n = v.shape[0]
        g = phi.grad(v)
        h = phi.hess(v)
        term_b = term_a = 0.0
        for _, iu, ju in _pair_blocks(n):
            z = np.take(v, iu, axis=0) - np.take(v, ju, axis=0)
            r2 = np.einsum("pc,pc->p", z, z)
            keep = r2 > 0.0
            iu, ju, z, r2 = iu[keep], ju[keep], z[keep], r2[keep]
            alpha = alpha_bare(gamma, np.sqrt(r2))
            gd = np.take(g, iu, axis=0) - np.take(g, ju, axis=0)
            term_b -= 2.0 * np.sum(alpha * np.einsum("pc,pc->p", z, gd))
            hs = np.take(h, iu, axis=0)
            hs += np.take(h, ju, axis=0)
            zhz = np.einsum("pc,pcd,pd->p", z, hs, z)
            term_a += np.sum(alpha * (r2 * np.einsum("pcc->p", hs) - zhz))
        # term_b and term_a already hold the ordered-pair sums of the
        # gradient and Hessian contributions; the gradient bracket is applied
        # per ordered pair, so it alone picks up a second factor of two
        vals[m] = (2.0 * term_b + term_a) / n**2

    integral = float(np.trapezoid(vals, times[: idx + 1])) if idx > 0 else 0.0
    mean_t = float(np.mean(phi.value(traj.snapshots[idx].v)))
    mean_0 = float(np.mean(phi.value(traj.snapshots[0].v)))
    return -mean_t + mean_0 + integral


# ---------------------------------------------------------------------------
# non-alignment of triples, ball masses, iota

def is_delta_nonaligned(v1, v2, v3, delta: float):
    """Quantitative non-alignment test.

    Requires |v2 - v1| >= 6 sqrt(delta) and a transverse offset of v3 from
    the v1-v2 line of at least 24 delta + 2 sqrt(delta) |v3 - v1|.  Returns
    (ok, (margin_separation, margin_transverse)); both margins nonnegative
    exactly when the triple is delta-non-aligned.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    v3 = np.asarray(v3, dtype=float)
    sep = float(np.linalg.norm(v2 - v1))
    m1 = sep - 6.0 * math.sqrt(delta)
    w = v3 - v1
    wn = float(np.linalg.norm(w))
    if sep > 0.0:
        u = (v2 - v1) / sep
        perp = w - (w @ u) * u
        pn = float(np.linalg.norm(perp))
    else:
        pn = 0.0
    m2 = pn - (24.0 * delta + 2.0 * math.sqrt(delta) * wn)
    return bool(m1 >= 0.0 and m2 >= 0.0), (m1, m2)


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
    if isinstance(target, EmpiricalMeasure):
        return float(np.mean(bump_h((target.points - center) / delta)))
    if isinstance(target, np.ndarray):
        return ball_mass(EmpiricalMeasure(target), center, delta)
    if isinstance(target, DensityModel):
        lo, hi = center - 1.5 * delta, center + 1.5 * delta
        return grid_integrate(
            lambda X: bump_h((X - center) / delta) * target.density(X),
            lo, hi, 41)
    raise ConfigError(f"unsupported target type {type(target).__name__}")


def iota(target, triple: NonAlignedTriple) -> float:
    """min over the triple's centers of the smoothed ball mass at scale delta."""
    return min(ball_mass(target, c, triple.delta) for c in triple.centers)


def _triple_margins_batch(v1, v2, v3, delta: float):
    """Vectorized non-alignment margins for stacked triples (rows)."""
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
                c1, c2, c3 = v1[h].copy(), v2[h].copy(), v3[h].copy()
                _, margins = is_delta_nonaligned(c1, c2, c3, delta)
                return NonAlignedTriple(c1, c2, c3, delta, margins,
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
