"""Statistics computed from particle clouds (empirical measures)."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from .dynamics import _pair_blocks
from .errors import ConfigError, DegenerateCloudError

__all__ = ["EmpiricalMeasure", "moments", "pair_inverse_square", "knn_entropy"]

_PAIR_CUTOFF = 1e-14


@dataclass
class EmpiricalMeasure:
    """Uniform probability measure on a cloud of 3D points."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ConfigError("EmpiricalMeasure needs points of shape (N, 3)")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def mean_of(self, fn) -> float:
        """Integral of fn against the measure: mean of fn over the cloud."""
        return float(np.mean(fn(self.points)))


def moments(mu: EmpiricalMeasure, max_order: int = 4) -> dict:
    """Mean vector, energy (mean |v|^2), and radial moments E|v|^m, m <= max_order."""
    if not 0 <= max_order <= 8:
        raise ConfigError("max_order must lie in [0, 8]")
    v = mu.points
    n = mu.n
    mean = np.array([math.fsum(v[:, c]) for c in range(3)]) / n
    speed = np.sqrt(np.sum(v * v, axis=1))
    radial = {m: float(math.fsum(speed**m)) / n for m in range(1, max_order + 1)}
    return {"mean": mean, "energy": float(math.fsum(speed**2)) / n, "radial": radial}


def pair_inverse_square(mu: EmpiricalMeasure, return_excluded: bool = False):
    """Pair statistic (2/(N(N-1))) sum_{i<j} |V_i - V_j|^{-2}.

    Pairs closer than 1e-14 are excluded from the average and counted; if
    every pair is degenerate a DegenerateCloudError is raised.
    """
    v = mu.points
    n = mu.n
    if n < 2:
        raise DegenerateCloudError("need at least two points")
    total = 0.0
    kept = 0
    excluded = 0
    for _, iu, ju in _pair_blocks(n):
        z = np.take(v, iu, axis=0) - np.take(v, ju, axis=0)
        d2 = np.sum(z * z, axis=1)
        good = d2 >= _PAIR_CUTOFF**2
        excluded += int(np.sum(~good))
        kept += int(np.sum(good))
        total += float(np.sum(1.0 / d2[good]))
    if kept == 0:
        raise DegenerateCloudError("all pairs closer than the cutoff")
    value = total / kept
    if return_excluded:
        return value, excluded
    return value


def knn_entropy(points, k: int = 4) -> float:
    """k-nearest-neighbor estimate of int f log f (note: minus the
    differential entropy) from an IID cloud, Euclidean metric.

    Exact duplicate points (zero k-th neighbor distance) get a deterministic
    jitter of scale 1e-12 and a warning reporting how many were perturbed.
    """
    if isinstance(points, EmpiricalMeasure):
        points = points.points
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = x.shape
    if n <= k:
        raise ConfigError(f"need more than k={k} points, got {n}")
    tree = cKDTree(x)
    dist, _ = tree.query(x, k=k + 1, workers=-1)
    eps = dist[:, k]
    dup = eps <= 0.0
    if np.any(dup):
        warnings.warn(f"jittered {int(dup.sum())} duplicate points by 1e-12")
        jitter_rng = np.random.default_rng(0)
        x = x.copy()
        x[dup] += 1e-12 * jitter_rng.uniform(-1.0, 1.0, size=(int(dup.sum()), d))
        tree = cKDTree(x)
        dist, _ = tree.query(x, k=k + 1, workers=-1)
        eps = dist[:, k]
    log_ball = (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)
    h_diff = (digamma(n) - digamma(k) + log_ball
              + d * float(np.mean(np.log(eps))))
    return -h_diff
