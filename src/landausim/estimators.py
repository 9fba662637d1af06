"""Statistics computed from particle clouds (empirical measures)."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import _PairWalk, _feed_pairs
from .errors import ConfigError, DegenerateCloudError

__all__ = ["EmpiricalMeasure", "PairStats", "pair_inverse_square", "knn_entropy"]

_PAIR_CUTOFF = 1e-14
_KNN_K = 4  # the neighbor rank of knn_entropy


@dataclass
class EmpiricalMeasure:
    """Uniform probability measure on a cloud of 3D points."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ConfigError("EmpiricalMeasure needs points of shape (N, 3)")
        if not np.all(np.isfinite(self.points)):
            raise ConfigError("EmpiricalMeasure needs finite points")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def mean_of(self, fn) -> float:
        """Integral of fn against the measure: mean of fn over the cloud."""
        return float(np.mean(fn(self.points)))


class PairStats:
    """Pair statistics of one cloud, accumulated over the blocks of a pair pass.

    `row()` gives the mean of 1/r^2 over the pairs with r >= _PAIR_CUTOFF
    (NaN when no pair is that far apart), the smallest pair distance and the
    number of pairs closer than eta; `kept` and `excluded` count the pairs on
    either side of the cutoff.  Its temporaries live in each block's spare.
    """

    def __init__(self, eta: float = 0.0):
        self.eta_sq = eta * eta
        self.total = 0.0
        self.kept = self.excluded = self.below_eta = 0
        self.min_r2 = math.inf

    def add(self, iu, ju, z, r2, spare):
        (inv, *_), mask = spare
        good = np.greater_equal(r2, _PAIR_CUTOFF**2, out=mask)
        kept = int(np.count_nonzero(good))
        self.kept += kept
        self.excluded += r2.size - kept
        # only a cloud with near-coincident pairs pays for the compacted copy
        inv = np.divide(1.0, r2 if kept == r2.size else r2[good], out=inv[:kept])
        self.total += float(np.sum(inv))
        self.min_r2 = min(self.min_r2, float(np.min(r2)))
        self.below_eta += int(np.count_nonzero(np.less(r2, self.eta_sq, out=mask)))

    def row(self) -> dict:
        return {"pair_inv_sq": self.total / self.kept if self.kept else math.nan,
                "min_pair_dist": math.sqrt(self.min_r2),
                "n_pairs_below_eta": self.below_eta}


def pair_inverse_square(mu: EmpiricalMeasure) -> float:
    """Pair statistic (2/(N(N-1))) sum_{i<j} |V_i - V_j|^{-2}.

    Pairs closer than 1e-14 are excluded from the average (PairStats counts
    them); if every pair is degenerate a DegenerateCloudError is raised.
    The value is that of PairStats, here fed by a pass of its own.
    """
    if mu.n < 2:
        raise DegenerateCloudError("need at least two points")
    stats = PairStats()
    _feed_pairs(mu.points, [stats], _PairWalk(mu.n))
    if stats.kept == 0:
        raise DegenerateCloudError("all pairs closer than the cutoff")
    return stats.total / stats.kept


def knn_entropy(points) -> float:
    """4th-nearest-neighbor estimate of int f log f (note: minus the
    differential entropy) from an IID cloud, Euclidean metric.

    Exact duplicate points (zero k-th neighbor distance) get a deterministic
    jitter of scale 1e-12 and a warning reporting how many were perturbed.
    """
    from scipy.spatial import cKDTree  # imported here: the simulator never needs scipy
    from scipy.special import digamma

    if isinstance(points, EmpiricalMeasure):
        points = points.points
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = x.shape
    k = _KNN_K
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
