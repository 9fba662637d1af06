import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from landausim import dynamics
from landausim.errors import ConfigError, DegenerateCloudError
from landausim.estimators import EmpiricalMeasure, PairStats, knn_entropy, pair_inverse_square
from landausim.reference import maxwellian_entropy


# ---------------------------------------------------------------------------
# EmpiricalMeasure

def test_measure_validation_and_mean_of():
    with pytest.raises(ConfigError):
        EmpiricalMeasure(np.zeros((4, 2)))
    mu = EmpiricalMeasure([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    assert mu.n == 2
    assert mu.mean_of(lambda v: v[:, 0]) == 2.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measure_rejects_non_finite_points(rng, bad):
    # a NaN pair would otherwise count as a coincident, excluded pair
    v = rng.normal(size=(20, 3))
    v[7, 1] = bad
    with pytest.raises(ConfigError, match="finite"):
        EmpiricalMeasure(v)


# ---------------------------------------------------------------------------
# Pair inverse-square statistic

def test_pair_statistic_two_points():
    mu = EmpiricalMeasure([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert pair_inverse_square(mu) == 0.25  # single pair at distance 2


def test_pair_statistic_three_points_hand_value():
    mu = EmpiricalMeasure([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    # pair distances^2: 1, 4, 5
    expect = (1.0 / 1.0 + 1.0 / 4.0 + 1.0 / 5.0) / 3.0
    assert pair_inverse_square(mu) == pytest.approx(expect, rel=1e-14)


def test_pair_statistic_matches_pdist(rng):
    v = rng.normal(size=(500, 3))
    d2 = pdist(v, "sqeuclidean")
    expect = float(np.mean(1.0 / d2))
    assert pair_inverse_square(EmpiricalMeasure(v)) == pytest.approx(
        expect, rel=1e-12)


def _value_and_excluded(v):
    """pair_inverse_square of the cloud v and PairStats' count of the pairs
    it leaves out."""
    stats = PairStats()
    dynamics._feed_pairs(v, [stats], dynamics._PairWalk(v.shape[0]))
    return pair_inverse_square(EmpiricalMeasure(v)), stats.excluded


def test_pair_statistic_chunking_invariance(rng, monkeypatch):
    # the blocked accumulation must not depend on the block size
    v = rng.normal(size=(700, 3))
    import landausim.estimators as est
    monkeypatch.setattr(dynamics, "_PAIR_BLOCK", 10**6)
    assert len(list(dynamics._PairWalk(700).blocks(v))) == 1
    one = _value_and_excluded(v)
    monkeypatch.setattr(dynamics, "_PAIR_BLOCK", 1000)
    assert len(list(dynamics._PairWalk(700).blocks(v))) > 100
    many = _value_and_excluded(v)
    assert one[1] == many[1] == 0
    assert many[0] == pytest.approx(one[0], rel=1e-12)
    d2 = pdist(v, "sqeuclidean")
    for a, _ in (one, many):
        assert a == pytest.approx(float(np.mean(1.0 / d2)), rel=1e-12)
    assert est._PAIR_CUTOFF == 1e-14


def test_pair_statistic_gaussian_closed_form():
    # for an IID Maxwellian cloud at T = 1 the statistic estimates
    # E |Z - Z'|^{-2} = 1/2 (the difference is N(0, 2 I_3))
    vals = []
    for seed in range(8):
        v = np.random.default_rng(seed).normal(size=(4000, 3))
        vals.append(pair_inverse_square(EmpiricalMeasure(v)))
    vals = np.array(vals)
    assert abs(np.median(vals) - 0.5) < 0.05
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 0.5) < 6.0 * se + 0.01


def test_pair_statistic_degenerate_clouds():
    with pytest.raises(DegenerateCloudError):
        pair_inverse_square(EmpiricalMeasure(np.zeros((1, 3))))
    with pytest.raises(DegenerateCloudError):
        pair_inverse_square(EmpiricalMeasure(np.zeros((5, 3))))


def test_pair_statistic_excludes_coincident_pairs():
    mu = EmpiricalMeasure([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                           [1.0, 0.0, 0.0]])
    value, excluded = _value_and_excluded(mu.points)
    assert excluded == 1
    assert value == 1.0  # the two surviving pairs both have distance 1


# ---------------------------------------------------------------------------
# kNN entropy estimator

def test_knn_entropy_gaussian(rng):
    v = rng.normal(size=(50_000, 3))
    est = knn_entropy(v)
    assert est == pytest.approx(maxwellian_entropy(1.0), abs=0.05)


def test_knn_entropy_accepts_measure(rng):
    v = rng.normal(size=(2000, 3))
    assert knn_entropy(EmpiricalMeasure(v)) == knn_entropy(v)


def test_knn_entropy_scaling_shift(rng):
    # dilating the cloud by lambda shifts the estimate by exactly -3 log
    # lambda: with a dyadic lambda the neighbor distances scale bit-exactly
    v = rng.normal(size=(5000, 3))
    lam = 2.0
    shift = knn_entropy(lam * v) - knn_entropy(v)
    assert shift == pytest.approx(-3.0 * math.log(lam), abs=1e-10)


def test_knn_entropy_translation_invariance(rng):
    v = rng.normal(size=(3000, 3))
    a = knn_entropy(v)
    b = knn_entropy(v + np.array([10.0, -5.0, 2.0]))
    assert b == pytest.approx(a, abs=1e-9)


def test_knn_entropy_duplicates_warn_and_stay_finite(rng):
    v = rng.normal(size=(500, 3))
    v[:20] = v[0]  # 20 coincident points
    with pytest.warns(UserWarning, match="jittered"):
        est = knn_entropy(v)
    assert np.isfinite(est)


def test_knn_entropy_needs_enough_points():
    with pytest.raises(ConfigError):
        knn_entropy(np.zeros((4, 3)))
