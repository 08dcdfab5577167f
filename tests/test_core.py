import numpy as np
import pytest

import robust_batches as rb
from robust_batches.core import per_batch_probs
from robust_batches.partition import Interval, IntervalUnion


def union(*pairs):
    return IntervalUnion(tuple(Interval(a, b) for a, b in pairs))


def test_empirical_prob_raw():
    b = rb.Batch(0, np.array([0.1, 0.5, 0.9, 0.3]))
    assert rb.empirical_prob(b, union((0.0, 0.4))) == 0.5
    assert rb.empirical_prob(b, union()) == 0.0


def test_empirical_prob_discretized():
    b = rb.DiscretizedBatch(0, [2, 0, 2])
    assert rb.empirical_prob(b, rb.BinSubset.of(1, 3)) == 1.0
    assert rb.empirical_prob(b, rb.BinSubset.of(2)) == 0.0


def test_empirical_prob_mismatched_representation():
    raw = rb.Batch(0, np.array([0.1, 0.2]))
    disc = rb.DiscretizedBatch(0, [1, 1])
    with pytest.raises(rb.UsageError):
        rb.empirical_prob(raw, rb.BinSubset.of(1))
    with pytest.raises(rb.UsageError):
        rb.empirical_prob(disc, union((0.0, 1.0)))


def test_empirical_prob_monotone_and_additive():
    rng = np.random.default_rng(5)
    b = rb.Batch(0, rng.random(50))
    small = union((0.2, 0.4))
    big = union((0.2, 0.6))
    disjoint = union((0.6, 0.8))
    assert rb.empirical_prob(b, small) <= rb.empirical_prob(b, big)
    both = union((0.2, 0.6), (0.6000000001, 0.8))
    got = rb.empirical_prob(b, big) + rb.empirical_prob(b, disjoint)
    assert rb.empirical_prob(b, both) == pytest.approx(got, abs=1e-12)


def test_pooled_empirical_discretized():
    # the pooled measure of a sub-collection is the mean of its batches' measures
    coll = rb.DiscretizedCollection(np.array([[1, 1], [2, 0]]), (0, 1), 2)
    np.testing.assert_allclose(coll.pooled(), [0.75, 0.25])
    np.testing.assert_allclose(coll.subset([0]).pooled(), [0.5, 0.5])
    np.testing.assert_allclose(coll.subset([1]).pooled(), [1.0, 0.0])


def test_pooled_empirical_matches_grand_count():
    rng = np.random.default_rng(1)
    coll = rb.BatchCollection(tuple(rb.Batch(i, rng.random(20)) for i in range(7)))
    region = union((0.25, 0.75))
    pooled = coll.pooled_samples()
    direct = np.count_nonzero(region.contains(pooled)) / pooled.size
    assert pooled.size == 20 * 7
    assert np.mean(per_batch_probs(coll, region)) == pytest.approx(direct, abs=1e-15)


def test_pooled_empirical_empty():
    # an empty sub-collection has no pooled measure: neither type can be built empty
    with pytest.raises(rb.UsageError):
        rb.BatchCollection(())
    with pytest.raises(rb.UsageError):
        rb.DiscretizedCollection(np.zeros((0, 2), dtype=np.int64), (), 2)


def test_binomial_variance():
    assert rb.binomial_variance(0.5, 100) == 0.0025
    assert rb.binomial_variance(0.0, 10) == 0.0
    with pytest.raises(rb.DomainError):
        rb.binomial_variance(1.5, 10)
    rng = np.random.default_rng(0)
    for r in rng.random(200):
        n = int(rng.integers(1, 1000))
        assert rb.binomial_variance(r, n) <= 1.0 / (4 * n) + 1e-15


def test_variance_lipschitz_property():
    rng = np.random.default_rng(3)
    n = 50
    for r, s in rng.random((200, 2)):
        lhs = abs(rb.binomial_variance(r, n) - rb.binomial_variance(s, n))
        assert lhs <= abs(r - s) / n + 1e-15


def test_batch_rejects_nonfinite():
    with pytest.raises(rb.UsageError):
        rb.Batch(0, np.array([1.0, np.nan]))
    with pytest.raises(rb.UsageError):
        rb.Batch(0, np.array([np.inf]))


def test_collection_invariants():
    b0 = rb.Batch(0, np.array([1.0, 2.0]))
    b1 = rb.Batch(1, np.array([1.0]))
    with pytest.raises(rb.UsageError):
        rb.BatchCollection((b0, b1))
    with pytest.raises(rb.UsageError):
        rb.BatchCollection((b0,), truth=("good", "adversarial"))
    with pytest.raises(rb.UsageError):
        rb.BatchCollection((b0,), truth=("fine",))


def test_discretized_collection_subset():
    coll = rb.DiscretizedCollection(
        np.array([[1, 1], [2, 0], [0, 2]]), (10, 11, 12), 2, ("good", "adversarial", "good")
    )
    sub = coll.subset([10, 12])
    assert sub.ids == (10, 12)
    assert sub.truth == ("good", "good")
    mask_sub = coll.subset(np.array([True, False, True]))
    assert mask_sub.ids == (10, 12)
    with pytest.raises(rb.UsageError):
        coll.subset([])


def test_per_batch_probs_matches_op():
    coll = rb.DiscretizedCollection(np.array([[1, 3], [4, 0]]), (0, 1), 4)
    got = per_batch_probs(coll, rb.BinSubset.of(2))
    np.testing.assert_allclose(got, [0.75, 0.0])


def test_corruption_params():
    p = rb.CorruptionParams(0.1, 10000, 500)
    assert p.tau == pytest.approx(0.0677, abs=2e-4)
    assert p.kappa_g == pytest.approx(0.1 * 500 * np.log(6 * np.e / 0.1) / 10000)
    with pytest.raises(rb.DomainError):
        rb.CorruptionParams(0.0, 10, 10)
    with pytest.raises(rb.DomainError):
        rb.CorruptionParams(0.5, 10, 10)
