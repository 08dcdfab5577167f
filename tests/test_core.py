import tracemalloc

import numpy as np
import pytest

import robust_batches as rb
from robust_batches.core import check_labeled, per_batch_probs
from robust_batches.partition import Interval, IntervalUnion
from oracles import binomial_variance, raw_batch_probs


def union(*pairs):
    return IntervalUnion(tuple(Interval(a, b) for a, b in pairs))


def test_empirical_prob_raw():
    coll = rb.BatchCollection([[0.1, 0.5, 0.9, 0.3], [0.5, 0.6, 0.7, 0.8]], (0, 1))
    assert raw_batch_probs(coll, union((0.0, 0.4))).tolist() == [0.5, 0.0]
    assert raw_batch_probs(coll, union()).tolist() == [0.0, 0.0]


def test_empirical_prob_discretized():
    coll = rb.DiscretizedCollection([[2, 0, 2], [1, 2, 1]], (0, 1), 4)
    assert per_batch_probs(coll, rb.BinSubset.of(1, 3)).tolist() == [1.0, 0.5]
    assert per_batch_probs(coll, rb.BinSubset.of(2)).tolist() == [0.0, 0.5]


def test_empirical_prob_mismatched_representation():
    raw = rb.BatchCollection([[0.1, 0.2]], (0,))
    disc = rb.DiscretizedCollection([[1, 1]], (0,), 2)
    with pytest.raises(rb.UsageError, match="^unsupported collection type BatchCollection$"):
        per_batch_probs(raw, rb.BinSubset.of(1))
    with pytest.raises(rb.UsageError):
        per_batch_probs(disc, union((0.0, 1.0)))
    with pytest.raises(rb.UsageError):
        per_batch_probs(disc, rb.BinSubset.of(3))


def test_empirical_prob_monotone_and_additive():
    rng = np.random.default_rng(5)
    coll = rb.BatchCollection(rng.random((4, 50)), range(4))
    small = union((0.2, 0.4))
    big = union((0.2, 0.6))
    disjoint = union((0.6, 0.8))
    assert (raw_batch_probs(coll, small) <= raw_batch_probs(coll, big)).all()
    both = union((0.2, 0.6), (0.6000000001, 0.8))
    got = raw_batch_probs(coll, big) + raw_batch_probs(coll, disjoint)
    np.testing.assert_allclose(raw_batch_probs(coll, both), got, rtol=0, atol=1e-12)


def test_pooled_empirical_discretized():
    # the pooled measure of a sub-collection is the mean of its batches' measures
    coll = rb.DiscretizedCollection(np.array([[1, 1], [2, 0]]), (0, 1), 2)
    np.testing.assert_allclose(coll.pooled(), [0.75, 0.25])
    np.testing.assert_allclose(coll.subset([True, False]).pooled(), [0.5, 0.5])
    np.testing.assert_allclose(coll.subset([False, True]).pooled(), [1.0, 0.0])


def test_pooled_empirical_matches_grand_count():
    rng = np.random.default_rng(1)
    coll = rb.BatchCollection(rng.random((7, 20)), range(7))
    region = union((0.25, 0.75))
    pooled = coll.pooled_samples()
    direct = np.count_nonzero(region.contains(pooled)) / pooled.size
    assert pooled.size == 20 * 7
    assert np.mean(raw_batch_probs(coll, region)) == pytest.approx(direct, abs=1e-15)


def test_pooled_empirical_empty():
    # an empty sub-collection has no pooled measure: neither type can be built empty
    with pytest.raises(rb.UsageError):
        rb.BatchCollection(np.zeros((0, 2)), ())
    with pytest.raises(rb.UsageError):
        rb.DiscretizedCollection(np.zeros((0, 2), dtype=np.int64), (), 2)


def test_binomial_variance():
    assert binomial_variance(0.5, 100) == 0.0025
    assert binomial_variance(0.0, 10) == 0.0
    with pytest.raises(rb.DomainError):
        binomial_variance(1.5, 10)
    rng = np.random.default_rng(0)
    for r in rng.random(200):
        n = int(rng.integers(1, 1000))
        assert binomial_variance(r, n) <= 1.0 / (4 * n) + 1e-15


def test_variance_lipschitz_property():
    rng = np.random.default_rng(3)
    n = 50
    for r, s in rng.random((200, 2)):
        lhs = abs(binomial_variance(r, n) - binomial_variance(s, n))
        assert lhs <= abs(r - s) / n + 1e-15


def test_batch_rejects_nonfinite():
    with pytest.raises(rb.UsageError):
        rb.BatchCollection([[1.0, 2.0], [1.0, np.nan]], (0, 1))
    with pytest.raises(rb.UsageError):
        rb.BatchCollection([[np.inf]], (0,))


def test_collection_invariants():
    row = [1.0, 2.0]
    with pytest.raises(rb.UsageError):
        rb.BatchCollection([row, [1.0]], (0, 1))  # ragged rows
    with pytest.raises(rb.UsageError):
        rb.BatchCollection([row], (0,), truth=("good", "adversarial"))
    with pytest.raises(rb.UsageError):
        rb.BatchCollection([row], (0,), truth=("fine",))
    with pytest.raises(rb.UsageError):
        rb.BatchCollection([row, row], (0, 0))
    with pytest.raises(rb.UsageError):
        rb.BatchCollection([row, row], (0,))
    with pytest.raises(rb.UsageError):
        rb.BatchCollection([row], (0.5,))
    coll = rb.BatchCollection(np.array([row, row]), range(2))
    assert coll.ids == (0, 1) and (coll.m, coll.n) == (2, 2)
    assert not coll.samples.flags.writeable


def test_discretized_counts_are_checked_in_their_own_dtype():
    for counts, n, match in [
        ([[1.5, 1.5]], 2, "integers"),  # a cast to int64 would truncate it to [[1, 1]]
        ([[1.0, 1.0]], 2, "integers"),
        ([[2**70, 0]], 2, "integers"),  # above int64, once an OverflowError
        ([[2**63, 2**63]], 1, "sum to n"),  # would wrap to 0 in an unsigned sum
        ([[3, -1]], 2, "nonnegative"),
        ([[1, 1]], 2.0, "positive integer"),
        ([[1, 1]], -2, "positive integer"),
        ([[0, 0]], 0, "positive integer"),
    ]:
        with pytest.raises(rb.UsageError, match=match):
            rb.DiscretizedCollection(counts, (0,), n)
    src = np.array([[1, 1], [2, 0]], dtype=np.int64)
    coll = rb.DiscretizedCollection(src, (0, 1), 2)
    assert coll.counts.dtype == np.uint8 and coll.counts.tolist() == src.tolist()
    assert not coll.counts.flags.writeable and src.flags.writeable
    narrow = np.array([[1, 1]], dtype=np.uint8)
    assert not np.shares_memory(rb.DiscretizedCollection(narrow, (0,), 2).counts, narrow)


def test_discretized_collection_subset():
    coll = rb.DiscretizedCollection(
        np.array([[1, 1], [2, 0], [0, 2]]), (10, 11, 12), 2, ("good", "adversarial", "good")
    )
    sub = coll.subset(np.isin(coll.ids, [10, 12]))
    assert sub.ids == (10, 12)
    assert sub.truth == ("good", "good")
    assert sub.counts.tolist() == [[1, 1], [0, 2]]
    with pytest.raises(rb.UsageError):
        coll.subset(np.zeros(3, dtype=bool))
    with pytest.raises(rb.UsageError):  # ids are not a mask
        coll.subset([10, 12])


def test_subset_copies_each_row_once():
    rng = np.random.default_rng(3)
    m, n = 2000, 100
    coll = rb.LabeledCollection(rng.random((m, n)), rng.integers(0, 2, (m, n)), range(m))
    keep = np.ones(m, dtype=bool)
    keep[7] = False
    tracemalloc.start()
    sub = coll.subset(keep)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rows = sub.x.nbytes + sub.y.nbytes
    assert peak <= 1.25 * rows  # one masked copy (and the ids), not a second in row_array
    assert sub.ids == tuple(i for i in range(m) if i != 7) and sub.y.dtype == np.uint8
    for name in ("x", "y"):
        kept = getattr(sub, name)
        assert not kept.flags.writeable and not np.shares_memory(kept, getattr(coll, name))
        assert np.array_equal(kept, getattr(coll, name)[keep])


def test_labels_are_stored_in_one_byte():
    x = [[0.0, 1.0]]
    for y in ([[1, 0]], [[True, False]], [[1.0, 0.0]], np.array([[1, 0]], np.int64)):
        coll = rb.LabeledCollection(x, y, (0,))
        assert coll.y.dtype == np.uint8 and coll.y.tolist() == [[1, 0]]
    for bad in ([[1, 2]], [[1.5, 0]], [[-1, 0]], [[256, 0]], [[np.nan, 0]], [["1", "0"]]):
        with pytest.raises(rb.UsageError, match="labels must be 0 or 1"):
            rb.LabeledCollection(x, bad, (0,))


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


def test_retention_good_counts_the_good_batches_kept():
    truth = ("good", "adversarial", "good", "good")
    coll = rb.BatchCollection(np.zeros((4, 2)), (10, 11, 12, 13), truth)
    assert coll.retention_good([10, 11, 13]) == 2 / 3
    assert coll.retention_good([]) == 0.0
    assert rb.BatchCollection(np.zeros((4, 2)), (10, 11, 12, 13)).retention_good([10]) is None
    bad_only = rb.BatchCollection(np.zeros((1, 2)), (0,), ("adversarial",))
    assert bad_only.retention_good([0]) is None


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: rb.BatchCollection(np.zeros(3), (0, 1, 2)), rb.UsageError,
         r"samples must be a 2-d array with one row per batch, not \(3,\)"),
        (lambda: rb.BatchCollection(np.zeros((1, 0)), (0,)), rb.UsageError,
         r"samples must be a 2-d array with one row per batch, not \(1, 0\)"),
        (lambda: rb.LabeledCollection([[np.nan, 0.0]], [[0, 1]], (0,)), rb.UsageError,
         "x contains NaN or infinity"),
        (lambda: rb.LabeledCollection([[-np.inf, 0.0]], [[0, 1]], (0,)), rb.UsageError,
         "x contains NaN or infinity"),
        (lambda: rb.CorruptionParams(0.2, 0, 5), rb.DomainError, "n and m must be positive"),
        (lambda: rb.CorruptionParams(0.2, 5, 0), rb.DomainError, "n and m must be positive"),
        (lambda: per_batch_probs(rb.LabeledCollection([[0.0]], [[1]], (0,)), union((0.0, 1.0))),
         rb.UsageError, "unsupported collection type LabeledCollection"),
    ],
)
def test_core_refusals_name_their_rule(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_check_labeled_checks_x_before_the_labels():
    with pytest.raises(rb.UsageError, match="x contains NaN or infinity"):
        check_labeled(np.array([np.nan]), np.array([2]))
    with pytest.raises(rb.UsageError, match="labels must be 0 or 1"):
        check_labeled(np.array([0.0]), np.array([None]))  # an object array
