import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robust_batches as rb
from oracles import binomial_variance, check_properties, corruption_batch


def collection_from_probs(probs, n, truth=None):
    counts = np.round(np.asarray(probs) * n).astype(np.int64)
    counts = np.column_stack([counts, n - counts])
    return rb.DiscretizedCollection(counts, tuple(range(len(probs))), n, truth)


BIN1 = rb.BinSubset.of(1)


def test_median_prob():
    coll = collection_from_probs([0.1, 0.5, 0.9], 10)
    assert rb.median_prob(coll, BIN1) == 0.5
    even = collection_from_probs([0.2, 0.4, 0.6, 0.8], 10)
    assert rb.median_prob(even, BIN1) == 0.5
    same = collection_from_probs([0.3, 0.3, 0.3], 10)
    assert rb.median_prob(same, BIN1) == pytest.approx(0.3)


def test_corruption_batch_examples():
    params = rb.CorruptionParams(0.1, 10000, 500)
    batch = [5000, 5000]
    assert corruption_batch(batch, BIN1, 0.5, params) == 0.0
    shifted = [6000, 4000]
    assert corruption_batch(shifted, BIN1, 0.5, params) == pytest.approx(0.01)
    # a deviation of exactly tau still scores zero
    n = 10000
    dev_counts = int(round(params.tau * n))
    at_tau = [dev_counts, n - dev_counts]
    med = 0.0
    assert dev_counts / n <= params.tau
    assert corruption_batch(at_tau, BIN1, med, params) == 0.0
    with pytest.raises(rb.UsageError):
        corruption_batch(batch, BIN1, 1.5, params)
    with pytest.raises(rb.UsageError):
        corruption_batch(batch, rb.BinSubset.of(3), 0.5, params)


def test_corruption_batch_continuous_outside_ball():
    params = rb.CorruptionParams(0.2, 100, 10)
    batch = [80, 20]
    score = corruption_batch(batch, BIN1, 0.0, params)
    assert score == pytest.approx(0.64)
    assert score >= 0.0


def test_corruption_collection_total():
    n = 10000
    params = rb.CorruptionParams(0.1, n, 4)
    coll = collection_from_probs([0.5, 0.5, 0.5, 0.7], n)
    report = rb.corruption_collection(coll, BIN1, params)
    assert report.median == pytest.approx(0.5)
    assert report.total == pytest.approx(sum(report.per_batch_scores.values()))
    assert report.per_batch_scores[3] == pytest.approx(0.04, abs=1e-9)
    assert all(v >= 0 for v in report.per_batch_scores.values())
    d = report.to_dict()
    assert d["total"] == report.total and d["subset"] == [1]


def test_batch_deletion_no_op_when_clean():
    n = 10000
    params = rb.CorruptionParams(0.1, n, 6)
    coll = collection_from_probs([0.5] * 6, n)
    rng = np.random.default_rng(0)
    out = rb.batch_deletion(coll, BIN1, 0.5, params, rng)
    assert out.ids == coll.ids


def test_batch_deletion_removes_single_hot_batch():
    n = 10000
    m = 40
    params = rb.CorruptionParams(0.1, n, m)
    probs = [0.5] * (m - 1) + [0.95]
    coll = collection_from_probs(probs, n)
    # score of the hot batch is (0.45)^2 = 0.2025 >= 20 kappa_g
    assert 0.2025 >= 20 * params.kappa_g
    out = rb.batch_deletion(coll, BIN1, 0.5, params, np.random.default_rng(1))
    assert out.m == m - 1
    assert m - 1 not in out.ids


def test_batch_deletion_seed_determinism():
    n = 1000
    m = 30
    params = rb.CorruptionParams(0.2, n, m)
    rng_probs = np.random.default_rng(3)
    probs = np.clip(0.5 + 0.45 * rng_probs.standard_normal(m), 0.0, 1.0)
    coll = collection_from_probs(probs, n)
    med = rb.median_prob(coll, BIN1)
    a = rb.batch_deletion(coll, BIN1, med, params, np.random.Generator(np.random.PCG64(7)))
    b = rb.batch_deletion(coll, BIN1, med, params, np.random.Generator(np.random.PCG64(7)))
    c = rb.batch_deletion(coll, BIN1, med, params, np.random.Generator(np.random.PCG64(8)))
    assert a.ids == b.ids
    np.testing.assert_array_equal(a.counts, b.counts)
    # a different seed still stops below the same threshold
    after_c = sum(corruption_batch(c.counts[i], BIN1, med, params) for i in range(c.m))
    assert after_c < 20 * params.kappa_g


def test_batch_deletion_total_never_increases():
    n = 1000
    m = 25
    params = rb.CorruptionParams(0.3, n, m)
    rng = np.random.default_rng(5)
    probs = np.clip(0.5 + 0.4 * rng.standard_normal(m), 0.0, 1.0)
    coll = collection_from_probs(probs, n)
    med = rb.median_prob(coll, BIN1)
    before = rb.corruption_collection(coll, BIN1, params).total
    out = rb.batch_deletion(coll, BIN1, med, params, np.random.default_rng(0))
    # med recomputed on the survivors may shift; score with the frozen med
    after = sum(
        corruption_batch(out.counts[i], BIN1, med, params) for i in range(out.m)
    )
    assert after <= before
    assert after < 20 * params.kappa_g


def test_batch_deletion_samples_in_proportion_to_score():
    # one deletion per run: each batch goes with probability score / total
    n = 1000
    probs = [0.0, 0.1, 0.3, 0.5, 0.6, 0.8]  # the first two sit inside tau
    params = rb.CorruptionParams(0.1, n, len(probs))
    coll = collection_from_probs(probs, n)
    scores = np.array([corruption_batch(row, BIN1, 0.0, params) for row in coll.counts])
    assert scores[:2].tolist() == [0.0, 0.0] and (scores[2:] > 0).all()
    total = scores.sum()
    # stop anywhere in (total - smallest positive score, total]
    stop = (total - 0.5 * scores[2]) / params.kappa_g
    runs = 4000
    deleted = np.zeros(coll.m)
    for seed in range(runs):
        out = rb.batch_deletion(coll, BIN1, 0.0, params, np.random.default_rng(seed), stop)
        assert out.m == coll.m - 1
        deleted += ~np.isin(coll.ids, out.ids)
    share = scores / total
    sd = np.sqrt(runs * share * (1.0 - share))
    assert deleted[:2].tolist() == [0, 0]
    assert (np.abs(deleted - runs * share) <= 5.0 * sd).all()


def test_batch_deletion_samples_two_without_replacement():
    # two deletions per run: the pair {i, j} goes with probability
    # s_i/S * s_j/(S - s_i) + s_j/S * s_i/(S - s_j)
    n = 1000
    probs = [0.0, 0.5, 0.55, 0.6, 0.65]  # the first sits inside tau
    params = rb.CorruptionParams(0.1, n, len(probs))
    coll = collection_from_probs(probs, n)
    s = np.array([corruption_batch(row, BIN1, 0.0, params) for row in coll.counts])
    assert s[0] == 0.0 and (s[1:] > 0).all()
    pos = np.sort(s[1:])
    assert pos[-1] < pos[0] + pos[1]
    total = s.sum()
    # any two survivors sum below, any three above
    stop = 0.5 * (pos[-1] + pos[-2] + total - pos[-1]) / params.kappa_g
    runs = 4000
    pairs = {}
    for seed in range(runs):
        out = rb.batch_deletion(coll, BIN1, 0.0, params, np.random.default_rng(seed), stop)
        gone = tuple(i for i in coll.ids if i not in out.ids)
        assert len(gone) == 2 and 0 not in gone
        pairs[gone] = pairs.get(gone, 0) + 1
    for i in range(1, 5):
        for j in range(i + 1, 5):
            p = s[i] / total * s[j] / (total - s[i]) + s[j] / total * s[i] / (total - s[j])
            sd = np.sqrt(runs * p * (1.0 - p))
            assert abs(pairs.get((i, j), 0) - runs * p) <= 5.0 * sd


@st.composite
def deletion_inputs(draw):
    """Random bin counts, a bin subset, a frozen median and a stop factor,
    median and stop factor also outside their valid ranges."""
    m = draw(st.integers(1, 25))
    n = draw(st.integers(50, 5000))
    ell = draw(st.integers(1, 5))
    cuts = draw(st.lists(
        st.lists(st.integers(0, n), min_size=ell - 1, max_size=ell - 1), min_size=m, max_size=m
    ))
    counts = np.diff([[0, *sorted(row), n] for row in cuts], axis=1)
    coll = rb.DiscretizedCollection(counts, tuple(range(m)), n)
    subset = rb.BinSubset(draw(st.frozensets(st.integers(1, ell))))
    params = rb.CorruptionParams(draw(st.floats(0.01, 0.4)), n, m)
    med = draw(st.floats(-0.25, 1.25))
    stop = draw(st.floats(-1.0, 30.0))
    return coll, subset, params, med, stop, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(deletion_inputs())
def test_batch_deletion_invariants_property(inputs):
    coll, subset, params, med, stop, seed = inputs
    try:
        out = rb.batch_deletion(coll, subset, med, params, np.random.default_rng(seed), stop)
    except rb.UsageError:
        return
    kept = set(out.ids)
    assert list(out.ids) == [i for i in coll.ids if i in kept]
    score = {
        i: corruption_batch(row, subset, med, params) for i, row in zip(coll.ids, coll.counts)
    }
    assert all(score[i] > 0.0 for i in coll.ids if i not in kept)
    before = sum(score[i] for i in coll.ids)
    after = sum(corruption_batch(out.counts[i], subset, med, params) for i in range(out.m))
    assert after <= before
    assert after < stop * params.kappa_g


def test_removing_batches_reduces_corruption_for_any_subset():
    n = 500
    params = rb.CorruptionParams(0.2, n, 12)
    rng = np.random.default_rng(9)
    counts = rng.multinomial(n, [0.25] * 4, size=12)
    coll = rb.DiscretizedCollection(counts, tuple(range(12)), n)
    med = rb.median_prob(coll, rb.BinSubset.of(2, 3))
    full = sum(
        corruption_batch(coll.counts[i], rb.BinSubset.of(2, 3), med, params)
        for i in range(coll.m)
    )
    sub = coll.subset(np.arange(12) < 6)
    reduced = sum(
        corruption_batch(sub.counts[i], rb.BinSubset.of(2, 3), med, params)
        for i in range(sub.m)
    )
    assert reduced <= full


def test_check_properties_requires_good_only():
    coll = collection_from_probs([0.5, 0.6], 100, truth=("good", "adversarial"))
    params = rb.CorruptionParams(0.2, 100, 2)
    with pytest.raises(rb.UsageError):
        check_properties(coll, np.array([0.5, 0.5]), [BIN1], params)
    untagged = collection_from_probs([0.5, 0.6], 100)
    with pytest.raises(rb.UsageError):
        check_properties(untagged, np.array([0.5, 0.5]), [BIN1], params)


def test_check_properties_self_consistent_collection():
    n = 100000
    m = 6
    coll = collection_from_probs([0.5] * m, n, truth=("good",) * m)
    params = rb.CorruptionParams(0.1, n, m)
    report = check_properties(coll, np.array([0.5, 0.5]), [BIN1], params)
    assert report.all_ok
    assert report.max_corruption == 0.0
    assert report.median_error == 0.0 and report.mean_error == 0.0
    assert report.msd_error == pytest.approx(binomial_variance(0.5, n), abs=1e-9)


def test_check_properties_one_failing_subset_decides():
    # every batch holds (0.5, 0.3, 0.2) against a target of (0.5, 0.25, 0.25):
    # {1} and {1, 2, 3} pass, {2} is off by 0.05
    n, m = 100000, 6
    coll = rb.DiscretizedCollection(
        np.tile([50000, 30000, 20000], (m, 1)), range(m), n, ("good",) * m
    )
    params = rb.CorruptionParams(0.1, n, m)
    target = np.array([0.5, 0.25, 0.25])
    passing = [BIN1, rb.BinSubset.of(1, 2, 3)]
    assert check_properties(coll, target, passing, params).all_ok
    report = check_properties(coll, target, [*passing, rb.BinSubset.of(2)], params)
    assert not report.all_ok
    assert report.median_error == pytest.approx(0.05) and report.median_bound < 0.05
    assert report.mean_error == pytest.approx(0.05) and report.mean_bound < 0.05
    assert report.max_corruption == 0.0
