import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robust_batches as rb
from robust_batches import partition
from robust_batches.clean import ELL_BETA_FLOOR, clean_pipeline
from robust_batches.core import LABELS, per_batch_probs
from oracles import lift_subset, raw_batch_probs


def test_choose_ell_examples():
    assert rb.choose_ell(2, 100, 0.4, m=10) == 100
    assert rb.choose_ell(1, 1, 0.4, m=10) == 5
    assert rb.choose_ell(3, 50, 0.1, m=10) == 425
    assert rb.choose_ell(2, 100, 0.4, m=1) == 100  # clamp to s = n*m
    assert rb.choose_ell(2, 4, 0.1, m=3) == 12
    assert rb.choose_ell(2, 100, 5e-324, m=300) == 30000  # 2k*sqrt(n)/beta overflows
    with pytest.raises(rb.DomainError):
        rb.choose_ell(2, 100, 0.0, m=10)


def test_build_partition_basic():
    part = rb.build_partition(np.arange(1.0, 13.0), 3)
    assert part.boundaries == (4.0, 8.0)
    assert part.ell == 3


def test_build_partition_single_cell():
    part = rb.build_partition(np.arange(5.0), 1)
    assert part.boundaries == ()
    assert part.ell == 1
    assert part.source_token == hashlib.sha256(np.arange(5.0)).hexdigest()[:16]


def test_build_partition_tied_values_collapse():
    part = rb.build_partition(np.array([1.0, 1, 1, 1, 2, 2, 2, 2]), 2)
    assert part.boundaries == (1.0,)
    occ = np.bincount(part.bin_of([1.0, 1, 1, 1, 2, 2, 2, 2]), minlength=part.ell)
    assert occ.tolist() == [4, 4]
    # heavier ties can push a cell past Delta; the collapse keeps bins valid
    tied = np.array([1.0] * 6 + [2.0, 3.0])
    part2 = rb.build_partition(tied, 4)
    assert len(part2.boundaries) < 4
    assert np.bincount(part2.bin_of(tied), minlength=part2.ell).max() > 2


def test_build_partition_occupancy_bound():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = int(rng.integers(20, 400))
        ell = int(rng.integers(1, s + 1))
        xs = np.sort(rng.standard_normal(s))
        part = rb.build_partition(xs, ell)
        delta = -(-s // ell)
        assert np.bincount(part.bin_of(xs), minlength=part.ell).max() <= delta


def test_build_partition_requires_enough_samples():
    with pytest.raises(rb.UsageError):
        rb.build_partition(np.arange(3.0), 5)
    with pytest.raises(rb.UsageError):
        rb.build_partition(np.array([2.0, 1.0]), 2)
    with pytest.raises(rb.UsageError, match="sorted"):  # every comparison with NaN is false
        rb.build_partition(np.array([1.0, np.nan, 0.0, 2.0]), 4)


def _cut_loop(x, ell):
    """build_partition's boundaries by a loop over the cut positions that
    keeps each value above the last one kept."""
    delta = -(-x.size // ell)
    boundaries: list[float] = []
    for pos in (min(j * delta, x.size) for j in range(1, ell)):
        if not boundaries or float(x[pos - 1]) > boundaries[-1]:
            boundaries.append(float(x[pos - 1]))
    return boundaries


def test_build_partition_equals_the_cut_loop_bitwise():
    """Cut values masked to the first of each equal run give the loop's
    boundaries bit for bit, -0.0 included, and the same source token."""
    rng = np.random.default_rng(31)
    for i in range(600):
        s = int(rng.integers(1, 300))
        x = rng.standard_normal(s)
        if i % 2:
            x = np.round(x, int(rng.integers(0, 2)))  # ties, and -0.0 from rounding
        x[rng.random(s) < 0.2 * (i % 3)] = -0.0
        x[rng.random(s) < 0.1 * (i % 3)] = 0.0
        x.sort(kind="stable")
        ell = int(rng.integers(1, s + 1))
        part = rb.build_partition(x, ell)
        want = np.array(_cut_loop(x, ell))
        assert np.array_equal(np.array(part.boundaries).view(np.int64), want.view(np.int64))
        assert part.source_token == hashlib.sha256(x).hexdigest()[:16]


@st.composite
def tied_collections(draw):
    """Batches over at most three distinct values (often one), plus a
    requested ell up to the sample count, so cuts land inside tie runs."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, 12))
    values = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=1, max_size=3))
    rows = [
        draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)) for _ in range(m)
    ]
    coll = rb.BatchCollection(rows, range(m))
    return coll, draw(st.integers(1, n * m))


@settings(max_examples=200, deadline=None)
@given(tied_collections())
def test_partition_and_discretize_under_heavy_ties(case):
    coll, ell = case
    pooled = coll.pooled_samples()
    part, disc = rb.discretize(coll, ell)
    assert part == rb.build_partition(pooled, ell)
    assert all(a < b for a, b in zip(part.boundaries, part.boundaries[1:]))
    assert part.ell <= ell
    assert (disc.counts.sum(axis=1) == coll.n).all()
    report = clean_pipeline(coll, 1, 0.0, np.random.default_rng(0)).report
    ref = rb.build_partition(pooled, rb.choose_ell(1, coll.n, ELL_BETA_FLOOR, coll.m))
    assert report.ell == ref.ell
    occupancy = np.bincount(ref.bin_of(pooled), minlength=ref.ell)
    assert report.max_cell_occupancy == occupancy.max()


def test_discretize_example():
    coll = rb.BatchCollection([[0.5, 4.5, 9.0]], (0,))
    part = rb.IntervalPartition((4.0, 8.0))
    disc = rb.DiscretizedCollection(part.counts(coll.samples), coll.ids, coll.n, coll.truth)
    assert disc.counts[0].tolist() == [1, 1, 1]


def test_discretize_all_first_cell():
    coll = rb.BatchCollection([[0.0, 1.0, 2.0]], (0,))
    part = rb.IntervalPartition((4.0, 8.0))
    disc = rb.DiscretizedCollection(part.counts(coll.samples), coll.ids, coll.n, coll.truth)
    assert disc.counts[0].tolist() == [3, 0, 0]


def test_discretize_boundary_is_right_closed():
    coll = rb.BatchCollection([[4.0, 4.0000001]], (0,))
    part = rb.IntervalPartition((4.0,))
    disc = rb.DiscretizedCollection(part.counts(coll.samples), coll.ids, coll.n, coll.truth)
    assert disc.counts[0].tolist() == [1, 1]


def test_discretize_roundtrip_against_raw_counting():
    rng = np.random.default_rng(11)
    coll = rb.BatchCollection(rng.standard_normal((5, 30)), range(5))
    part, disc = rb.discretize(coll, 12)
    for _ in range(100):
        members = frozenset(int(j) + 1 for j in np.nonzero(rng.random(part.ell) < 0.4)[0])
        subset = rb.BinSubset(members)
        region = lift_subset(subset, part)
        assert np.array_equal(raw_batch_probs(coll, region), per_batch_probs(disc, subset))


def test_discretize_preserves_totals_and_pooled_masses():
    rng = np.random.default_rng(2)
    coll = rb.BatchCollection(rng.random((6, 25)), range(6))
    disc = rb.discretize(coll, 10)[1]
    assert (disc.counts.sum(axis=1) == 25).all()
    assert disc.pooled().sum() == pytest.approx(1.0, abs=1e-12)


def _per_batch_counts(part, x, keep):
    """Reference for IntervalPartition.counts: one bincount per batch."""
    return np.stack([
        np.bincount(part.bin_of(row[sel]), minlength=part.ell) for row, sel in zip(x, keep)
    ])


def test_counts_match_per_batch_bincount_at_block_edges():
    rng = np.random.default_rng(4)
    n = 7
    # blocks of 65, 3, 1 and 1 rows; the last partition has more than 2^16 cells
    for ell in (1000, 20000, partition._COUNT_BLOCK - 1, partition._COUNT_BLOCK + 5):
        part = rb.IntervalPartition(tuple(np.linspace(-2.0, 2.0, ell - 1)))
        step = max(1, partition._COUNT_BLOCK // ell)
        for m in (1, step, step + 1, 2 * step + 1):
            x = rng.standard_normal((m, n))
            keep = rng.random((m, n)) < 0.6
            keep[m // 2] = False  # a row with no values
            counts = part.counts(x, keep)
            assert counts.dtype == np.uint8 and counts.shape == (m, ell)
            assert np.array_equal(counts, _per_batch_counts(part, x, keep))
            assert counts[m // 2].sum() == 0
            assert np.array_equal(part.counts(x), _per_batch_counts(part, x, np.ones_like(keep)))


@pytest.mark.parametrize("n", [1, 255, 256, 65535, 65536])
def test_counts_hold_a_full_cell_in_the_narrow_dtype(n):
    rng = np.random.default_rng(n)
    samples = rng.random((3, n))
    samples[1] = 0.5  # one batch puts all n values in one cell
    coll = rb.BatchCollection(samples, range(3))
    part = rb.IntervalPartition((0.25, 0.75))
    disc = rb.DiscretizedCollection(part.counts(coll.samples), coll.ids, coll.n, coll.truth)
    assert disc.counts.dtype == np.min_scalar_type(n) == part.counts(samples).dtype
    assert disc.counts[1].tolist() == [0, n, 0]
    assert np.array_equal(disc.counts, _per_batch_counts(part, samples, np.ones((3, n), bool)))
    assert disc.pooled().sum() == pytest.approx(1.0, abs=1e-12)
    wide = rb.DiscretizedCollection(disc.counts.astype(np.int64), range(3), n)
    assert wide.counts.dtype == disc.counts.dtype and np.array_equal(wide.counts, disc.counts)


def test_lift_subset_examples():
    part = rb.IntervalPartition((4.0, 8.0))
    merged = lift_subset(rb.BinSubset.of(1, 2), part)
    assert len(merged.intervals) == 1
    assert merged.intervals[0].hi == 8.0 and np.isinf(merged.intervals[0].lo)
    assert lift_subset(rb.BinSubset(frozenset()), part).intervals == ()
    split = lift_subset(rb.BinSubset.of(1, 3), part)
    assert [(iv.lo, iv.hi) for iv in split.intervals] == [(-np.inf, 4.0), (8.0, np.inf)]


def test_lift_subset_run_count():
    rng = np.random.default_rng(9)
    part = rb.IntervalPartition(tuple(np.arange(1.0, 16.0)))
    for _ in range(50):
        members = frozenset(int(j) + 1 for j in np.nonzero(rng.random(part.ell) < 0.5)[0])
        if not members:
            continue
        lifted = lift_subset(rb.BinSubset(members), part)
        assert len(lifted.intervals) <= len(members)
        assert len(lifted.intervals) <= min(len(members), part.ell - len(members) + 1)
        assert len(lifted.intervals) == len(rb.BinSubset(members).runs())


def test_partition_serialization_roundtrip():
    part = rb.build_partition(np.arange(1.0, 13.0), 3)
    clone = rb.IntervalPartition.from_dict(part.to_dict())
    assert clone == part
    with pytest.raises(rb.UsageError):
        rb.IntervalPartition.from_dict({"ell": 7, "boundaries": [1.0, 2.0]})


def test_partition_rejects_bad_boundaries():
    with pytest.raises(rb.UsageError):
        rb.IntervalPartition((2.0, 1.0))
    with pytest.raises(rb.UsageError):
        rb.IntervalPartition((np.nan,))


def _per_batch_label_counts(coll, label, part):
    """Reference for one label slice's table: one bincount per batch."""
    return np.stack([
        np.bincount(part.bin_of(x[y == label]), minlength=part.ell)
        for x, y in zip(coll.x, coll.y)
    ])


def _check_labeled_discretize(x, y, ell):
    """discretize of a labeled collection: per label slice, a partition of
    at most ell cells clamped to the slice (none for an empty slice), whose
    columns of the one table are that slice's per-batch counts."""
    coll = rb.LabeledCollection(x, y, range(len(x)))
    part, disc = rb.discretize(coll, ell)
    assert disc.counts.dtype == np.min_scalar_type(coll.n)
    assert disc.ell == part.ell and disc.ids == coll.ids
    assert part == partition.cut_partition(coll, ell)
    start = 0
    for label, sub in zip(LABELS, part.parts):
        in_slice = np.count_nonzero(coll.y == label, axis=1)
        if sub is None:  # a label no batch contains: no cells
            assert in_slice.sum() == 0
            continue
        assert sub.ell <= min(ell, in_slice.sum())
        table = disc.counts[:, start : start + sub.ell]
        assert table.sum(axis=1).tolist() == in_slice.tolist()
        assert np.array_equal(table, _per_batch_label_counts(coll, label, sub))
        start += sub.ell
    assert start == part.ell
    return part, disc


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 12), st.data())
def test_labeled_discretize_matches_per_batch_bincount(m, n, ell, data):
    # x from four values, so ties are heavy; a slice is often smaller than ell
    xs = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    ys = st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)
    x = np.array([data.draw(xs) for _ in range(m)], dtype=float) / 2
    _check_labeled_discretize(x, [data.draw(ys) for _ in range(m)], ell)


@pytest.mark.parametrize("n", [1, 255, 256, 65535, 65536])
def test_labeled_discretize_holds_a_full_cell(n):
    rng = np.random.default_rng(n)
    x, y = rng.random((3, n)), rng.integers(0, 2, (3, n))
    x[1], y[1] = 0.5, 1  # one batch puts all n values in one label-1 cell
    _, disc = _check_labeled_discretize(x, y, 4)
    assert disc.counts.dtype == np.min_scalar_type(n) and disc.counts[1].max() == n


def test_labeled_discretize_absent_label_and_short_slice():
    rng = np.random.default_rng(0)
    part, _ = _check_labeled_discretize(rng.random((3, 5)), np.zeros((3, 5), int), 4)
    assert part.parts[1] is None and part.ell == 4
    one1 = np.zeros((3, 5), int)
    one1[:, 4] = np.arange(3) % 2  # one label-1 value in the whole collection
    part, _ = _check_labeled_discretize(rng.random((3, 5)), one1, 10)
    assert part.parts[1].ell == 1


def test_labeled_partition_token_covers_both_slices():
    """The one token changes when either slice's values change, and when
    values move from one label to the other."""
    rng = np.random.default_rng(3)
    x, y = rng.random((4, 20)), rng.integers(0, 2, (4, 20))
    tokens = set()
    for xx, yy in ((x, y), (np.where(y == 0, x + 1, x), y), (np.where(y == 1, x + 1, x), y),
                   (x, 1 - y)):
        tokens.add(partition.cut_partition(rb.LabeledCollection(xx, yy, range(4)), 8).source_token)
    assert len(tokens) == 4
    unlabeled = partition.cut_partition(rb.BatchCollection(x, range(4)), 8).source_token
    assert unlabeled not in tokens


def _contains_with_one_mask_per_interval(union, x):
    """IntervalUnion.contains as written before the shared buffer: each
    interval's two comparisons ANDed into a fresh mask, ORed into the result."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=bool)
    for iv in union.intervals:
        inside = x >= iv.lo if iv.lo_closed else x > iv.lo
        inside &= x <= iv.hi if iv.hi_closed else x < iv.hi
        out |= inside
    return out


def test_contains_matches_one_mask_per_interval():
    """Open and closed ends, infinite ends, -0.0 and 0.0, degenerate and
    empty intervals, the empty union, and x of 0, 1 and 2 dimensions."""
    ends = [-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf]
    closed = [(True, True), (True, False), (False, True), (False, False)]
    singles = [
        rb.Interval(lo, hi, a, b) for lo in ends for hi in ends if lo <= hi for a, b in closed
    ]
    rng = np.random.default_rng(0)
    unions = [rb.IntervalUnion(()), *(rb.IntervalUnion((iv,)) for iv in singles)]
    while len(unions) < len(singles) + 400:
        picks = sorted(rng.choice(len(singles), size=int(rng.integers(2, 4)), replace=False))
        try:
            unions.append(rb.IntervalUnion(tuple(singles[i] for i in picks)))
        except rb.UsageError:
            continue
    # an empty (1, 1) between two intervals: x = 1, inside [0.5, 1], also
    # passes the lower end of the empty [1, 1) after it and must stay inside;
    # [1, 2] after it overlaps [0.5, 1] at x = 1 and is refused
    empty = rb.Interval(1.0, 1.0, False, False)
    unions.append(rb.IntervalUnion((rb.Interval(0.5, 1.0), empty, rb.Interval(1.0, 1.0, True, False))))
    with pytest.raises(rb.UsageError, match="sorted and disjoint"):
        rb.IntervalUnion((rb.Interval(0.5, 1.0), empty, rb.Interval(1.0, 2.0)))
    x = np.array([*ends, -2.0, -0.5, 0.25, 0.75, 2.0, np.nan, 5e-324, -5e-324])
    for union in unions:
        expected = _contains_with_one_mask_per_interval(union, x)
        assert np.array_equal(union.contains(x), expected)
        grid = x[:15].reshape(3, 5)
        got = union.contains(grid)
        assert got.shape == (3, 5) and np.array_equal(got, expected[:15].reshape(3, 5))
        for value, want in zip(x, expected):
            got = union.contains(value)
            assert got.shape == () and got.dtype == bool and bool(got) == want
    assert np.array_equal(rb.IntervalUnion(()).contains(x), np.zeros(x.size, dtype=bool))


def test_contains_holds_two_boolean_arrays_of_x():
    x = np.random.default_rng(1).uniform(-1.0, 3.0, 1 << 20)
    union = rb.IntervalUnion(
        (rb.Interval(0.0, 0.5, False, True), rb.Interval(0.7, 1.2), rb.Interval(2.0, 2.5))
    )
    tracemalloc.start()
    try:
        union.contains(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.size + (64 << 10)  # one mask per interval held three


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: rb.Interval(np.nan, 1.0), rb.UsageError, "interval endpoints must not be NaN"),
        (lambda: rb.Interval(0.0, np.nan), rb.UsageError, "interval endpoints must not be NaN"),
        (lambda: rb.Interval(1.0, 0.0), rb.UsageError, r"empty interval \(1.0, 0.0\)"),
        (lambda: rb.BinSubset.of(0, 2), rb.UsageError, "bin indices are 1-based"),
        (lambda: rb.BinSubset.of(3).as_mask(2), rb.UsageError, "bin subset exceeds ell=2"),
        (lambda: rb.choose_ell(0, 100, 0.2, 10), rb.DomainError, "k must be at least 1"),
        (lambda: rb.choose_ell(1, 0, 0.2, 10), rb.DomainError, "n must be positive"),
        (lambda: rb.build_partition(np.zeros((2, 2)), 1), rb.UsageError, "samples must be 1-d"),
        (lambda: rb.build_partition(np.zeros(3), 0), rb.DomainError, "ell must be at least 1"),
        (lambda: lift_subset(rb.BinSubset.of(1, 3), rb.IntervalPartition((0.5,))),
         rb.UsageError, "bin subset exceeds ell=2"),
    ],
)
def test_partition_refusals_name_their_rule(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
