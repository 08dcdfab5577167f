import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robust_batches as rb
from robust_batches import classify
from robust_batches.classify import _count_dtype, _group_by_position
from robust_batches.partition import Interval, IntervalUnion
from robust_batches.simulate import ClassificationTarget, LabelFlipAttack
from oracles import iter_k_run_subsets


def hyp(*pairs):
    return rb.KIntervalHypothesis(IntervalUnion(tuple(Interval(a, b) for a, b in pairs)))


def hyp_from_groups(subset, xs):
    intervals = []
    for a, b in subset.runs():
        lo = -np.inf if a == 1 else 0.5 * (xs[a - 2] + xs[a - 1])
        hi = np.inf if b == len(xs) else 0.5 * (xs[b - 1] + xs[b])
        intervals.append(Interval(lo, hi))
    return rb.KIntervalHypothesis(IntervalUnion(tuple(intervals)))


def brute_force_erm(x, y, k):
    xs = np.unique(x)
    best = None
    for subset in iter_k_run_subsets(len(xs), k):
        loss = rb.risk(hyp_from_groups(subset, xs), x, y)
        if best is None or loss < best:
            best = loss
    return best


def test_risk_examples():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([1, 0, 1, 1])
    assert rb.risk(hyp((3.0, 4.0)), x, y) == 0.25
    perfect = hyp((0.9, 1.1), (2.9, 4.1))
    assert rb.risk(perfect, x, y) == 0.0
    complement = hyp((1.9, 2.1))
    assert rb.risk(complement, x, y) == 1.0


def test_risk_complement_identity():
    rng = np.random.default_rng(4)
    x = rng.random(30)
    y = rng.integers(0, 2, 30)
    region = hyp((0.2, 0.5), (0.7, 0.9))
    complement = hyp((-np.inf, 0.19999999), (0.50000001, 0.69999999), (0.90000001, np.inf))
    assert rb.risk(region, x, y) + rb.risk(complement, x, y) == pytest.approx(1.0)


def test_risk_equals_the_pairwise_sum_of_one_term_per_mistake():
    # risk sums a zero-stride view of 1/s; it must give the float that
    # summing one materialized 1/s per misclassified sample gives
    everywhere = hyp((-np.inf, np.inf))
    rng = np.random.default_rng(12)
    cases = [(wrong, 3000) for wrong in range(3000)]
    cases += [(wrong, 2 * 10**6) for wrong in (558_719, 2 * 10**6)]
    cases += [(int(wrong), 3 * 10**6) for wrong in rng.integers(0, 3 * 10**6, 12)]
    for wrong, size in cases:
        y = np.ones(size, dtype=np.uint8)
        y[:wrong] = 0
        expected = np.full(wrong, 1.0 / size).sum()
        assert rb.risk(everywhere, np.zeros(size), y) == expected, (wrong, size)


def test_erm_examples():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([1, 0, 1, 1])
    h1 = rb.erm_k_intervals(x, y, 1)
    assert rb.risk(h1, x, y) == 0.25
    h2 = rb.erm_k_intervals(x, y, 2)
    assert rb.risk(h2, x, y) == 0.0
    h0 = rb.erm_k_intervals(x, np.zeros(4, dtype=int), 1)
    assert h0.decision_region.intervals == ()
    assert rb.risk(h0, x, np.zeros(4, dtype=int)) == 0.0


@pytest.mark.parametrize(
    "pos, runs, region",
    [
        ([1.0, 2.0, 3.0, 4.0], [(1, 3)], [(1.5, 3.5)]),
        ([1.0, 2.0, 3.0, 4.0], [(0, 1), (2, 4)], [(-math.inf, 1.5), (2.5, math.inf)]),
        ([1.0, 2.0, 3.0], [], []),
        # the midpoint of adjacent floats rounds onto one of them: the inside one is the cut
        ([1.0, 1.0000000000000002], [(1, 2)], [(1.0000000000000002, math.inf)]),
        ([1.0, 1.0000000000000002], [(0, 1)], [(-math.inf, 1.0)]),
        ([1.0000000000000002, 1.0000000000000004], [(0, 1)], [(-math.inf, 1.0000000000000002)]),
        # the midpoint overflows to inf: the inside neighbour again
        ([1.7e308, 1.75e308], [(1, 2)], [(1.75e308, math.inf)]),
        ([-1.75e308, -1.7e308, 0.0], [(0, 1), (2, 3)], [(-math.inf, -1.75e308), (-8.5e307, math.inf)]),
    ],
)
def test_of_runs_cuts_between_neighbours_or_at_the_inside_one(pos, runs, region):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        h = rb.KIntervalHypothesis.of_runs(np.array(pos), runs)
    assert [(iv.lo, iv.hi) for iv in h.decision_region.intervals] == region
    inside = np.zeros(len(pos), dtype=bool)
    for start, end in runs:
        inside[start:end] = True
    assert h.decision_region.contains(np.array(pos)).tolist() == inside.tolist()


def test_erm_on_adjacent_floats_classifies_what_its_dp_counts():
    x = np.array([1.0, 1.0000000000000002] * 2)
    y = np.array([0, 1] * 2)
    h = rb.erm_k_intervals(x, y, 1)
    assert rb.risk(h, x, y) == 0.0
    assert [(iv.lo, iv.hi) for iv in h.decision_region.intervals] == [
        (1.0000000000000002, math.inf)
    ]


def test_erm_loss_non_increasing_in_k():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = int(rng.integers(3, 20))
        x = rng.random(s)
        y = rng.integers(0, 2, s)
        losses = [rb.risk(rb.erm_k_intervals(x, y, k), x, y) for k in range(1, 5)]
        assert all(a >= b - 1e-15 for a, b in zip(losses, losses[1:]))


def test_erm_matches_exhaustive_search():
    rng = np.random.default_rng(2)
    for _ in range(150):
        s = int(rng.integers(2, 13))
        k = int(rng.integers(1, 3))
        x = np.round(rng.random(s), 2)  # occasional ties
        y = rng.integers(0, 2, s)
        dp_loss = rb.risk(rb.erm_k_intervals(x, y, k), x, y)
        assert dp_loss == brute_force_erm(x, y, k)


def test_erm_repeated_points_count_with_multiplicity():
    x = np.repeat([0.0, 1.0, 2.0], [10, 1, 10])
    y = np.repeat([1, 0, 1], [10, 1, 10])
    h = rb.erm_k_intervals(x, y, 1)
    # covering everything misclassifies only the single middle point
    assert h.predict(np.array([0.0, 1.0, 2.0])).tolist() == [1, 1, 1]
    assert rb.risk(h, x, y) == pytest.approx(1.0 / 21.0)


def test_erm_handles_tied_positions():
    x = np.array([1.0, 1.0, 2.0])
    y = np.array([1, 0, 1])
    h = rb.erm_k_intervals(x, y, 2)
    # tied x values are classified together; best loss is 1/3
    assert rb.risk(h, x, y) == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize(
    "x, y, message",
    [
        ([1.0, 2.0, 3.0], [2, 2, 0], "labels must be 0 or 1"),  # once the empty region
        ([1.0, 2.0], [1, -1], "labels must be 0 or 1"),
        ([1.0, 2.0], [0.5, 1.0], "labels must be 0 or 1"),
        ([1.0, 2.0], [np.nan, 1.0], "labels must be 0 or 1"),
        ([1.0, 2.0], ["1", "0"], "labels must be 0 or 1"),
        ([], [], "nonempty"),  # once a ZeroDivisionError in risk
        ([1.0, 2.0], [1], "matching"),
        ([[1.0, 2.0]], [[1, 0]], "matching"),
        ([1.0, np.nan], [1, 0], "NaN or infinity"),
        ([1.0, np.inf], [1, 0], "NaN or infinity"),
    ],
)
def test_erm_and_risk_refuse_malformed_samples(x, y, message):
    with pytest.raises(rb.UsageError, match=message):
        rb.erm_k_intervals(x, y, 1)
    with pytest.raises(rb.UsageError, match=message):
        rb.risk(hyp((0.0, 1.0)), x, y)


def test_erm_checks_its_samples_before_k():
    """The samples are checked first; k < 1 is refused by the union layers."""
    with pytest.raises(rb.UsageError, match="labels must be 0 or 1"):
        rb.erm_k_intervals([1.0, 2.0], [2, 0], 0)
    for k in (0, -1):
        with pytest.raises(rb.DomainError, match="^k must be at least 1$"):
            rb.erm_k_intervals([1.0, 2.0], [1, 0], k)


def test_group_by_position_matches_unique_reference():
    rng = np.random.default_rng(8)
    for size in (1, 2, 50, 3000):
        x = rng.integers(-5, 6, size) * 0.5
        x[rng.random(size) < 0.2] = -0.0  # ties with 0.0
        y = rng.integers(0, 2, size).astype(np.uint8)
        pos, d = _group_by_position(x, y)
        order = np.argsort(x, kind="stable")
        ref_pos, start = np.unique(x[order], return_index=True)
        ys = y[order].astype(float)
        ref_d = np.add.reduceat(ys, start) - np.add.reduceat(1.0 - ys, start)
        assert np.array_equal(pos, ref_pos) and np.array_equal(np.signbit(pos), np.signbit(ref_pos))
        assert np.array_equal(d, ref_d)


def test_group_by_position_keeps_the_first_zero_bitwise():
    """Unstable sorts put either zero first; the group still takes the sign
    of its first sample in input order, as the stable-argsort grouping did."""
    rng = np.random.default_rng(27)
    for _ in range(200):
        size = int(rng.integers(2, 400))
        x = rng.integers(-3, 4, size) * 0.5
        x[rng.random(size) < 0.3] = -0.0
        y = rng.integers(0, 2, size)
        order = np.argsort(x, kind="stable")
        start = np.flatnonzero(np.concatenate(([True], np.diff(x[order]) != 0)))
        pos, d = _group_by_position(x, y)
        assert np.array_equal(pos.view(np.int64), x[order][start].view(np.int64))
        assert np.array_equal(d, np.add.reduceat(2.0 * y[order] - 1.0, start))


def test_counts_are_int32_below_two_to_the_31_samples(monkeypatch):
    """The rule at its boundary, and the int64 counts of 2^31 samples and
    more, run on small inputs, give the same regions."""
    assert _count_dtype(0) is np.int32 and _count_dtype(2**31 - 1) is np.int32
    assert _count_dtype(2**31) is np.int64 and _count_dtype(2**40) is np.int64
    rng = np.random.default_rng(31)
    cases = [(rng.integers(-6, 7, 300) * 0.5, rng.integers(0, 2, 300), k) for k in (1, 2, 5)]
    assert _group_by_position(*cases[0][:2])[1].dtype == np.int32
    want = [regions_of(rb.erm_k_intervals(x, y, k)) for x, y, k in cases]
    monkeypatch.setattr(classify, "_count_dtype", lambda size: np.int64)
    assert _group_by_position(*cases[0][:2])[1].dtype == np.int64
    got = [regions_of(rb.erm_k_intervals(x, y, k)) for x, y, k in cases]
    assert all(same_regions(a, b) for a, b in zip(got, want))


def test_erm_heap_at_desk_shape_is_under_three_times_x():
    """On the desk target's 10^5 pooled samples (all distinct) the heap holds
    the sorted copy of x and its distinct positions, int32 tallies and then
    the layer rows over the sign runs: about 2.5 times x.nbytes at k=2.
    int64 and float64 tables of one entry per position took 5.5 times."""
    target = rb.parse_target("labeled:0,0.5,1|0.5,0.5|0.8,0.2")
    attack = rb.parse_attack("label_flip:1.0@0,0.25")
    x, y = rb.build_collection(target, attack, 1000, 100, 0.2, 1).pooled()
    tracemalloc.start()
    try:
        rb.erm_k_intervals(x, y, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * x.nbytes


def loop_erm_regions(x, y, k):
    """Reference: the per-position dynamic program as a plain Python loop,
    with the same tie rules (stay out over close, continue over open, fewer
    intervals at the end).  Returns the decision region as (lo, hi) pairs."""
    pos, w0, w1 = np.unique(x), [], []
    for v in pos:
        w0.append(float(np.sum((x == v) & (y == 0))))
        w1.append(float(np.sum((x == v) & (y == 1))))
    g, inf = pos.size, math.inf
    out, ins = [0.0] + [inf] * k, [inf] * (k + 1)
    parents = []
    for gi in range(g):
        step = [[None, None] for _ in range(k + 1)]
        new_out, new_ins = [inf] * (k + 1), [inf] * (k + 1)
        for j in range(k + 1):
            step[j][0] = out[j] > ins[j]  # closed here
            new_out[j] = min(out[j], ins[j]) + w1[gi]
            opened = out[j - 1] if j >= 1 else inf
            step[j][1] = ins[j] > opened  # opened here
            new_ins[j] = min(ins[j], opened) + w0[gi]
        parents.append(step)
        out, ins = new_out, new_ins
    finals = [(c, j, st_) for j in range(k + 1) for st_, c in ((0, out[j]), (1, ins[j]))]
    _, j, state = min(finals, key=lambda f: f[0])
    inside = []
    for gi in range(g - 1, -1, -1):
        inside.append(state == 1)
        if parents[gi][j][state]:
            j, state = (j - 1, 0) if state == 1 else (j, 1)
    inside = inside[::-1]
    regions = []
    for gi in range(g):
        if inside[gi] and (gi == 0 or not inside[gi - 1]):
            start = gi
        if inside[gi] and (gi == g - 1 or not inside[gi + 1]):
            lo = -inf if start == 0 else 0.5 * (pos[start - 1] + pos[start])
            hi = inf if gi == g - 1 else 0.5 * (pos[gi] + pos[gi + 1])
            regions.append((lo, hi))
    return regions


def regions_of(h):
    return [(iv.lo, iv.hi) for iv in h.decision_region.intervals]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 1)), min_size=1, max_size=16),
    st.integers(1, 4),
)
def test_erm_exact_with_heavy_ties_property(samples, k):
    x = np.array([float(v) for v, _ in samples])
    y = np.array([c for _, c in samples])
    h = rb.erm_k_intervals(x, y, k)
    xs = np.unique(x)
    w0 = np.array([np.sum((x == v) & (y == 0)) for v in xs])
    w1 = np.array([np.sum((x == v) & (y == 1)) for v in xs])
    optimal = {}
    for subset in iter_k_run_subsets(xs.size, k):
        mask = subset.as_mask(xs.size)
        optimal.setdefault(int(w0[mask].sum() + w1[~mask].sum()), []).append(len(subset.runs()))
    best = min(optimal)
    inside = h.decision_region.contains(xs)
    assert int(w0[inside].sum() + w1[~inside].sum()) == best
    assert h.k == min(optimal[best])
    assert regions_of(h) == loop_erm_regions(x, y, k)


def full_table_erm_regions(x, y, k):
    """Reference: ERM on whole (k+1) x (s+1) union tables, grouped by a
    stable argsort, walked back on the tables themselves.  Returns the
    decision region as (lo, hi) pairs."""
    x, y = np.asarray(x, dtype=float), np.asarray(y)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    start = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    pos, d = xs[start], np.add.reduceat(2.0 * y[order] - 1.0, start)
    g = pos.size
    k = min(k, (g + 1) // 2)
    prefix = np.concatenate(([0.0], np.cumsum(d)))
    out = np.full((k + 1, g + 1), -np.inf)
    ins = np.full((k + 1, g + 1), -np.inf)
    out[0] = 0.0
    for j in range(1, k + 1):
        ins[j, 1:] = prefix[1:] + np.maximum.accumulate(out[j - 1, :-1] - prefix[:-1])
        out[j, 1:] = np.maximum.accumulate(ins[j, :-1])
    j, inside = divmod(int(np.argmax(np.stack([out[:, g], ins[:, g]], axis=1))), 2)
    regions, i = [], g
    while i > 0 and (inside or j > 0):
        if inside:
            t = int(np.flatnonzero(ins[j, :i] < out[j - 1, :i])[-1])
            lo = -math.inf if t == 0 else 0.5 * (pos[t - 1] + pos[t])
            hi = math.inf if i == g else 0.5 * (pos[i - 1] + pos[i])
            regions.append((lo, hi))
            j -= 1
        else:
            t = int(np.flatnonzero(out[j, :i] < ins[j, :i])[-1])
        i, inside = t, not inside
    return regions[::-1]


def same_regions(got, want):
    """Equal (lo, hi) pairs, sign of zero included."""
    flat = [np.array(r, dtype=float).reshape(-1) for r in (got, want)]
    return np.array_equal(flat[0].view(np.int64), flat[1].view(np.int64))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_erm_region_is_an_exhaustive_optimum_property(s, k, seed):
    """The region's loss is the least over every subset of at most k runs
    of the positions, and no optimal subset has fewer runs."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.random(s))
    y = rng.integers(0, 2, s)
    h = rb.erm_k_intervals(x, y, k)
    losses = {}
    for subset in iter_k_run_subsets(s, k):
        mask = subset.as_mask(s)
        losses.setdefault(int(np.count_nonzero(mask != y)), []).append(len(subset.runs()))
    best = min(losses)
    assert int(np.count_nonzero(h.decision_region.contains(x) != y)) == best
    assert h.k == min(losses[best])


def test_erm_equals_the_full_table_walk_back():
    """Streamed layers over the sign runs and their masks give the region
    the full per-position tables gave, endpoint bits included: heavy ties,
    signed zeros, one label only, k at or beyond (g + 1) // 2, and long sign
    runs split and bounded by zero differences."""
    rng = np.random.default_rng(2027)
    for size in (1, 2, 7, 60, 800, 4000):
        for grid in (3, 40, None):
            x = rng.random(size) if grid is None else rng.integers(-grid, grid + 1, size) * 0.25
            x[rng.random(size) < 0.1] = -0.0
            x[rng.random(size) < 0.1] = 0.0
            g = np.unique(x).size
            for y in (rng.integers(0, 2, size), np.zeros(size, np.uint8), np.ones(size, np.uint8)):
                for k in (1, 2, 6, (g + 1) // 2, g + 3):
                    want = full_table_erm_regions(x, y, k)
                    assert same_regions(regions_of(rb.erm_k_intervals(x, y, k)), want)
    # Few, long sign runs: labels constant over ranges of x (some flipped),
    # and positions holding both labels equally (zero differences) at the
    # range boundaries, at both ends and inside the ranges; k at, below and
    # beyond the number of positive sign runs.
    for size in (5, 60, 800, 4000):
        for ranges in (1, 2, 5, 12):
            for flip in (0.0, 0.03):
                x = rng.integers(-40, 41, size) * 0.25
                cuts = np.sort(rng.choice(np.arange(-40, 41) * 0.25 + 0.125, ranges, replace=False))
                y = np.searchsorted(cuts, x) % 2
                y[rng.random(size) < flip] ^= 1
                both = np.concatenate((cuts, [x.min() - 0.125, x.max() + 0.125],
                                       rng.integers(-40, 41, 3) * 0.25 + 0.125))
                x = np.concatenate((x, both, both, both[:2], both[:2]))
                y = np.concatenate((y, np.zeros(both.size, int), np.ones(both.size, int), [0, 0], [1, 1]))
                order = rng.permutation(x.size)
                x, y = x[order], y[order]
                up = _group_by_position(x, y)[1] > 0
                runs = int(np.count_nonzero(up[1:] & ~up[:-1]) + up[0])
                for k in {1, max(runs - 1, 1), max(runs, 1), runs + 1, runs + 4}:
                    want = full_table_erm_regions(x, y, k)
                    assert same_regions(regions_of(rb.erm_k_intervals(x, y, k)), want)


@pytest.mark.parametrize(
    "seed, k, region",
    [
        # recorded from the per-position loop; each input has at least three
        # optimal regions with the fewest intervals, so these pin tie-breaking
        (1013, 1, [(-np.inf, 5.5)]),
        (2006, 2, [(-np.inf, 0.5), (5.5, np.inf)]),
        (3013, 3, [(0.5, 3.5), (4.5, 6.5)]),
        (4006, 4, [(-np.inf, 1.5), (4.5, np.inf)]),
    ],
)
def test_erm_tie_resolution_recorded(seed, k, region):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 8, 30).astype(float)
    y = rng.integers(0, 2, 30)
    assert regions_of(rb.erm_k_intervals(x, y, k)) == region


def enumerate_fh_distance(p, q, k):
    """Exhaustive F_H distance over the product domain [ell] x {0,1}."""
    ell = p.shape[0]
    best = 0.0
    for subset in iter_k_run_subsets(ell, k):
        mask = subset.as_mask(ell)
        for region in (mask, ~mask):
            for y in (0, 1):
                diff = abs(p[region, y].sum() - q[region, y].sum())
                best = max(best, diff)
    return best


def brute_optimal(p, k):
    ell = p.shape[0]
    best_loss, best_subset = None, None
    for subset in iter_k_run_subsets(ell, k):
        mask = subset.as_mask(ell)
        loss = p[mask, 0].sum() + p[~mask, 1].sum()
        if best_loss is None or loss < best_loss - 1e-15:
            best_loss, best_subset = loss, mask
    return best_loss, best_subset


def test_classification_loss_transfer_inequalities():
    # excess risk <= 4 * F_H distance, and risk gap <= 2 * F_H distance
    rng = np.random.default_rng(20)
    for _ in range(100):
        ell = int(rng.integers(2, 8))
        k = int(rng.integers(1, 3))
        p = rng.dirichlet(np.ones(2 * ell)).reshape(ell, 2)
        q = rng.dirichlet(np.ones(2 * ell)).reshape(ell, 2)
        dist = enumerate_fh_distance(p, q, k)
        r_star_p, _ = brute_optimal(p, k)
        _, h_q = brute_optimal(q, k)
        r_p_of_hq = p[h_q, 0].sum() + p[~h_q, 1].sum()
        assert r_p_of_hq - r_star_p <= 4.0 * dist + 1e-12
        sup_gap = 0.0
        for subset in iter_k_run_subsets(ell, k):
            mask = subset.as_mask(ell)
            rp = p[mask, 0].sum() + p[~mask, 1].sum()
            rq = q[mask, 0].sum() + q[~mask, 1].sum()
            sup_gap = max(sup_gap, abs(rp - rq))
        assert sup_gap <= 2.0 * dist + 1e-12


def test_robust_classify_no_adversary_equals_plain_erm():
    target = ClassificationTarget((0.0, 0.5, 1.0), (0.5, 0.5), (0.9, 0.1))
    coll = rb.build_collection(target, None, 30, 40, 0.0, 5)
    h_rob, report = rb.robust_classify(coll, 2, 0.0, np.random.default_rng(0), reference=target)
    x, y = coll.pooled()
    h_plain = rb.erm_k_intervals(x, y, 2)
    assert report.cleaning.rounds == 0
    assert h_rob == h_plain
    assert report.excess_risk is not None and report.excess_risk >= -1e-12


def test_robust_classify_requires_labels_everywhere():
    with pytest.raises(rb.UsageError):
        rb.LabeledCollection([[1.0, 2.0]], [[0, 2]], (0,))
    with pytest.raises(rb.UsageError):
        rb.LabeledCollection([[1.0, 2.0]], [[0, 0.5]], (0,))


def test_robust_classify_label_flip_recovers():
    target = ClassificationTarget((0.0, 0.5, 1.0), (0.5, 0.5), (0.8, 0.2))
    attack = LabelFlipAttack(1.0, (0.0, 0.25))
    coll = rb.build_collection(target, attack, 200, 100, 0.2, 3)
    x, y = coll.pooled()
    naive = target.risk_of(rb.erm_k_intervals(x, y, 2)) - target.optimal_risk()
    _, report = rb.robust_classify(
        coll,
        2,
        0.2,
        np.random.default_rng(3),
        trigger_factor=5,
        stop_factor=4,
        reference=target,
    )
    assert naive > 0.1
    assert report.excess_risk <= 0.5 * naive


def test_robust_classify_frees_the_cleaning_count_tables_before_erm(monkeypatch):
    """Only the retained samples and the cleaning report outlive the
    cleaning: its count tables, before and after deletion, are freed by the
    time ERM runs."""
    target = ClassificationTarget((0.0, 0.5, 1.0), (0.5, 0.5), (0.8, 0.2))
    coll = rb.build_collection(target, LabelFlipAttack(1.0, (0.0, 0.25)), 200, 100, 0.2, 3)
    tables, alive, pipeline, erm = [], [], classify.clean_pipeline, classify.erm_k_intervals

    def cleaning(*args):
        result = pipeline(*args)
        tables.extend(weakref.ref(t.counts) for t in (result.discretized, result.cleaned))
        return result

    def fitting(x, y, k):
        alive.extend(table() is not None for table in tables)
        return erm(x, y, k)

    monkeypatch.setattr(classify, "clean_pipeline", cleaning)
    monkeypatch.setattr(classify, "erm_k_intervals", fitting)
    report = rb.robust_classify(coll, 2, 0.2, np.random.default_rng(3), 5, 4)[1]
    assert report.cleaning.rounds >= 1
    assert alive == [False, False]


def test_robust_classify_shares_the_cleaning_checks():
    target = ClassificationTarget((0.0, 0.5, 1.0), (0.5, 0.5), (0.8, 0.2))
    coll = rb.build_collection(target, LabelFlipAttack(1.0, (0.0, 0.25)), 40, 50, 0.2, 1)
    with pytest.warns(UserWarning, match="guidance"):
        rb.robust_classify(coll, 1, 0.2, np.random.default_rng(0), trigger_factor=5, stop_factor=4)
    with pytest.raises(rb.DomainError, match="0.4"):
        rb.robust_classify(coll, 1, 0.5, np.random.default_rng(0))
    for beta in (0.0, 0.2):
        with pytest.raises(rb.UsageError, match="need 0 < stop_factor"):
            rb.robust_classify(coll, 1, beta, np.random.default_rng(0), trigger_factor=1, stop_factor=5)
    with pytest.raises(rb.UsageError):
        rb.robust_classify(coll.subset(np.arange(coll.m) == 0), 1, 0.2, np.random.default_rng(0))


def test_labeled_collection_validates_truth_flags():
    x, y = [[0.1, 0.9]], [[1, 0]]
    with pytest.raises(rb.UsageError, match="unknown truth flags"):
        rb.LabeledCollection(x, y, (0,), truth=("bogus",))
    with pytest.raises(rb.UsageError, match="same shape"):
        rb.LabeledCollection(x, [[1]], (0,))
