import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import robust_batches as rb
from robust_batches import clean, detect
from robust_batches.corruption import STOP_FACTOR, TRIGGER_FACTOR, corruption_scores
from robust_batches.detect import max_corruption_subset_heuristic
from robust_batches.simulate import FkTargetedAttack, MeanShiftAttack, parse_target
from oracles import max_corruption_subset_brute


def good_counts(rng, m, n, ell):
    return rng.multinomial(n, np.full(ell, 1.0 / ell), size=m)


def twice_medians(counts):
    """Reference ``a`` for detect._leading_eigvec: the sum of the two middle
    entries of each sorted column, as int64."""
    ordered = np.sort(counts, axis=0).astype(np.int64)
    m = counts.shape[0]
    return ordered[(m - 1) // 2] + ordered[m // 2]


def plant_single_bin(counts, rows, bin0, dev_counts):
    """Move dev_counts samples into one bin for the given rows."""
    counts = counts.copy()
    for i in rows:
        need = dev_counts
        for j in range(counts.shape[1]):
            if j == bin0 or need == 0:
                continue
            moved = min(counts[i, j], need)
            counts[i, j] -= moved
            counts[i, bin0] += moved
            need -= moved
    return counts


def test_brute_identical_batches_returns_empty():
    counts = np.tile(np.array([10, 10, 10]), (5, 1))
    coll = rb.DiscretizedCollection(counts, tuple(range(5)), 30)
    params = rb.CorruptionParams(0.2, 30, 5)
    subset, score = max_corruption_subset_brute(coll, params)
    assert score == 0.0
    assert subset.members == frozenset()


def test_brute_refuses_large_ell():
    coll = rb.DiscretizedCollection(np.ones((2, 21), dtype=int), (0, 1), 21)
    with pytest.raises(rb.UsageError):
        max_corruption_subset_brute(coll, rb.CorruptionParams(0.2, 21, 2))


def test_brute_finds_planted_bin():
    rng = np.random.default_rng(0)
    n, m, ell = 2500, 60, 6
    params = rb.CorruptionParams(0.1, n, m)
    counts = good_counts(rng, m, n, ell)
    dev = int(round(2.5 * params.tau * n))
    counts = plant_single_bin(counts, range(12), 2, dev)
    coll = rb.DiscretizedCollection(counts, tuple(range(m)), n)
    subset, score = max_corruption_subset_brute(coll, params)
    assert 3 in subset.members
    assert score > 0


def test_heuristic_single_bin_attack_is_in_candidates():
    rng = np.random.default_rng(1)
    n, m, ell = 2500, 50, 10
    params = rb.CorruptionParams(0.1, n, m)
    counts = good_counts(rng, m, n, ell)
    dev = int(round(3 * params.tau * n))
    counts = plant_single_bin(counts, range(8), 4, dev)
    coll = rb.DiscretizedCollection(counts, tuple(range(m)), n)
    subset, score = max_corruption_subset_heuristic(coll, params)
    hot = rb.corruption_collection(coll, rb.BinSubset.of(5), params).total
    assert score >= hot  # the singleton {5} is always a candidate


def test_heuristic_zero_corruption():
    for row, m in [([5, 5], 4), ([10, 10, 10], 5), ([1, 0, 3, 2, 4], 3)]:
        counts = np.tile(np.array(row), (m, 1))  # identical batches: a zero Gram matrix
        n = int(counts[0].sum())
        coll = rb.DiscretizedCollection(counts, tuple(range(m)), n)
        params = rb.CorruptionParams(0.2, n, m)
        v = detect._leading_eigvec(coll.counts, coll.n, twice_medians(coll.counts))
        assert np.isfinite(v).all()
        subset, score = max_corruption_subset_heuristic(coll, params)
        assert score == 0.0 and subset.members == frozenset()


def test_a_table_of_zero_sample_batches_never_reaches_detection():
    """Detection divides by n*n: a table at n = 0 would score 0/0, a
    RuntimeWarning (an error here), so the collection refuses n < 1."""
    with pytest.raises(rb.UsageError, match="n must be a positive integer, got 0"):
        max_corruption_subset_heuristic(
            rb.DiscretizedCollection(np.zeros((5, 3), int), range(5), 0),
            rb.CorruptionParams(0.2, 1, 5),
        )


def test_brute_upper_bounds_heuristic_and_half_ratio():
    rng = np.random.default_rng(31)
    at_least_half = 0
    rounds = 200
    for _ in range(rounds):
        ell = int(rng.integers(2, 13))
        m = int(rng.integers(10, 40))
        n = 1500
        params = rb.CorruptionParams(0.1, n, m)
        counts = good_counts(rng, m, n, ell)
        n_bad = int(rng.integers(1, max(2, m // 4)))
        dev = int(round(rng.uniform(1.5, 3.0) * params.tau * n))
        bad_bin = int(rng.integers(0, ell))
        counts = plant_single_bin(counts, range(n_bad), bad_bin, dev)
        coll = rb.DiscretizedCollection(counts, tuple(range(m)), n)
        _, s_brute = max_corruption_subset_brute(coll, params)
        _, s_heur = max_corruption_subset_heuristic(coll, params)
        assert s_heur <= s_brute + 1e-12
        if s_heur >= 0.5 * s_brute:
            at_least_half += 1
    assert at_least_half == rounds


def test_heuristic_candidate_budget(monkeypatch):
    rng = np.random.default_rng(5)
    counts = good_counts(rng, 20, 500, 12)
    coll = rb.DiscretizedCollection(counts, tuple(range(20)), 500)
    params = rb.CorruptionParams(0.2, 500, 20)
    full = max_corruption_subset_heuristic(coll, params)
    monkeypatch.setattr(detect, "_CANDIDATE_CAP", 4)
    capped = max_corruption_subset_heuristic(coll, params)
    assert capped[1] <= full[1] + 1e-12


def _mask_matmul_heuristic(sub, params, budget=4096):
    """Reference: the spectral detector as one dense probs() @ masks product
    over deduplicated candidate masks, with running tie loops."""

    def score_subsets(masks):
        probs = sub.probs() @ masks
        dev = probs - np.median(probs, axis=0)
        return np.where(np.abs(dev) <= params.tau, 0.0, dev * dev).sum(axis=0)

    def bitmask(mask):
        return sum(1 << int(i) for i in np.nonzero(mask)[0])

    ell = sub.ell
    P = sub.probs()
    centered = P - np.median(P, axis=0)
    v = detect._leading_eigvec(sub.counts, sub.n, twice_medians(sub.counts))
    cands = []
    for vec in (v, -v):
        order = np.argsort(-vec, kind="stable")
        cuts = np.nonzero(np.diff(vec[order]))[0] + 1
        cands += [np.sort(order[:depth]) for depth in list(cuts) + [vec.size]]
    if len(cands) > budget:
        keep = np.unique(np.linspace(0, len(cands) - 1, budget).round().astype(int))
        cands = [cands[i] for i in keep]
    seen, masks = set(), []
    for idx in cands:
        mask = np.zeros(ell)
        mask[idx] = 1.0
        if mask.tobytes() not in seen:
            seen.add(mask.tobytes())
            masks.append(mask)
    scores = score_subsets(np.stack(masks, axis=1))
    best_score, best_mask, best_bits = 0.0, None, 0
    for mask, score in zip(masks, scores):
        if score > best_score:
            best_score, best_mask, best_bits = float(score), mask, bitmask(mask)
        elif score == best_score and best_mask is not None and bitmask(mask) < best_bits:
            best_mask, best_bits = mask, bitmask(mask)
    single = np.where(np.abs(centered) <= params.tau, 0.0, centered * centered).sum(axis=0)
    j = int(np.argmax(single))
    if single[j] > best_score or (
        single[j] == best_score and best_mask is not None and (1 << j) < best_bits
    ):
        best_score, best_mask = float(single[j]), np.eye(ell)[j]
    if best_mask is None or best_score <= 0.0:
        return rb.BinSubset(frozenset()), 0.0
    return rb.BinSubset(frozenset(int(i) + 1 for i in np.flatnonzero(best_mask))), best_score


def _equivalence_cases(rng):
    """Small collections: clean, a planted single-bin attack, a planted
    window attack, and heavily tied counts (few samples, repeated rows)."""
    for _ in range(60):
        ell = int(rng.integers(2, 41))
        m = int(rng.integers(6, 40))
        kind = int(rng.integers(0, 4))
        n = 12 if kind == 3 else int(rng.integers(200, 2000))
        params = rb.CorruptionParams(0.2, n, m)
        counts = good_counts(rng, m, n, ell)
        n_bad = int(rng.integers(1, max(2, m // 4)))
        if kind == 1:
            dev = int(round(rng.uniform(1.0, 3.0) * params.tau * n))
            counts = plant_single_bin(counts, range(n_bad), int(rng.integers(0, ell)), dev)
        elif kind == 2:
            a = int(rng.integers(0, ell - 1))
            for b in range(a, min(ell, a + int(rng.integers(2, 8)))):
                counts = plant_single_bin(counts, range(n_bad), b, int(0.6 * params.tau * n))
        elif kind == 3:
            counts[m // 2 :] = counts[0]
        yield rb.DiscretizedCollection(counts, tuple(range(m)), n), params


@pytest.mark.parametrize("cap", [None, 4])
def test_heuristic_matches_mask_matmul_reference(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(detect, "_CANDIDATE_CAP", cap)
    for coll, params in _equivalence_cases(np.random.default_rng(17)):
        subset, score = max_corruption_subset_heuristic(coll, params)
        ref_subset, ref_score = _mask_matmul_heuristic(coll, params, cap or 4096)
        assert abs(score - ref_score) <= 1e-12
        if subset != ref_subset:
            # A subset and its complement score the same; the reference sums
            # probabilities in floats and broke that tie by rounding, the
            # tie rule takes the smaller bitmask.
            assert subset.members | ref_subset.members == set(range(1, coll.ell + 1))
            assert not subset.members & ref_subset.members
            assert subset.bitmask() < ref_subset.bitmask()


def _reference_column_scores(table, n, tau):
    """Reference scorer: every batch of an (m, nc) table of subset counts
    scored against its column's np.median, in count units, divided by n^2."""
    return corruption_scores(table, tau * n, np.median(table, axis=0)).sum(axis=0) / (n * n)


def _chunked_scores(table, n, tau):
    """detect's scorer as the spectral detector runs it on singletons: the
    table in the smallest dtype that holds n, _CHUNK columns at a time, each
    transposed to one row per candidate.  (twice-medians, totals)."""
    cols = table.astype(np.min_scalar_type(n))
    pairs = [detect._candidate_scores(cols[:, j : j + detect._CHUNK].T, n, tau)
             for j in range(0, cols.shape[1], detect._CHUNK)]
    return tuple(np.concatenate(family) for family in zip(*pairs))


@st.composite
def score_tables(draw):
    """Integer tables of subset counts in 0..n with constant columns, the
    values 0 and n, and occupied ranges on both sides of the batch count."""
    m = draw(st.sampled_from([2, 3, 4, 5]) | st.integers(2, 80))
    nc = draw(st.sampled_from([1, detect._CHUNK - 1, detect._CHUNK, detect._CHUNK + 1])
              | st.integers(1, 3 * detect._CHUNK))
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([min(n, m - 1), n]))
    base = draw(st.sampled_from([0, n - spread, int(rng.integers(0, n - spread + 1))]))
    table = base + rng.integers(0, spread + 1, size=(m, nc))
    table[:, rng.random(nc) < 0.2] = base + int(rng.integers(0, spread + 1))
    if spread == n:
        table[rng.random((m, nc)) < 0.1] = 0
        table[rng.random((m, nc)) < 0.1] = n
    if draw(st.booleans()):  # tau*n equal to an attained deviation
        dev = abs(float(table[0, -1]) - float(np.median(table[:, -1])))
        tau = dev / n
        assume(tau * n == dev)
    else:
        tau = draw(st.floats(0.0, 1.0))
    return table, n, tau


@settings(max_examples=300, deadline=None)
@given(score_tables())
def test_chunked_histogram_scores_match_reference_bitwise(case):
    table, n, tau = case
    expected = _reference_column_scores(table, n, tau)
    for twice, totals in (_chunked_scores(table, n, tau), detect._candidate_scores(table.T, n, tau)):
        assert twice.dtype == np.int64 and np.array_equal(twice, twice_medians(table))
        assert totals.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(score_tables())
def test_complement_tables_score_the_same_bitwise(case):
    """The fact the spectral detector rests on: the per-batch counts of a
    subset's complement are n minus the subset's, and score the same total,
    bit for bit, about the mirrored median."""
    table, n, tau = case
    twice, totals = detect._candidate_scores(table.T, n, tau)
    twice_c, totals_c = detect._candidate_scores(n - table.T, n, tau)
    assert totals_c.tobytes() == totals.tobytes()
    assert np.array_equal(twice_c, 2 * n - twice)


def test_singletons_are_scored_once_from_views_of_the_count_table(monkeypatch):
    """The median pass scores the singletons: _middle_order_stats sees each
    _CHUNK-column chunk of the (m, ell) uint8 table once, as a view of the
    table, not of a transposed copy."""
    rng = np.random.default_rng(12)
    m, n, ell = 40, 200, 150  # two full chunks and a partial one
    coll = rb.DiscretizedCollection(good_counts(rng, m, n, ell).astype(np.uint8), tuple(range(m)), n)
    seen, middle = [], detect._middle_order_stats

    def recording(table, keys=None):
        seen.append(table)
        return middle(table, keys)

    monkeypatch.setattr(detect, "_middle_order_stats", recording)
    max_corruption_subset_heuristic(coll, rb.CorruptionParams(0.2, n, m))
    chunks = [coll.counts[:, j : j + detect._CHUNK].T for j in range(0, ell, detect._CHUNK)]
    scored = [[t for t in seen if t.shape == c.shape and np.array_equal(t, c)] for c in chunks]
    assert [len(tables) for tables in scored] == [1] * len(chunks)
    assert all(np.shares_memory(tables[0], coll.counts) for tables in scored)


def test_middle_order_stats_takes_both_branches():
    rng = np.random.default_rng(8)
    for m, n, has_hist in [(2, 1, True), (7, 3, True), (8, 5000, False), (9, 5000, False)]:
        table = rng.integers(0, n + 1, size=(5, m))
        table[0] = n
        lo, hi, base, hist = detect._middle_order_stats(table)
        ordered = np.sort(table, axis=1)
        assert (hist is not None) == has_hist
        assert np.array_equal(lo, ordered[:, (m - 1) // 2])
        assert np.array_equal(hi, ordered[:, m // 2])
        if has_hist:
            assert hist.sum(axis=1).tolist() == [m] * 5
            assert base == table.min()


def test_median_keys_in_slabs_of_any_size_count_the_same():
    """The median pass writes its keys into the storage it is given, a slab
    of floor(size / rows) batches at a time: slabs of 1, 7 and at least m
    batches give bit for bit the medians, histogram and totals of one
    table-sized key array, for views of the count table's columns and for
    row-major tables, with ties and an occupied range that starts above 0."""
    rng = np.random.default_rng(21)
    m, n, nc, tau = 50, 100, 9, 0.03
    counts = (40 + rng.integers(0, 6, size=(m, 2 * nc))).astype(np.uint8)
    counts[:, 3] = 42
    for table in (counts.T[nc:], np.ascontiguousarray(counts.T[:nc])):
        lo, hi, base, hist = detect._middle_order_stats(table)
        twice, totals = detect._candidate_scores(table, n, tau)
        assert base == table.min() > 0
        assert np.array_equal(hist, (table[:, :, None] == base + np.arange(hist.shape[1])).sum(axis=1))
        for batches in (1, 7, m, 3 * m):
            keys = np.empty(batches * nc, dtype=np.int64)
            lo_s, hi_s, base_s, hist_s = detect._middle_order_stats(table, keys)
            twice_s, totals_s = detect._candidate_scores(table, n, tau, keys)
            assert base_s == base
            for got, want in ((lo_s, lo), (hi_s, hi), (hist_s, hist), (twice_s, twice)):
                assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
            assert totals_s.tobytes() == totals.tobytes()


def test_tall_table_detection_keeps_its_keys_in_the_workspace():
    """One detection call at m = 2*10^4, ell = 200, n = 100, given its
    workspace, peaks below 5 MiB of heap (3.7 measured): the median pass
    writes its keys into the workspace's 65,536-slot block storage, 1,024
    batches per slab, where a key table per chunk took 64*m int64 values
    (9.8 MiB, 12.4 MiB in all).  It finds the planted quarter of the bins."""
    m, n, ell = 2 * 10**4, 100, 200
    rng = np.random.default_rng(0)
    hot = np.where(np.arange(ell) < ell // 4, 0.95 / (ell // 4), 0.05 / (ell - ell // 4))
    counts = rng.multinomial(n, np.full(ell, 1.0 / ell), size=m).astype(np.uint8)
    counts[: m // 5] = rng.multinomial(n, hot, size=m // 5)
    coll = rb.DiscretizedCollection(counts, range(m), n)
    del counts
    workspace = detect.GramWorkspace(m, ell, n)
    tracemalloc.start()
    try:
        subset = max_corruption_subset_heuristic(coll, rb.CorruptionParams(0.2, n, m), workspace)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert subset == rb.BinSubset.of(*range(1, ell // 4 + 1))
    assert workspace.keys().size == 65536


def test_one_batch_tables_have_key_room_for_every_chunk_row():
    """A workspace sized for one batch still holds one batch of keys for
    each row of a chunk, so a direct call on a constant one-batch table
    scores it."""
    for ell in (3, detect._CHUNK, 200):
        assert detect.GramWorkspace(1, ell, ell).keys().size >= min(ell, detect._CHUNK)
        coll = rb.DiscretizedCollection(np.ones((1, ell), dtype=np.uint8), (0,), ell)
        subset, score = max_corruption_subset_heuristic(coll, rb.CorruptionParams(0.2, ell, 1))
        assert not subset.members and score == 0.0


def _reference_eigvec(P):
    """Reference for detect._leading_eigvec: the top eigenvector, by eigh,
    of P minus np.median(P, axis=0), then minus its row means."""
    centered = P - np.median(P, axis=0)
    centered -= centered.mean(axis=1, keepdims=True)
    return np.linalg.eigh(centered.T @ centered)[1][:, -1]


def _reference_candidate_tables(counts, n, v):
    """Every candidate family as one full (m, nc) table of subset counts:
    the picked threshold sets of v, their complements and the singletons."""
    order, depth = detect._threshold_depths(v)
    table = np.cumsum(counts[:, order], axis=1)[:, depth - 1]
    yield table, lambda c: order[: depth[c]] + 1
    yield n - table, lambda c: order[depth[c] :] + 1
    yield counts, lambda c: (c + 1,)


def _reference_heuristic(sub, params):
    """The spectral detector over full tables with the reference scorer."""
    best_score, tied = 0.0, []
    v = detect._leading_eigvec(sub.counts, sub.n, twice_medians(sub.counts))
    for table, bins_of in _reference_candidate_tables(sub.counts, sub.n, v):
        totals = _reference_column_scores(table, sub.n, params.tau)
        top = float(totals.max(initial=0.0))
        if top > best_score:
            best_score, tied = top, []
        if top == best_score > 0.0:
            tied += [rb.BinSubset.of(*bins_of(c)) for c in np.flatnonzero(totals == top)]
    if not tied:
        return rb.BinSubset(frozenset()), 0.0
    return min(tied, key=rb.BinSubset.bitmask), best_score


@pytest.mark.parametrize("cap", [None, 4])
def test_heuristic_matches_full_table_reference(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(detect, "_CANDIDATE_CAP", cap)
    rng = np.random.default_rng(29)
    ells = [1, 63, 64, 65] + [int(e) for e in rng.integers(2, 150, size=12)]
    for i, ell in enumerate(ells):
        m = int(rng.integers(2, 120))
        n = int(rng.choice([12, 100, 4000]))
        params = rb.CorruptionParams(0.2, n, m)
        counts = good_counts(rng, m, n, ell)
        if i % 2:
            bad = rng.multinomial(n, rng.dirichlet(np.full(ell, 0.3)), size=max(1, m // 5))
            counts[: bad.shape[0]] = bad
        coll = rb.DiscretizedCollection(counts, tuple(range(m)), n)
        if i % 2:  # planted; ell > m (the m x m Gram side) at i = 1 and 9
            v = detect._leading_eigvec(coll.counts, coll.n, twice_medians(coll.counts))
            assert abs(v @ _reference_eigvec(coll.probs())) >= 1 - 1e-12
        assert max_corruption_subset_heuristic(coll, params) == _reference_heuristic(coll, params)


def _fk_targeted_collection():
    """The collection of test_simulate.test_fk_targeted_attack_end_to_end."""
    n, beta, m = 100, 0.2, 400
    target = parse_target("uniform:0,1")
    coll = rb.build_collection(target, FkTargetedAttack(), m, n, beta, 7)
    return rb.discretize(coll, rb.choose_ell(2, n, beta, m))[1]


def test_leading_eigvec_matches_eigh_on_fk_targeted_collection():
    disc = _fk_targeted_collection()
    v = detect._leading_eigvec(disc.counts, disc.n, twice_medians(disc.counts))
    assert abs(v @ _reference_eigvec(disc.probs())) >= 1 - 1e-12
    assert abs(v.sum()) <= 1e-12  # the all-ones direction is deflated away


def _gram_of_d(counts):
    """Exact int64 reference for the Gram matrix _leading_eigvec builds:
    D.T @ D, or D @ D.T when ell > m, with D = 2*counts - twice the column
    medians."""
    twice_median = (2 * np.median(counts, axis=0)).astype(np.int64)
    d = 2 * counts.astype(np.int64) - twice_median
    return d @ d.T if d.shape[1] > d.shape[0] else d.T @ d


def _eigvec_and_grams(monkeypatch, counts, n, workspace=None):
    """v from _leading_eigvec, and every E.T @ E it built on the way."""
    grams, exact_gram = [], detect._exact_gram

    def recording(blocks, q, workspace):
        grams.append(exact_gram(blocks, q, workspace))
        return grams[-1].copy()

    monkeypatch.setattr(detect, "_exact_gram", recording)
    return detect._leading_eigvec(counts, n, twice_medians(counts), workspace), grams


def _planted_counts(rng, m, n, ell):
    counts = good_counts(rng, m, n, ell)
    counts[: m // 5] = rng.multinomial(n, rng.dirichlet(np.full(ell, 0.3)), size=m // 5)
    return counts


@pytest.mark.parametrize("n, dtype", [(100, np.float32), (255, np.float64)])
@pytest.mark.parametrize("m, ell", [(61, 23), (40, 40), (13, 57)])  # ell < m, ell = m, ell > m
def test_tiled_gram_is_exact_for_every_block_size(monkeypatch, m, ell, n, dtype):
    """In float32 blocks (n = 100, a cap of 419 rows) and in float64 ones
    (n = 255, where the cap of 64 rows is below _FLOAT32_MIN_ROWS), E.T @ E
    is exact and v, back-mapped in float64 on the m x m side, is the same
    for every block and tile size."""
    assert detect.GramWorkspace(m, ell, n).dtype == dtype
    rng = np.random.default_rng(m + ell)
    counts = _planted_counts(rng, m, n, ell)
    reference = _gram_of_d(counts).astype(np.float64)
    q = min(m, ell)
    vectors = []
    # one row or bin per block, blocks that leave a remainder, one tile, one block;
    # one row per tile, the default tile width, one tile wider than the matrix
    for block, tile in itertools.product((1, 2 * q, 7 * q, q * q, 10**9), (1, 96, q + 5)):
        monkeypatch.setattr(detect, "_GRAM_BLOCK", block)
        monkeypatch.setattr(detect, "_GRAM_TILE", tile)
        v, grams = _eigvec_and_grams(monkeypatch, counts.astype(np.uint8), n)
        assert len(grams) == 1 and np.array_equal(grams[0], reference)
        vectors.append(v)
    assert all(np.array_equal(v, vectors[0]) for v in vectors)
    assert abs(vectors[0] @ _reference_eigvec(counts / n)) >= 1 - 1e-12


@pytest.mark.parametrize("n", [100, 255])  # float32 and float64 blocks
@pytest.mark.parametrize("block, tile", [(7 * 23, 5), (1 << 17, 96)])
def test_one_workspace_serves_a_run_of_shrinking_tables(monkeypatch, block, tile, n):
    """A workspace sized for a tall table serves that table, then one with
    fewer batches, then a wide one (fewer batches than bins), as the rounds
    of one cleaning run do: each Gram matrix is a contiguous view of the
    workspace's first q*q values, bit-equal to a fresh build, and so is v."""
    monkeypatch.setattr(detect, "_GRAM_BLOCK", block)
    monkeypatch.setattr(detect, "_GRAM_TILE", tile)
    rng = np.random.default_rng(5)
    ell = 23
    counts = _planted_counts(rng, 61, n, ell).astype(np.uint8)
    workspace = detect.GramWorkspace(61, ell, n)
    for m in (61, 40, 13):
        table = counts[rng.permutation(61)[:m]]
        fresh_v, fresh = _eigvec_and_grams(monkeypatch, table, n)
        v, grams = _eigvec_and_grams(monkeypatch, table, n, workspace)
        reference = _gram_of_d(table).astype(np.float64)
        assert np.array_equal(grams[0], reference) and np.array_equal(grams[0], fresh[0])
        assert np.array_equal(v, fresh_v)
        # the recording hands _leading_eigvec a copy, so the workspace keeps E.T @ E
        assert np.array_equal(workspace.gram(min(m, ell)), reference)


def test_float32_blocks_never_pass_the_row_cap(monkeypatch):
    """At n = 165 the cap is floor(2**24 / 330**2) = 154 rows.  The first
    309 rows of E are (329, -329), odd: 154 of them sum to 154 * 329**2 <
    2**24 in every entry, but 155 sum to 2**24 + 139, which float32 cannot
    hold.  So the Gram matrix is exact, and one row past the cap rounds it."""
    n, m = 165, 620
    cap = 2**24 // (2 * n) ** 2
    past = (cap + 1) * (2 * n - 1) ** 2
    assert cap == 154 and int(np.float32(past)) != past
    column = np.array([n] * (m // 2 - 1) + [1] + [0] * (m // 2))
    counts = np.stack([column, n - column], axis=1).astype(np.uint8)
    e = 2 * counts.astype(np.int64) - twice_medians(counts)
    assert (e[: m // 2 - 1] == [2 * n - 1, 1 - 2 * n]).all() and abs(e[m // 2 - 1 :]).max() == 1
    reference = _gram_of_d(counts).astype(np.float64)
    workspace = detect.GramWorkspace(m, 2, n)
    assert workspace.dtype == np.float32 and workspace.block_rows(2, workspace.dtype) == cap
    grams = _eigvec_and_grams(monkeypatch, counts, n, workspace)[1]
    assert np.array_equal(grams[0], reference)
    workspace.cap = cap + 1
    grams = _eigvec_and_grams(monkeypatch, counts, n, workspace)[1]
    assert not np.array_equal(grams[0], reference)


def test_block_rule_keeps_float32_within_its_cap_for_every_n():
    """For every n, float32 blocks have at most floor(2**24 / (2n)**2) rows,
    so their products are exact; from n = 182 on, blocks are float64."""
    for n in range(2200):  # n = 0 too: a table of zeros
        workspace = detect.GramWorkspace(10**5, 2, n)
        assert workspace.dtype == (np.float32 if n <= 181 else np.float64)
        if workspace.dtype == np.float32:
            assert workspace.block_rows(2, workspace.dtype) * (2 * n) ** 2 <= 2**24


def test_clean_rounds_after_the_first_allocate_no_gram_matrix(monkeypatch):
    """Under tracemalloc, every round after the first of a multi-round run,
    from one detection's return to the next one's, peaks below the q x q
    float64 Gram matrix: it is built in the run's one workspace, allocated
    before the first detection, not in a fresh array."""
    target = parse_target("gm:0.6N(0,1)+0.4N(3,0.5)")
    coll = rb.build_collection(target, MeanShiftAttack(1.0, (1.4, 1.6)), 1000, 100, 0.2, 1)
    ell, params = clean.prepare_cleaning(coll, 6, 0.2)  # ell = 600, as estimate --t 3 --d 1
    disc = rb.discretize(coll, ell)[1]
    q = min(disc.counts.shape)
    peaks, before, detect_spectral = [], [0], clean.max_corruption_subset_heuristic

    def traced(sub, params, workspace):
        found = detect_spectral(sub, params, workspace)
        peaks.append(tracemalloc.get_traced_memory()[1] - before[0])
        tracemalloc.reset_peak()
        before[0] = tracemalloc.get_traced_memory()[0]
        return found

    monkeypatch.setattr(clean, "max_corruption_subset_heuristic", traced)
    tracemalloc.start()
    try:
        rounds = clean.clean_counts(coll, disc, 0.2, params, np.random.default_rng(1), 5, 4)[2]
    finally:
        tracemalloc.stop()
    assert rounds >= 1 and len(peaks) == rounds + 1
    assert peaks[0] >= q * q * 8 > max(peaks[1:])


def test_gram_past_the_exact_range_rounds_and_is_not_refused(monkeypatch):
    """With m*(2n)^2 >= 2**53 the same code runs: products and partial
    sums round as in any float64 matrix product, so the Gram matrix is
    exact only to a relative 2**-52 per term, and v still matches eigh."""
    n = 3 * 2**25 + 1  # m*(2n)^2 is about 2**57
    third = n // 3
    counts = np.array(
        [[n, 0, 0], [0, n, 0], [0, 0, n], [n // 2, n - n // 2, 0], [third, third, n - 2 * third]]
    )
    twice_median = [int(v) for v in 2 * np.median(counts, axis=0)]
    d = [[2 * int(c) - t for c, t in zip(row, twice_median)] for row in counts.tolist()]
    exact = np.array([[sum(r[i] * r[j] for r in d) for j in range(3)] for i in range(3)])
    assert max(abs(e) for e in exact.ravel()) >= 2**53
    v, grams = _eigvec_and_grams(monkeypatch, counts.astype(np.uint32), n)
    errors = [abs(int(g) - e) for g, e in zip(grams[0].ravel(), exact.ravel())]
    assert 0 < max(errors) <= sum(r[i] ** 2 for r in d for i in range(3)) * 2.0**-50
    assert abs(np.linalg.norm(v) - 1) <= 1e-12
    assert abs(v @ _reference_eigvec(counts / n)) >= 1 - 1e-9


def test_detected_subset_survives_eigvec_noise(monkeypatch):
    disc = _fk_targeted_collection()
    params = rb.CorruptionParams(0.2, disc.n, disc.m)
    subset, score = max_corruption_subset_heuristic(disc, params)
    assert score >= 5 * params.kappa_g
    exact = detect._leading_eigvec
    rng = np.random.default_rng(0)

    def noisy(counts, n, a, workspace):
        v = exact(counts, n, a, workspace)
        return v + 1e-12 * np.abs(v).max() * rng.standard_normal(v.size)

    monkeypatch.setattr(detect, "_leading_eigvec", noisy)
    for _ in range(10):
        assert max_corruption_subset_heuristic(disc, params) == (subset, score)


def brute_in_a_run(sub, params, workspace):
    """The exhaustive detector in place of the spectral one in
    clean.clean_counts, which hands every round its Gram workspace."""
    return max_corruption_subset_brute(sub, params)


def clean_loop(coll, params, rng, trigger_factor=TRIGGER_FACTOR, stop_factor=STOP_FACTOR):
    """clean.clean_counts on a count table that is its own collection:
    the survivors and the round count."""
    out, _, rounds = clean.clean_counts(
        coll, coll, params.beta, params, rng, trigger_factor, stop_factor
    )
    return out, rounds


def test_clean_counts_good_only_no_deletions(monkeypatch):
    monkeypatch.setattr(clean, "max_corruption_subset_heuristic", brute_in_a_run)
    rng = np.random.default_rng(2)
    n, m, ell = 1000, 80, 8
    counts = good_counts(rng, m, n, ell)
    coll = rb.DiscretizedCollection(counts, tuple(range(m)), n)
    params = rb.CorruptionParams(0.1, n, m)
    out, rounds = clean_loop(coll, params, np.random.default_rng(0))
    assert rounds == 0
    assert out.ids == coll.ids


def test_clean_counts_single_bin_attack_brute_certified(monkeypatch):
    monkeypatch.setattr(clean, "max_corruption_subset_heuristic", brute_in_a_run)
    rng = np.random.default_rng(3)
    n, m, ell = 2500, 80, 10
    params = rb.CorruptionParams(0.1, n, m)
    counts = good_counts(rng, m, n, ell)
    dev = int(round(2.5 * params.tau * n))
    counts = plant_single_bin(counts, range(16), 3, dev)
    coll = rb.DiscretizedCollection(counts, tuple(range(m)), n)
    out, rounds = clean_loop(coll, params, np.random.default_rng(11))
    assert rounds >= 1
    _, residual = max_corruption_subset_brute(out, params)
    assert residual < 25 * params.kappa_g


def test_clean_counts_heuristic_matches_brute_termination():
    rng = np.random.default_rng(4)
    agree = 0
    for seed in range(20):
        n, m, ell = 2500, 60, 8
        params = rb.CorruptionParams(0.1, n, m)
        counts = good_counts(rng, m, n, ell)
        dev = int(round(2.5 * params.tau * n))
        counts = plant_single_bin(counts, range(10), 5, dev)
        coll = rb.DiscretizedCollection(counts, tuple(range(m)), n)
        out, _ = clean_loop(coll, params, np.random.default_rng(seed))
        _, residual = max_corruption_subset_brute(out, params)
        if residual < 25 * params.kappa_g:
            agree += 1
    assert agree >= 18


def test_clean_counts_validates_factors():
    coll = rb.DiscretizedCollection(np.ones((2, 2), dtype=int), (0, 1), 2)
    params = rb.CorruptionParams(0.2, 2, 2)
    with pytest.raises(rb.UsageError):
        clean_loop(coll, params, np.random.default_rng(0), trigger_factor=5, stop_factor=9)
