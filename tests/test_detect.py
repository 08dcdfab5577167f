import numpy as np
import pytest

import robust_batches as rb
from robust_batches import detect
from robust_batches.detect import (
    clean_discrete,
    max_corruption_subset_brute,
    max_corruption_subset_heuristic,
)


def good_counts(rng, m, n, ell):
    return rng.multinomial(n, np.full(ell, 1.0 / ell), size=m)


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
    counts = np.tile(np.array([5, 5]), (4, 1))
    coll = rb.DiscretizedCollection(counts, tuple(range(4)), 10)
    params = rb.CorruptionParams(0.2, 10, 4)
    subset, score = max_corruption_subset_heuristic(coll, params)
    assert score == 0.0 and subset.members == frozenset()


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
    v = detect._leading_eigvec(P)
    cands = []
    for vec in (v, -v):
        order = np.argsort(-vec, kind="stable")
        cuts = np.nonzero(np.diff(vec[order]))[0] + 1
        cands += [np.sort(order[:depth]) for depth in list(cuts) + [vec.size]]
    if len(cands) > budget:
        keep = np.unique(np.linspace(0, len(cands) - 1, budget).round().astype(int))
        cands = [cands[i] for i in keep]
    windows = []
    length = min(1 << (ell - 1).bit_length(), ell)
    while length >= 2 and len(windows) < budget:
        starts = list(range(0, ell - length + 1, max(1, length // 2)))
        if starts[-1] != ell - length:
            starts.append(ell - length)
        for a in starts:
            windows.append(np.arange(a, a + length))
            if len(windows) >= budget:
                break
        length //= 2
    seen, masks = set(), []
    for idx in cands + windows:
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
    return rb.BinSubset.from_mask(best_mask), best_score


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


def test_clean_discrete_good_only_no_deletions(monkeypatch):
    monkeypatch.setattr(detect, "max_corruption_subset_heuristic", max_corruption_subset_brute)
    rng = np.random.default_rng(2)
    n, m, ell = 1000, 80, 8
    counts = good_counts(rng, m, n, ell)
    coll = rb.DiscretizedCollection(counts, tuple(range(m)), n)
    params = rb.CorruptionParams(0.1, n, m)
    out, rounds = clean_discrete(coll, params, np.random.default_rng(0))
    assert rounds == 0
    assert out.ids == coll.ids


def test_clean_discrete_single_bin_attack_brute_certified(monkeypatch):
    monkeypatch.setattr(detect, "max_corruption_subset_heuristic", max_corruption_subset_brute)
    rng = np.random.default_rng(3)
    n, m, ell = 2500, 80, 10
    params = rb.CorruptionParams(0.1, n, m)
    counts = good_counts(rng, m, n, ell)
    dev = int(round(2.5 * params.tau * n))
    counts = plant_single_bin(counts, range(16), 3, dev)
    coll = rb.DiscretizedCollection(counts, tuple(range(m)), n)
    out, rounds = clean_discrete(coll, params, np.random.default_rng(11))
    assert rounds >= 1
    _, residual = max_corruption_subset_brute(out, params)
    assert residual < 25 * params.kappa_g


def test_clean_discrete_heuristic_matches_brute_termination():
    rng = np.random.default_rng(4)
    agree = 0
    for seed in range(20):
        n, m, ell = 2500, 60, 8
        params = rb.CorruptionParams(0.1, n, m)
        counts = good_counts(rng, m, n, ell)
        dev = int(round(2.5 * params.tau * n))
        counts = plant_single_bin(counts, range(10), 5, dev)
        coll = rb.DiscretizedCollection(counts, tuple(range(m)), n)
        out, _ = clean_discrete(coll, params, np.random.default_rng(seed))
        _, residual = max_corruption_subset_brute(out, params)
        if residual < 25 * params.kappa_g:
            agree += 1
    assert agree >= 18


def test_clean_discrete_validates_factors():
    coll = rb.DiscretizedCollection(np.ones((2, 2), dtype=int), (0, 1), 2)
    params = rb.CorruptionParams(0.2, 2, 2)
    with pytest.raises(rb.UsageError):
        clean_discrete(coll, params, np.random.default_rng(0), trigger_factor=5, stop_factor=9)
