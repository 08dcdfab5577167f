"""Reference implementations that the tests compare the package against.

Nothing in ``robust_batches`` calls them: the scalar corruption score,
the concentration-property checks of good-only collections (which need
truth flags and true bin masses, so only simulation has them), the
exhaustive detector, the total-variation distance, the exhaustive F_k
distance and its enumeration of every union of at most k runs, and the
lift of bin subsets to real intervals with the raw per-batch count that
the discretization round trip compares against.

Test modules import this one as ``oracles``: pytest puts ``tests/`` on
the import path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from robust_batches.core import (
    GOOD,
    CorruptionParams,
    DiscretizedCollection,
    DomainError,
    UsageError,
    median,
    per_batch_probs,
)
from robust_batches.corruption import corruption_scores
from robust_batches.detect import _candidate_scores
from robust_batches.distance import _check_pair
from robust_batches.partition import (
    EMPTY_SUBSET, BinSubset, Interval, IntervalPartition, IntervalUnion,
)


def binomial_variance(r: float, n: int) -> float:
    """Variance r(1-r)/n of the mean of n Bernoulli(r) draws."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"r must lie in [0, 1], got {r}")
    if n < 1:
        raise DomainError("n must be positive")
    return r * (1.0 - r) / n


def corruption_batch(counts, subset, med: float, params: CorruptionParams) -> float:
    """Corruption score of one batch, given as its row of bin counts: 0
    inside the tau-ball around ``med``, else the squared deviation.  The
    scalar reference for :func:`corruption_scores`."""
    if not 0.0 <= med <= 1.0:
        raise UsageError(f"median must lie in [0, 1], got {med}")
    row = np.asarray(counts, dtype=np.int64)
    idx = subset.indices0()
    if row.ndim != 1 or np.any(row < 0) or row.sum() < 1:
        raise UsageError("counts must be a 1-d row of nonnegative counts, not all zero")
    if idx.size and idx.max() >= row.size:
        raise UsageError("bin subset exceeds the batch's bin count")
    dev = int(row[idx].sum()) / int(row.sum()) - med
    if abs(dev) <= params.tau:
        return 0.0
    return dev * dev


@dataclass(frozen=True)
class PropertyCheckReport:
    """The worst error of each concentration property over the checked
    subsets, and the largest total corruption, with their bounds.  Every
    bound is the same for every subset, so the worst error decides."""

    median_error: float
    median_bound: float
    mean_error: float
    mean_bound: float
    msd_error: float
    msd_bound: float
    max_corruption: float
    kappa_g: float

    @property
    def all_ok(self) -> bool:
        return (
            self.median_error <= self.median_bound
            and self.mean_error <= self.mean_bound
            and self.msd_error <= self.msd_bound
            and self.max_corruption <= self.kappa_g
        )


def check_properties(
    good_sub: DiscretizedCollection,
    target: np.ndarray,
    subsets,
    params: CorruptionParams,
) -> PropertyCheckReport:
    """Check the three concentration properties of a good-only collection.

    Per subset S with true probability p(S): the median of the per-batch
    estimates must sit within sqrt(ln(6)/n) of p(S); the mean within
    (beta/2)*sqrt(ln(6e/beta)/n); the mean squared deviation within
    6*beta*ln(6e/beta)/n of the binomial variance; and the largest total
    corruption over the subsets must stay below kappa_g.

    Requires truth flags and refuses collections containing adversarial
    batches: the properties are claims about good batches only.
    """
    if good_sub.truth is None:
        raise UsageError("property checks need truth flags (simulation mode)")
    if any(t != GOOD for t in good_sub.truth):
        raise UsageError("property checks apply to good-only collections")
    target = np.asarray(target, dtype=float)
    if target.size != good_sub.ell:
        raise UsageError("target distribution must match the partition size")
    n = params.n
    med_bound = math.sqrt(math.log(6.0) / n)
    mean_bound = (params.beta / 2.0) * math.sqrt(params.log_term / n)
    msd_bound = 6.0 * params.beta * params.log_term / n
    worst = np.zeros(4)  # median, mean and msd errors, corruption total
    for subset in subsets:
        p_s = float(target[subset.indices0()].sum())
        mu = per_batch_probs(good_sub, subset)
        med = median(mu)
        msd = float(np.mean((mu - p_s) ** 2))
        row = (
            abs(med - p_s),
            abs(float(mu.mean()) - p_s),
            abs(msd - binomial_variance(p_s, n)),
            float(corruption_scores(mu, params.tau, med).sum()),
        )
        worst = np.maximum(worst, row)
    med_error, mean_error, msd_error, max_corruption = (float(v) for v in worst)
    return PropertyCheckReport(
        med_error, med_bound, mean_error, mean_bound, msd_error, msd_bound,
        max_corruption, params.kappa_g,
    )


_BRUTE_MAX_ELL = 20
_BRUTE_CHUNK = 2048


def max_corruption_subset_brute(
    sub: DiscretizedCollection, params: CorruptionParams
) -> tuple[BinSubset, float]:
    """Exact argmax of the corruption score over all 2^ell bin subsets.

    Ties go to the smallest bitmask, so an uncorrupted collection returns
    the empty subset.  Refused for ell > 20.
    """
    ell = sub.ell
    if ell > _BRUTE_MAX_ELL:
        raise UsageError(f"brute-force detection refused for ell > {_BRUTE_MAX_ELL}")
    best_score = 0.0
    best_mask = 0
    bit = np.arange(ell, dtype=np.uint32)
    for start in range(0, 1 << ell, _BRUTE_CHUNK):
        ints = np.arange(start, min(start + _BRUTE_CHUNK, 1 << ell), dtype=np.uint32)
        masks = (ints[:, None] >> bit) & 1
        scores = _candidate_scores(masks @ sub.counts.T, sub.n, params.tau)[1]
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_score = float(scores[i])
            best_mask = int(ints[i])
    members = frozenset(int(i) + 1 for i in range(ell) if best_mask >> i & 1)
    return (BinSubset(members) if members else EMPTY_SUBSET), best_score


def tv_distance(p, q) -> float:
    """Total-variation distance, half the L1 distance."""
    p, q = _check_pair(p, q)
    return 0.5 * float(np.abs(p - q).sum())


@lru_cache(maxsize=256)
def _k_run_unions(ell: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All unions of at most k runs in [ell], as tuples of 1-based (a, b) runs."""
    unions: list[tuple[tuple[int, int], ...]] = [()]

    def extend(prefix: tuple[tuple[int, int], ...], start: int, left: int) -> None:
        if left == 0:
            return
        for a in range(start, ell + 1):
            for b in range(a, ell + 1):
                cur = prefix + ((a, b),)
                unions.append(cur)
                extend(cur, b + 2, left - 1)

    extend((), 1, k)
    return tuple(unions)


def iter_k_run_subsets(ell: int, k: int):
    """Yield every subset of [ell] with at most k runs as a BinSubset."""
    for runs in _k_run_unions(ell, k):
        members = frozenset(i for a, b in runs for i in range(a, b + 1))
        yield BinSubset(members)


def fk_distance_brute(p, q, k: int) -> float:
    """Exhaustive oracle for :func:`fk_distance`; refuses ell > 20."""
    p, q = _check_pair(p, q)
    if k < 1:
        raise DomainError("k must be at least 1")
    ell = p.size
    if ell > 20:
        raise UsageError("brute-force distance refused for ell > 20")
    d = p - q
    prefix = np.concatenate(([0.0], np.cumsum(d)))
    best = 0.0
    for runs in _k_run_unions(ell, min(k, (ell + 1) // 2)):
        v = 0.0
        for a, b in runs:
            v += prefix[b] - prefix[a - 1]
        best = max(best, abs(v))
    return float(best)


def lift_subset(subset: BinSubset, partition: IntervalPartition) -> IntervalUnion:
    """The real-line union of the cells named by ``subset``, runs merged."""
    ell = partition.ell
    if subset.members and max(subset.members) > ell:
        raise UsageError(f"bin subset exceeds ell={ell}")
    intervals = []
    for a, b in subset.runs():
        lo = -math.inf if a == 1 else partition.boundaries[a - 2]
        hi = math.inf if b == ell else partition.boundaries[b - 1]
        intervals.append(Interval(lo, hi, lo_closed=False))
    return IntervalUnion(tuple(intervals))


def raw_batch_probs(coll, region: IntervalUnion) -> np.ndarray:
    """Empirical probability of ``region`` under each batch of the raw
    collection ``coll``: the count of each row's samples inside, over n.
    The raw-sample reference for :func:`per_batch_probs`."""
    return np.count_nonzero(region.contains(coll.samples), axis=1) / coll.n
