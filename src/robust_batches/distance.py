"""Distances between discrete distributions over bins.

The headline metric is the largest probability discrepancy over unions of
at most k index-intervals.  One dynamic program, :func:`union_tables`,
finds the best union of at most k runs of a signed vector: k running-
maximum passes over its prefix sums, O(ell*k) in all.  F_k reads its
value on d = p - q and on -d, the witnesses are walked back from its
tables, and interval ERM (``classify``) runs it on the label-count
differences.  A combinatorial enumeration doubles as a test oracle.

Every run's sum is a difference of prefix sums, as in the enumeration
oracle, so on inputs whose entries are exactly representable (e.g. dyadic
rationals) the two agree bit-for-bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import DomainError, UsageError
from .partition import BinSubset, EMPTY_SUBSET


def _check_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    pair = []
    for name, v in (("p", p), ("q", q)):
        v = np.asarray(v, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DomainError(f"{name} must be a nonempty 1-d vector")
        if np.any(v < -1e-12):
            raise DomainError(f"{name} has negative entries")
        if abs(float(v.sum()) - 1.0) > 1e-9:
            raise DomainError(f"{name} must sum to 1 (got {float(v.sum())!r})")
        pair.append(v)
    if pair[0].size != pair[1].size:
        raise DomainError("p and q must have the same length")
    return pair[0], pair[1]


def union_tables(d, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Best sums of d over unions of runs, per prefix and run count.

    ``out[j, i]`` / ``ins[j, i]`` is the largest sum of d over the first i
    entries with exactly j runs, the i-th entry outside / inside the last
    run (-inf when no such union exists).  Layer j is one running maximum
    over the prefix sums of d.  The best union of at most k runs has sum
    ``max(out[:, -1].max(), ins[:, -1].max())``.  No union of runs has
    more than (d.size + 1) // 2 of them, so a larger k is clamped to that.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    d = np.asarray(d, dtype=float)
    k = min(k, (d.size + 1) // 2)
    prefix = np.zeros(d.size + 1)
    np.cumsum(d, out=prefix[1:])
    out = np.full((k + 1, d.size + 1), -np.inf)
    ins = np.full((k + 1, d.size + 1), -np.inf)
    out[0] = 0.0
    for j in range(1, k + 1):  # each layer is computed in its own table row
        row = ins[j, 1:]
        np.subtract(out[j - 1, :-1], prefix[:-1], out=row)
        np.maximum.accumulate(row, out=row)
        row += prefix[1:]
        np.maximum.accumulate(ins[j, :-1], out=out[j, 1:])
    return out, ins


def _table_max(out: np.ndarray, ins: np.ndarray) -> float:
    return float(max(out[:, -1].max(), ins[:, -1].max()))


def _extract_witness(d, k: int, opt: float, out: np.ndarray) -> frozenset[int]:
    """Maximizing union with the smallest bitmask (high bins dropped first).

    Scans bins from the top, excluding a bin whenever some maximizer avoids
    it; feasibility is read off the ``out`` table of :func:`union_tables`.
    Mixing prefix and suffix partial sums costs a few ulps, hence the
    tolerance.
    """
    tol = 1e-10 * max(1.0, float(np.abs(d).sum()))
    members: list[int] = []
    j_suf = 0  # interval runs fully decided above the scan point
    v_suf = 0.0
    bottom_open = False  # True when bin c+1 was included
    for c in range(d.size, 0, -1):
        if out[: k - j_suf + 1, c].max() + v_suf >= opt - tol:
            bottom_open = False
            continue
        members.append(c)
        v_suf += float(d[c - 1])
        if not bottom_open:
            j_suf += 1
        bottom_open = True
    return frozenset(members)


def max_sum_k_interval_union(d, k: int) -> tuple[float, BinSubset]:
    """Largest sum(d over S) over unions S of <= k index-intervals, with the
    smallest-bitmask witness.

    Signed: the max of sum(d over S) itself, never of -d.  Useful when the
    caller cares which side of a zero-sum difference the witness lies on
    (the absolute maximizer ties with its complement).
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise DomainError("d must be a nonempty 1-d vector")
    out, ins = union_tables(d, k)
    opt = _table_max(out, ins)
    witness = _extract_witness(d, k, opt, out)
    return opt, (BinSubset(witness) if witness else EMPTY_SUBSET)


def fk_distance(p, q, k: int) -> float:
    """Max discrepancy |p(S) - q(S)| over unions S of at most k bin intervals."""
    p, q = _check_pair(p, q)
    d = p - q
    return max(_table_max(*union_tables(d, k)), _table_max(*union_tables(-d, k)))


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


def tv_distance(p, q) -> float:
    """Total-variation distance, half the L1 distance."""
    p, q = _check_pair(p, q)
    return 0.5 * float(np.abs(p - q).sum())
