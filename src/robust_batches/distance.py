"""Distances between discrete distributions over bins.

The headline metric is the largest probability discrepancy over unions of
at most k index-intervals, computed by an O(ell*k) dynamic program over
(position, intervals-used, inside/outside) states, run once on d = p - q
and once on -d.  The same forward DP gives the value and, through its
per-position tables, the maximizing union.  A combinatorial enumeration
doubles as a test oracle.

The DP accumulates each candidate union's sum left-to-right, so on inputs
whose entries are exactly representable (e.g. dyadic rationals) it agrees
bit-for-bit with the enumeration oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import DomainError, UsageError
from .partition import BinSubset, EMPTY_SUBSET

_NEG = -math.inf


def _check_distribution(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-d vector")
    if np.any(p < -1e-12):
        raise DomainError(f"{name} has negative entries")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise DomainError(f"{name} must sum to 1 (got {float(p.sum())!r})")
    return p


def _forward_tables(d, k: int) -> tuple[float, list, list]:
    """Best union sum of d (>= 0), with the per-position tables that
    witness extraction reads."""
    ell = len(d)
    outs = [[0.0] + [_NEG] * k]
    ins = [[_NEG] * (k + 1)]
    for di in d:
        di = float(di)
        f_out, f_in = outs[-1], ins[-1]
        new_out = [max(a, b) for a, b in zip(f_out, f_in)]
        new_in = [_NEG] * (k + 1)
        for j in range(1, k + 1):
            prev = f_in[j] if f_in[j] >= f_out[j - 1] else f_out[j - 1]
            if prev != _NEG:
                new_in[j] = prev + di
        outs.append(new_out)
        ins.append(new_in)
    opt = max(max(outs[ell]), max(ins[ell]))
    return opt, outs, ins


def _extract_witness(d, k: int, opt: float, outs, ins) -> frozenset[int]:
    """Maximizing union with the smallest bitmask (high bins dropped first).

    Scans bins from the top, excluding a bin whenever some maximizer avoids
    it; feasibility is read off the forward tables.  Mixing forward and
    suffix partial sums costs a few ulps, hence the tolerance.
    """
    ell = len(d)
    tol = 1e-10 * max(1.0, float(np.abs(np.asarray(d, dtype=float)).sum()))
    members: list[int] = []
    j_suf = 0  # interval runs fully decided above the scan point
    v_suf = 0.0
    bottom_open = False  # True when bin c+1 was included
    for c in range(ell, 0, -1):
        budget = k - j_suf
        exclude_best = _NEG
        for j in range(0, budget + 1):
            exclude_best = max(exclude_best, outs[c][j])
        if exclude_best + v_suf >= opt - tol:
            bottom_open = False
            continue
        members.append(c)
        v_suf += float(d[c - 1])
        if not bottom_open:
            j_suf += 1
        bottom_open = True
    return frozenset(members)


def max_sum_k_interval_union(d, k: int) -> tuple[float, BinSubset]:
    """Signed variant: max of sum(d over S) itself, never of -d.

    Useful when the caller cares which side of a zero-sum difference the
    witness lies on (the absolute maximizer ties with its complement).
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise DomainError("d must be a nonempty 1-d vector")
    if k < 1:
        raise DomainError("k must be at least 1")
    opt, outs, ins = _forward_tables(d, k)
    witness = _extract_witness(d, k, opt, outs, ins)
    return opt, (BinSubset(witness) if witness else EMPTY_SUBSET)


def best_k_interval_union(d, k: int) -> tuple[float, BinSubset]:
    """Largest |sum over a union of <= k index-intervals| of d, with witness.

    Returns the absolute value and the achieving bin subset; ties between
    witnesses are broken toward the smallest bitmask, so the all-zero
    vector yields the empty subset.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise DomainError("d must be a nonempty 1-d vector")
    if k < 1:
        raise DomainError("k must be at least 1")
    opt_pos, outs_p, ins_p = _forward_tables(d, k)
    opt_neg, outs_n, ins_n = _forward_tables(-d, k)
    if opt_pos > opt_neg:
        witness = _extract_witness(d, k, opt_pos, outs_p, ins_p)
    elif opt_neg > opt_pos:
        witness = _extract_witness(-d, k, opt_neg, outs_n, ins_n)
    else:
        w1 = _extract_witness(d, k, opt_pos, outs_p, ins_p)
        w2 = _extract_witness(-d, k, opt_neg, outs_n, ins_n)
        witness = min(w1, w2, key=lambda w: sum(1 << i for i in w))
    value = max(opt_pos, opt_neg)
    return value, (BinSubset(witness) if witness else EMPTY_SUBSET)


def fk_distance(p, q, k: int) -> float:
    """Max discrepancy |p(S) - q(S)| over unions S of at most k bin intervals."""
    p = _check_distribution(p, "p")
    q = _check_distribution(q, "q")
    if p.size != q.size:
        raise DomainError("p and q must have the same length")
    if k < 1:
        raise DomainError("k must be at least 1")
    d = p - q
    return max(_forward_tables(d, k)[0], _forward_tables(-d, k)[0])


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
    p = _check_distribution(p, "p")
    q = _check_distribution(q, "q")
    if p.size != q.size:
        raise DomainError("p and q must have the same length")
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
    p = _check_distribution(p, "p")
    q = _check_distribution(q, "q")
    if p.size != q.size:
        raise DomainError("p and q must have the same length")
    return 0.5 * float(np.abs(p - q).sum())
