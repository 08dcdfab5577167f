"""Distances between discrete distributions over bins.

The headline metric is the largest probability discrepancy over unions of
at most k index-intervals.  One layer recurrence, :func:`union_layers`,
finds the best union of at most k runs of a signed vector: k running-
maximum passes over its prefix sums, O(ell*k) time in three reused rows.
Each caller keeps what it reads: F_k the last entry of each layer on
d = p - q and on -d, and interval ERM (``classify``) two boolean masks per
layer over the label-count differences.

Every run's sum is a difference of prefix sums, so on inputs whose
entries are exactly representable (e.g. dyadic rationals) F_k agrees
bit-for-bit with an enumeration of every union.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError


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


def union_layers(d, k: int):
    """Best sums of d over unions of runs, one run count at a time.

    ``out[j][i]`` / ``ins[j][i]`` is the largest sum of d over the first i
    entries with exactly j runs, the i-th entry outside / inside the last
    run (-inf when no such union exists); ``out[0]`` is all zeros.  Layer j
    is one running maximum over the prefix sums of d; its rows ``(out[j-1],
    ins[j], out[j])`` are yielded in buffers the next layer reuses.  No union
    has more than (d.size + 1) // 2 runs, so a larger k is clamped to that.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    prefix = np.concatenate(([0.0], np.cumsum(d, dtype=float)))
    del d  # the prefix sums are all the layers read
    prev, ins, out = np.zeros(prefix.size), np.full(prefix.size, -np.inf), np.empty(prefix.size)
    for _ in range(min(k, prefix.size // 2)):
        np.subtract(prev[:-1], prefix[:-1], out=ins[1:])
        np.maximum.accumulate(ins[1:], out=ins[1:])
        ins[1:] += prefix[1:]
        out[0] = -np.inf
        np.maximum.accumulate(ins[:-1], out=out[1:])
        yield prev, ins, out
        prev, out = out, prev


def _best_union_sum(d, k: int) -> float:
    """Largest sum of d over unions of at most k runs, from each layer's
    last entries."""
    out_ends, in_ends = [0.0], [-np.inf]
    for _, ins, out in union_layers(d, k):
        out_ends.append(out[-1])
        in_ends.append(ins[-1])
    return float(max(np.max(out_ends), np.max(in_ends)))


def fk_distance(p, q, k: int) -> float:
    """Max discrepancy |p(S) - q(S)| over unions S of at most k bin intervals."""
    p, q = _check_pair(p, q)
    d = p - q
    return max(_best_union_sum(d, k), _best_union_sum(-d, k))
