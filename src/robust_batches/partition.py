"""Data-driven interval partitions and bin-subset geometry.

The ell-cell partition places boundaries at every Delta-th pooled order
statistic, Delta = ceil(s/ell), so each cell holds at most Delta of the s
points.  Cells are left-open/right-closed: (-inf, c1], (c1, c2], ...,
(c_{ell-1}, inf).  :func:`discretize` cuts it from one sort of a
collection's pooled samples and counts every batch in it; a labeled
collection gets one partition per label slice, their cells side by side.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BETA_MAX, LABELS, DiscretizedCollection, DomainError, LabeledCollection, UsageError,
)

_CEIL_SLACK = 1e-9  # guards ceil() against float noise on exact integers
_COUNT_BLOCK = 1 << 16  # cells and values per block of IntervalPartition.counts


@dataclass(frozen=True)
class Interval:
    """A real interval with explicit endpoint closedness."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise UsageError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise UsageError(f"empty interval ({self.lo}, {self.hi})")
        if math.isinf(self.lo) and self.lo_closed:
            object.__setattr__(self, "lo_closed", False)
        if math.isinf(self.hi) and self.hi_closed:
            object.__setattr__(self, "hi_closed", False)


@dataclass(frozen=True)
class IntervalUnion:
    """A sorted union of pairwise-disjoint intervals (possibly empty)."""

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", tuple(self.intervals))
        # empty intervals are skipped: each other is compared with the last nonempty one
        held = [iv for iv in self.intervals if iv.lo < iv.hi or (iv.lo_closed and iv.hi_closed)]
        for a, b in zip(held, held[1:]):
            if b.lo < a.hi or (b.lo == a.hi and (a.hi_closed and b.lo_closed)):
                raise UsageError("intervals must be sorted and disjoint")

    @property
    def k(self) -> int:
        return len(self.intervals)

    def contains(self, x) -> np.ndarray:
        """Elementwise membership of x, as a boolean array of its shape.

        Two such arrays are held: the result, and one buffer that each
        interval reuses for the x past its lower end and in no earlier
        interval; the upper-end comparison is written into the result
        there, with ``where=``."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=bool)
        new = np.empty_like(out)
        for iv in self.intervals:
            (np.greater_equal if iv.lo_closed else np.greater)(x, iv.lo, out=new)
            np.greater(new, out, out=new)  # and not already inside
            (np.less_equal if iv.hi_closed else np.less)(x, iv.hi, out=out, where=new)
        return out


@dataclass(frozen=True)
class BinSubset:
    """A subset D of the bin indices {1, ..., ell} (1-based)."""

    members: frozenset[int]

    def __post_init__(self) -> None:
        members = frozenset(int(i) for i in self.members)
        if any(i < 1 for i in members):
            raise UsageError("bin indices are 1-based")
        object.__setattr__(self, "members", members)

    @classmethod
    def of(cls, *indices: int) -> "BinSubset":
        return cls(frozenset(indices))

    def indices0(self) -> np.ndarray:
        """Sorted 0-based index array."""
        return np.array(sorted(self.members), dtype=np.int64) - 1

    def as_mask(self, ell: int) -> np.ndarray:
        if self.members and max(self.members) > ell:
            raise UsageError(f"bin subset exceeds ell={ell}")
        mask = np.zeros(ell, dtype=bool)
        mask[self.indices0()] = True
        return mask

    def runs(self) -> list[tuple[int, int]]:
        """Maximal runs of consecutive members as 1-based (start, end) pairs."""
        out: list[tuple[int, int]] = []
        for i in sorted(self.members):
            if out and i == out[-1][1] + 1:
                out[-1] = (out[-1][0], i)
            else:
                out.append((i, i))
        return out

    def bitmask(self) -> int:
        return sum(1 << (i - 1) for i in self.members)


EMPTY_SUBSET = BinSubset(frozenset())


@dataclass(frozen=True)
class IntervalPartition:
    """ell cells of the real line cut at strictly increasing boundaries.

    ``source_token`` fingerprints the pooled samples the partition was built
    from, so a cleaning report can be matched to its batch file.
    """

    boundaries: tuple[float, ...]
    source_token: str | None = None

    def __post_init__(self) -> None:
        bnd = tuple(float(b) for b in self.boundaries)
        if any(math.isnan(b) or math.isinf(b) for b in bnd):
            raise UsageError("boundaries must be finite")
        if any(a >= b for a, b in zip(bnd, bnd[1:])):
            raise UsageError("boundaries must be strictly increasing")
        object.__setattr__(self, "boundaries", bnd)

    @property
    def ell(self) -> int:
        return len(self.boundaries) + 1

    def bin_of(self, x) -> np.ndarray:
        """0-based cell index of each value (cells are (c_{j-1}, c_j])."""
        x = np.asarray(x, dtype=float)
        return np.searchsorted(np.asarray(self.boundaries), x, side="left")

    def counts(self, x, keep=None) -> np.ndarray:
        """(m, ell) table of how many values of each row of the (m, n) array
        ``x`` fall in each cell, counting only where the same-shape boolean
        array ``keep`` is true, if given.  A cell holds at most n, so the
        table is in ``np.min_scalar_type(n)``, one byte per cell for n <= 255.
        It is filled by one bincount per block of rows, each block spanning
        at most _COUNT_BLOCK cells and values (or one row), so no (m, ell) or
        (m, n) int64 array is made."""
        x = np.asarray(x, dtype=float)
        (m, n), bnd, ell = x.shape, np.asarray(self.boundaries), self.ell
        out = np.empty((m, ell), dtype=np.min_scalar_type(n))
        step = max(1, _COUNT_BLOCK // max(ell, n))
        for r in range(0, m, step):
            block, xb = out[r : r + step], x[r : r + step]
            offsets = ell * np.arange(len(block))  # of each row's cells in the block
            if keep is None:
                flat = (np.searchsorted(bnd, xb) + offsets[:, None]).ravel()
            else:  # search only the kept values
                kb = keep[r : r + step]
                flat = np.searchsorted(bnd, xb[kb]) + offsets.repeat(kb.sum(axis=1))
            block[...] = np.bincount(flat, minlength=block.size).reshape(block.shape)
        return out

    def to_dict(self) -> dict:
        out = {"ell": self.ell, "boundaries": list(self.boundaries)}
        if self.source_token is not None:
            out["source_token"] = self.source_token
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "IntervalPartition":
        part = cls(tuple(d["boundaries"]), d.get("source_token"))
        if "ell" in d and int(d["ell"]) != part.ell:
            raise UsageError("ell does not match the number of boundaries")
        return part


@dataclass(frozen=True)
class LabeledPartition:
    """One partition per label in LABELS (None for a label no batch holds),
    their cells numbered slice after slice; ``source_token`` covers both."""

    parts: tuple[IntervalPartition | None, ...]

    @property
    def ell(self) -> int:
        return sum(part.ell for part in self.parts if part is not None)

    @property
    def source_token(self) -> str:
        tokens = " ".join(part.source_token if part else "-" for part in self.parts)
        return hashlib.sha256(tokens.encode()).hexdigest()[:16]


def _samples_token(sorted_samples: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(sorted_samples)).hexdigest()[:16]


def choose_ell(k: int, n: int, beta: float, m: int) -> int:
    """Partition size ell = ceil(2k*sqrt(n)/beta), clamped to the sample
    count n*m (which also bounds the infinite value of a subnormal beta)."""
    if k < 1:
        raise DomainError("k must be at least 1")
    if n < 1:
        raise DomainError("n must be positive")
    if not 0.0 < beta <= BETA_MAX:
        raise DomainError(f"beta must lie in (0, {BETA_MAX}], got {beta}")
    try:
        ell = min(2.0 * k * math.sqrt(n) / beta, n * m)
    except OverflowError:
        raise DomainError("k is too large for a float") from None
    return max(math.ceil(ell - _CEIL_SLACK), 1)


def build_partition(all_samples: np.ndarray, ell: int) -> IntervalPartition:
    """Cut the sorted pooled samples into ``ell`` cells of at most Delta points.

    Boundaries sit at the Delta-th, 2*Delta-th, ... order statistics with
    Delta = ceil(s/ell).  Runs of identical boundary values are collapsed,
    so under heavy ties the realized cell count can drop below ell and a
    cell can exceed Delta points; the cleaning report records the realized
    maximum occupancy.
    """
    x = np.asarray(all_samples, dtype=float)
    if x.ndim != 1:
        raise UsageError("samples must be 1-d")
    s = x.size
    if ell < 1:
        raise DomainError("ell must be at least 1")
    if s < ell:
        raise UsageError(f"need at least ell={ell} samples, got {s}")
    if not np.all(x[1:] >= x[:-1]):  # NaN fails too
        raise UsageError("samples must be sorted non-decreasing")
    delta = math.ceil(s / ell)
    vals = x[np.minimum(np.arange(1, ell) * delta, s) - 1]
    # the first of each run of equal cut values, by a mask (no sort: -0.0 keeps its sign)
    boundaries = vals[np.append(True, vals[1:] > vals[:-1])] if vals.size else vals
    return IntervalPartition(tuple(boundaries.tolist()), _samples_token(x))


def cut_partition(collection, ell: int) -> IntervalPartition | LabeledPartition:
    """The ``ell``-cell partition of ``collection``'s pooled samples, from
    one sort of them.  A labeled collection gets a LabeledPartition: per
    label slice, the partition of its x values (ell cells, clamped to the
    slice size; none for an empty slice)."""
    if not isinstance(collection, LabeledCollection):
        return build_partition(collection.pooled_samples(), ell)
    parts = []
    for label in LABELS:
        x = collection.x[collection.y == label]
        x.sort()  # the mask made a copy, so it sorts in place
        parts.append(build_partition(x, min(ell, x.size)) if x.size else None)
    return LabeledPartition(tuple(parts))


def count_cells(partition, collection) -> DiscretizedCollection:
    """Every batch of ``collection`` as its counts in the cells of
    ``partition``; a label slice counts in its own partition."""
    if isinstance(partition, LabeledPartition):
        table = np.concatenate([
            part.counts(collection.x, collection.y == label)
            for label, part in zip(LABELS, partition.parts) if part is not None
        ], axis=1)
    else:
        table = partition.counts(collection.samples)
    return DiscretizedCollection(table, collection.ids, collection.n, collection.truth)


def discretize(collection, ell: int) -> tuple:
    """The (partition, count table) pair: :func:`cut_partition`, then
    :func:`count_cells` in it."""
    partition = cut_partition(collection, ell)
    return partition, count_cells(partition, collection)
