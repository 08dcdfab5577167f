"""Batched sample collections and their empirical measures.

A collection holds m batches of n samples each, as the rows of (m, n)
arrays (one for raw samples, an x and a y array for labeled ones), or of
an (m, ell) count table once discretized, stored in the narrowest unsigned
dtype that holds n.  Every batch
induces an empirical measure; sub-collections induce the mean of their
batches' measures.  All probabilities are multiples of 1/n: counting is done in
integers and division happens last, so equality tests inside the deletion
loops are reproducible.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass

import numpy as np

GOOD = "good"
ADVERSARIAL = "adversarial"

BETA_MAX = 0.4

LABELS = (0, 1)


class UsageError(ValueError):
    """A caller violated an operation's contract."""


class DomainError(ValueError):
    """A parameter lies outside its mathematical domain."""


def median(values) -> float:
    """np.median of a 1-d array, without the numpy.ma import it makes."""
    lo, hi = (len(values) - 1) // 2, len(values) // 2
    part = np.partition(values, (lo, hi))
    return float(0.5 * (part[lo] + part[hi]))


def sorted_unique(values) -> np.ndarray:
    """np.unique of an array, without the numpy.ma import it makes."""
    v = np.sort(np.asarray(values), axis=None)
    return v[np.append(True, v[1:] != v[:-1])] if v.size else v


def uniforms(rngs, *shape: int) -> np.ndarray:
    """One ``random(shape)`` draw per generator, stacked in their order."""
    out = np.empty((len(rngs), *shape))
    for rng, row in zip(rngs, out):
        rng.random(out=row)
    return out


def check_labeled(x: np.ndarray, y: np.ndarray) -> None:
    """Refuse labeled samples unless every x is finite and every label in
    the array ``y`` is 0 or 1 (LABELS), tested in y's own dtype: a cast to
    integers would truncate 1.5 to 1."""
    if not np.all(np.isfinite(x)):
        raise UsageError("x contains NaN or infinity")
    if not (y.dtype.kind in "biuf" and ((y == 0) | (y == 1)).all()):
        raise UsageError("labels must be 0 or 1")


def row_array(values, dtype, what: str) -> np.ndarray:
    """A private copy of ``values`` as a 2-d array with at least one column,
    one row per batch; anything else is a usage error naming ``what``."""
    try:
        arr = np.array(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{what} must be a 2-d array: {exc}") from exc
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise UsageError(f"{what} must be a 2-d array with one row per batch, not {arr.shape}")
    return arr


class Collection:
    """m batches as the rows of read-only arrays, with one id per row.

    The shared base of the raw, labeled and discretized collections; each
    names its ``(m, ...)`` row arrays in ``ROWS``.  ``ids`` are unique
    integers, and ``truth`` is simulation-only metadata: one of ``"good"``
    or ``"adversarial"`` per batch, in row order.
    """

    ROWS: tuple[str, ...] = ()

    def _freeze(self, **rows: np.ndarray) -> None:
        """Store the row arrays read-only; check ids and truth against them."""
        m = len(next(iter(rows.values())))
        if m < 1:
            raise UsageError("a collection needs at least one batch")
        for name, arr in rows.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        try:
            ids = tuple(operator.index(i) for i in self.ids)
        except TypeError as exc:
            raise UsageError(f"batch ids must be integers: {exc}") from exc
        if len(ids) != m:
            raise UsageError("ids must match the number of batches")
        if len(set(ids)) != m:
            raise UsageError("batch ids must be unique")
        object.__setattr__(self, "ids", ids)
        if self.truth is not None:
            object.__setattr__(self, "truth", tuple(self.truth))
            if len(self.truth) != m:
                raise UsageError("truth flags must match the number of batches")
            bad = set(self.truth) - {GOOD, ADVERSARIAL}
            if bad:
                raise UsageError(f"unknown truth flags: {sorted(bad)}")

    @property
    def m(self) -> int:
        return len(self.ids)

    def retention_good(self, kept_ids) -> float | None:
        """Fraction of the good batches among ``kept_ids``; None without
        truth flags or good batches."""
        if self.truth is None:
            return None
        good = {i for i, t in zip(self.ids, self.truth) if t == GOOD}
        return len(good & set(kept_ids)) / len(good) if good else None

    def subset(self, keep):
        """The batches selected by the boolean mask ``keep`` (one entry per
        batch), in collection order.  The mask copies each row array once;
        those rows were checked when this collection was built, so they
        are frozen as they are, and only ids and truth are checked again."""
        mask = np.asarray(keep)
        if mask.dtype != bool or mask.shape != (self.m,):
            raise UsageError("subset needs a boolean mask with one entry per batch")
        if not mask.any():
            raise UsageError("subset would be empty")
        idx = np.flatnonzero(mask)
        out = copy.copy(self)
        truth = None if self.truth is None else [self.truth[i] for i in idx]
        object.__setattr__(out, "ids", [self.ids[i] for i in idx])
        object.__setattr__(out, "truth", truth)
        out._freeze(**{name: getattr(self, name)[mask] for name in self.ROWS})
        return out


@dataclass(frozen=True)
class BatchCollection(Collection):
    """m batches of n real-valued samples, the rows of ``samples``."""

    samples: np.ndarray  # shape (m, n)
    ids: tuple[int, ...]
    truth: tuple[str, ...] | None = None
    ROWS = ("samples",)

    def __post_init__(self) -> None:
        arr = row_array(self.samples, np.float64, "samples")
        if not np.all(np.isfinite(arr)):
            raise UsageError("samples contain NaN or infinity")
        self._freeze(samples=arr)

    @property
    def n(self) -> int:
        return int(self.samples.shape[1])

    def pooled_samples(self) -> np.ndarray:
        """All s = n*m samples, sorted non-decreasing."""
        return np.sort(self.samples, axis=None)


@dataclass(frozen=True)
class DiscretizedCollection(Collection):
    """m batches reduced to bin counts over a shared partition, given as an
    integer table and stored in ``np.min_scalar_type(n)``, the narrowest
    dtype that holds a full cell: one byte per cell for n <= 255."""

    counts: np.ndarray  # shape (m, ell), row sums all equal n
    ids: tuple[int, ...]
    n: int
    truth: tuple[str, ...] | None = None
    ROWS = ("counts",)

    def __post_init__(self) -> None:
        cell = np.min_scalar_type(self.n)
        if cell.kind != "u" or self.n < 1:
            raise UsageError(f"n must be a positive integer, got {self.n!r}")
        arr = row_array(self.counts, None, "counts")
        # checked in the table's own dtype: a cast would truncate 1.5 to 1
        if arr.dtype.kind not in "iu":
            raise UsageError(f"counts must be integers, not {arr.dtype}")
        if arr.min(initial=0) < 0:
            raise UsageError("counts must be nonnegative")
        if arr.max(initial=0) > self.n or not np.all(arr.sum(axis=1) == self.n):
            raise UsageError(f"every batch's counts must sum to n={self.n}")
        self._freeze(counts=arr.astype(cell, copy=False))

    @property
    def ell(self) -> int:
        return int(self.counts.shape[1])

    def probs(self) -> np.ndarray:
        """Per-batch empirical bin probabilities, shape (m, ell)."""
        return self.counts / self.n

    def pooled(self) -> np.ndarray:
        """Pooled empirical distribution over bins (sums to 1)."""
        return self.counts.sum(axis=0) / (self.m * self.n)


@dataclass(frozen=True)
class LabeledCollection(Collection):
    """m batches of n labeled samples: the rows of ``x`` and of ``y`` in
    LABELS, stored in uint8, one byte per label."""

    x: np.ndarray  # shape (m, n)
    y: np.ndarray  # shape (m, n)
    ids: tuple[int, ...]
    truth: tuple[str, ...] | None = None
    ROWS = ("x", "y")

    def __post_init__(self) -> None:
        x = row_array(self.x, np.float64, "x")
        y = row_array(self.y, None, "y")
        if y.shape != x.shape:
            raise UsageError("x and y must have the same shape")
        check_labeled(x, y)
        self._freeze(x=x, y=y.astype(np.uint8, copy=False))

    @property
    def n(self) -> int:
        return int(self.x.shape[1])

    def pooled(self) -> tuple[np.ndarray, np.ndarray]:
        """All n*m samples in batch order, as flat x and y arrays."""
        return self.x.ravel(), self.y.ravel()


@dataclass(frozen=True)
class CorruptionParams:
    """Contamination level and the thresholds derived from it.

    ``tau`` is the deviation radius inside which a batch scores zero,
    3*sqrt(ln(6e/beta)/n); ``kappa_g`` is the corruption budget that a
    collection of good batches respects, beta*m*ln(6e/beta)/n.
    """

    beta: float
    n: int
    m: int

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= BETA_MAX:
            raise DomainError(f"beta must lie in (0, {BETA_MAX}], got {self.beta}")
        if self.n < 1 or self.m < 1:
            raise DomainError("n and m must be positive")

    @property
    def log_term(self) -> float:
        return math.log(6.0 * math.e / self.beta)

    @property
    def tau(self) -> float:
        return 3.0 * math.sqrt(self.log_term / self.n)

    @property
    def kappa_g(self) -> float:
        return self.beta * self.m * self.log_term / self.n


def per_batch_probs(sub, subset) -> np.ndarray:
    """Empirical probability of the bin subset ``subset`` under each batch
    of the discretized collection ``sub``, one entry per row: a sum of count
    columns divided by n.  Any other collection or subset is a usage error.
    """
    if isinstance(sub, DiscretizedCollection):
        if not hasattr(subset, "members"):
            raise UsageError("discretized collections require a bin subset")
        idx = subset.indices0()
        if idx.size and idx.max() >= sub.ell:
            raise UsageError("bin subset exceeds the collection's bin count")
        return sub.counts[:, idx].sum(axis=1) / sub.n
    raise UsageError(f"unsupported collection type {type(sub).__name__}")
