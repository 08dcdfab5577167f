"""Batched sample collections and their empirical measures.

A collection holds m batches of n samples each.  Every batch induces an
empirical measure; sub-collections induce the mean of their batches'
measures.  All probabilities are multiples of 1/n: counting is done in
integers and division happens last, so equality tests inside the deletion
loops are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GOOD = "good"
ADVERSARIAL = "adversarial"

BETA_MAX = 0.4


class UsageError(ValueError):
    """A caller violated an operation's contract."""


class DomainError(ValueError):
    """A parameter lies outside its mathematical domain."""


@dataclass(frozen=True)
class Batch:
    """One batch of raw real-valued samples."""

    id: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise UsageError(f"batch {self.id}: samples must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise UsageError(f"batch {self.id}: samples contain NaN or infinity")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class Collection:
    """m batches of n samples each, with optional ground-truth flags.

    The shared base of raw and labeled collections: ``batches`` are
    :class:`Batch` or labeled batches, anything with an ``id`` and an
    ``n``.  ``truth`` is simulation-only metadata: one of ``"good"`` or
    ``"adversarial"`` per batch, in batch order.
    """

    batches: tuple
    truth: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "batches", tuple(self.batches))
        if len(self.batches) < 1:
            raise UsageError("a collection needs at least one batch")
        n = self.batches[0].n
        for b in self.batches:
            if b.n != n:
                raise UsageError(f"batch {b.id} has {b.n} samples, expected {n}")
        ids = [b.id for b in self.batches]
        if len(set(ids)) != len(ids):
            raise UsageError("batch ids must be unique")
        if self.truth is not None:
            object.__setattr__(self, "truth", tuple(self.truth))
            if len(self.truth) != len(self.batches):
                raise UsageError("truth flags must match the number of batches")
            bad = set(self.truth) - {GOOD, ADVERSARIAL}
            if bad:
                raise UsageError(f"unknown truth flags: {sorted(bad)}")

    @property
    def m(self) -> int:
        return len(self.batches)

    @property
    def n(self) -> int:
        return self.batches[0].n

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.batches)

    def good_ids(self) -> frozenset[int]:
        if self.truth is None:
            raise UsageError("collection carries no truth flags")
        return frozenset(b.id for b, t in zip(self.batches, self.truth) if t == GOOD)

    def retention_good(self, kept_ids) -> float | None:
        """Fraction of the good batches among ``kept_ids``; None without
        truth flags or good batches."""
        if self.truth is None:
            return None
        good = self.good_ids()
        return len(good & set(kept_ids)) / len(good) if good else None

    def subset(self, keep_ids):
        """The batches whose ids are in ``keep_ids``, in collection order."""
        keep = frozenset(keep_ids)
        idx = [i for i, b in enumerate(self.batches) if b.id in keep]
        if not idx:
            raise UsageError("subset would be empty")
        truth = tuple(self.truth[i] for i in idx) if self.truth is not None else None
        return type(self)(tuple(self.batches[i] for i in idx), truth)


@dataclass(frozen=True)
class BatchCollection(Collection):
    """A collection of raw real-valued batches."""

    def pooled_samples(self) -> np.ndarray:
        """All s = n*m samples, sorted non-decreasing."""
        return np.sort(np.concatenate([b.samples for b in self.batches]))


@dataclass(frozen=True)
class DiscretizedBatch:
    """Per-bin sample counts of one batch under an interval partition."""

    id: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.counts, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise UsageError(f"batch {self.id}: counts must be a nonempty 1-d array")
        if np.any(arr < 0):
            raise UsageError(f"batch {self.id}: counts must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def ell(self) -> int:
        return int(self.counts.size)


@dataclass(frozen=True)
class DiscretizedCollection:
    """A collection of batches reduced to bin counts over a shared partition."""

    counts: np.ndarray  # shape (m, ell), row sums all equal n
    ids: tuple[int, ...]
    n: int
    truth: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.counts, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise UsageError("counts must be a nonempty (m, ell) array")
        if np.any(arr < 0):
            raise UsageError("counts must be nonnegative")
        if not np.all(arr.sum(axis=1) == self.n):
            raise UsageError(f"every batch's counts must sum to n={self.n}")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "ids", tuple(self.ids))
        if len(self.ids) != arr.shape[0]:
            raise UsageError("ids must match the number of rows")
        if self.truth is not None:
            object.__setattr__(self, "truth", tuple(self.truth))
            if len(self.truth) != arr.shape[0]:
                raise UsageError("truth flags must match the number of batches")

    @property
    def m(self) -> int:
        return int(self.counts.shape[0])

    @property
    def ell(self) -> int:
        return int(self.counts.shape[1])

    def batch(self, i: int) -> DiscretizedBatch:
        return DiscretizedBatch(self.ids[i], self.counts[i])

    def probs(self) -> np.ndarray:
        """Per-batch empirical bin probabilities, shape (m, ell)."""
        return self.counts / self.n

    def pooled(self) -> np.ndarray:
        """Pooled empirical distribution over bins (sums to 1)."""
        return self.counts.sum(axis=0) / (self.m * self.n)

    def subset(self, keep) -> "DiscretizedCollection":
        """Restrict to batches selected by a boolean mask or an id iterable."""
        mask = np.asarray(keep)
        if mask.dtype != bool:
            keep_set = frozenset(keep)
            mask = np.array([i in keep_set for i in self.ids])
        if mask.shape != (self.m,):
            raise UsageError("mask length must equal m")
        if not mask.any():
            raise UsageError("subset would be empty")
        ids = tuple(i for i, k in zip(self.ids, mask) if k)
        truth = (
            tuple(t for t, k in zip(self.truth, mask) if k)
            if self.truth is not None
            else None
        )
        return DiscretizedCollection(self.counts[mask], ids, self.n, truth)


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

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "n": self.n,
            "m": self.m,
            "tau": self.tau,
            "kappa_g": self.kappa_g,
        }


def empirical_prob(batch, subset) -> float:
    """Empirical probability a batch assigns to a subset of the line.

    Raw batches pair with interval unions, discretized batches with bin
    subsets; mixing representations is a usage error.  The result is the
    count of samples inside divided by n.
    """
    if isinstance(batch, Batch):
        if not hasattr(subset, "contains"):
            raise UsageError("raw batches require an interval-union subset")
        inside = subset.contains(batch.samples)
        return int(np.count_nonzero(inside)) / batch.n
    if isinstance(batch, DiscretizedBatch):
        if not hasattr(subset, "members"):
            raise UsageError("discretized batches require a bin subset")
        idx = subset.indices0()
        if idx.size and idx.max() >= batch.ell:
            raise UsageError("bin subset exceeds the batch's bin count")
        return int(batch.counts[idx].sum()) / batch.n
    raise UsageError(f"unsupported batch type {type(batch).__name__}")


def per_batch_probs(sub, subset) -> np.ndarray:
    """Vector of empirical probabilities of ``subset``, one entry per batch."""
    if isinstance(sub, DiscretizedCollection):
        idx = subset.indices0()
        if idx.size and idx.max() >= sub.ell:
            raise UsageError("bin subset exceeds the collection's bin count")
        return sub.counts[:, idx].sum(axis=1) / sub.n
    if isinstance(sub, BatchCollection):
        return np.array([empirical_prob(b, subset) for b in sub.batches])
    raise UsageError(f"unsupported collection type {type(sub).__name__}")


def binomial_variance(r: float, n: int) -> float:
    """Variance r(1-r)/n of the mean of n Bernoulli(r) draws."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"r must lie in [0, 1], got {r}")
    if n < 1:
        raise DomainError("n must be positive")
    return r * (1.0 - r) / n

