"""Binary classification with k-interval decision regions.

The empirical risk minimizer over hypotheses whose positive region is a
union of at most k intervals is exact: its loss is W1 - sum_inside(w1 - w0)
over the sorted distinct sample positions, so it reads the interval-union
tables of ``distance`` (the F_k kernel) on w1 - w0 and walks them back.
The robust variant first cleans the batches over a per-label discretized
product domain, then runs the ERM on the surviving samples.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .clean import clean_counts, prepare_cleaning
from .core import (
    LABELS, DiscretizedCollection, DomainError, LabeledCollection, UsageError, labels_ok,
)
from .corruption import STOP_FACTOR, TRIGGER_FACTOR
from .distance import union_tables
from .partition import Interval, IntervalUnion, build_partition


@dataclass(frozen=True)
class KIntervalHypothesis:
    """Classifier mapping a union of at most k intervals to label 1."""

    decision_region: IntervalUnion

    @property
    def k(self) -> int:
        return self.decision_region.k

    def predict(self, x) -> np.ndarray:
        return self.decision_region.contains(x).astype(np.int64)


def _labeled_samples(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x as float and y as given, checked: matching nonempty 1-d arrays,
    finite x and labels 0 or 1."""
    x, y = np.asarray(x, dtype=float), np.asarray(y)
    if x.ndim != 1 or x.size == 0 or y.shape != x.shape:
        raise UsageError("x and y must be matching nonempty 1-d arrays")
    if not np.all(np.isfinite(x)):
        raise UsageError("x contains NaN or infinity")
    if not labels_ok(y):
        raise UsageError("labels must be 0 or 1")
    return x, y


def risk(h: KIntervalHypothesis, x, y) -> float:
    """Misclassification rate of ``h`` on labeled samples."""
    x, y = _labeled_samples(x, y)
    wrong = np.count_nonzero(h.predict(x) != y)
    # the sum of the wrong samples' 1/s weights, as the pairwise sum of
    # that many equal terms, not wrong/s
    return float(np.full(wrong, 1.0 / x.size).sum())


def _group_by_position(x: np.ndarray, y: np.ndarray):
    """Distinct positions, sorted, and at each the label-count difference
    w1 - w0 (tied x values must be classified together)."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.empty(xs.size, dtype=bool)
    first[0] = True
    np.not_equal(xs[1:], xs[:-1], out=first[1:])
    start = np.flatnonzero(first)
    sign = y[order].astype(float)  # label 1 counts +1, label 0 counts -1
    sign *= 2
    sign -= 1
    return xs[start], np.add.reduceat(sign, start)


def erm_k_intervals(x, y, k: int) -> KIntervalHypothesis:
    """Exact loss minimizer over k-interval decision regions.

    The loss is W1 - sum_inside(w1 - w0), so the region is the best union
    of the per-position label-count differences w1 - w0:
    :func:`distance.union_tables` over the s distinct sample positions, k
    numpy passes of O(s) each, plus at most 2k+1 vector searches to recover
    the region; endpoints land at midpoints between consecutive distinct x
    values (the outermost runs extend to the infinities).  Ties prefer
    fewer intervals.  The losses are exact integers.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    pos, d = _group_by_position(*_labeled_samples(x, y))
    g = pos.size
    out, ins = union_tables(d, k)
    # first maximum in (j, outside before inside) order: fewer intervals win
    best = int(np.argmax(np.stack([out[:, g], ins[:, g]], axis=1)))
    j, inside = divmod(best, 2)
    # Walk back one run per step; ties keep the current state (staying out
    # beats closing, continuing beats opening).
    intervals = []
    i = g
    while i > 0 and (inside or j > 0):
        if inside:
            t = int(np.flatnonzero(ins[j, :i] < out[j - 1, :i])[-1])
            lo = -math.inf if t == 0 else 0.5 * (pos[t - 1] + pos[t])
            hi = math.inf if i == g else 0.5 * (pos[i - 1] + pos[i])
            intervals.append(Interval(lo, hi))
            j -= 1
        else:
            t = int(np.flatnonzero(out[j, :i] < ins[j, :i])[-1])
        i, inside = t, not inside
    return KIntervalHypothesis(IntervalUnion(tuple(intervals[::-1])))


@dataclass(frozen=True)
class ClassifyReport:
    """Cleaning and risk summary of a robust classification run."""

    retained_ids: tuple[int, ...]
    k: int
    beta: float
    ell_label0: int
    ell_label1: int
    rounds: int
    train_risk: float
    retention_good: float | None = None
    risk_vs_target: float | None = None
    excess_risk: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _label_slice_counts(collection: LabeledCollection, ell: int):
    """Per label in LABELS: the partition of that label's pooled x values
    (ell cells, clamped to the slice size; None for an empty slice) and the
    (m, cells) table of each batch's counts in it."""
    out = []
    for label in LABELS:
        sel = collection.y == label
        if not sel.any():
            # the counts' own dtype, so concatenating the slices keeps it
            out.append((None, np.zeros((collection.m, 0), np.min_scalar_type(collection.n))))
            continue
        x = collection.x[sel]
        x.sort()
        part = build_partition(x, min(ell, x.size))
        out.append((part, part.counts(collection.x, sel)))
    return out


def robust_classify(
    collection: LabeledCollection,
    k: int,
    beta: float,
    rng: np.random.Generator,
    trigger_factor: float = TRIGGER_FACTOR,
    stop_factor: float = STOP_FACTOR,
    reference=None,
) -> tuple[KIntervalHypothesis, ClassifyReport]:
    """Clean labeled batches over a per-label discretization, then run ERM.

    Each label slice gets its own data-driven partition (ell bins, clamped
    to the slice size); a batch's feature vector is the concatenation of
    its per-label bin counts, and cleaning runs over all subsets of that
    product domain.  ``reference`` (simulation mode) must expose
    ``risk_of(hypothesis)`` and ``optimal_risk()`` for the excess-risk
    entries of the report.
    """
    ell, params = prepare_cleaning(collection, k, beta)
    (_, counts0), (_, counts1) = _label_slice_counts(collection, ell)
    counts = np.concatenate([counts0, counts1], axis=1)
    disc = DiscretizedCollection(counts, collection.ids, collection.n, collection.truth)
    _, retained, rounds = clean_counts(
        collection, disc, beta, params, rng, trigger_factor, stop_factor
    )
    x, y = retained.pooled()
    hypothesis = erm_k_intervals(x, y, k)
    train = risk(hypothesis, x, y)
    risk_target = excess = None
    if reference is not None:
        risk_target = float(reference.risk_of(hypothesis))
        excess = risk_target - float(reference.optimal_risk())
    report = ClassifyReport(
        retained_ids=retained.ids,
        k=k,
        beta=beta,
        ell_label0=counts0.shape[1],
        ell_label1=counts1.shape[1],
        rounds=rounds,
        train_risk=train,
        retention_good=collection.retention_good(retained.ids),
        risk_vs_target=risk_target,
        excess_risk=excess,
    )
    return hypothesis, report
