"""Binary classification with k-interval decision regions.

The empirical risk minimizer over hypotheses whose positive region is a
union of at most k intervals is exact: its loss is W1 - sum_inside(w1 - w0)
over the sorted distinct sample positions, so it runs the interval-union
layers of ``distance`` (the F_k kernel) on w1 - w0 summed over sign runs,
keeps two boolean masks per layer (2k bytes per sign run) and walks back.
The robust variant first cleans the batches with the cleaning pipeline,
over a per-label discretized product domain, then runs the ERM on the
surviving samples.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .clean import CleaningReport, clean_pipeline
from .core import LabeledCollection, UsageError, check_labeled
from .corruption import STOP_FACTOR, TRIGGER_FACTOR
from .distance import union_layers
from .partition import Interval, IntervalUnion


@dataclass(frozen=True)
class KIntervalHypothesis:
    """Classifier mapping a union of at most k intervals to label 1."""

    decision_region: IntervalUnion

    @property
    def k(self) -> int:
        return self.decision_region.k

    def predict(self, x) -> np.ndarray:
        return self.decision_region.contains(x).astype(np.int64)

    @classmethod
    def of_runs(cls, pos, runs) -> "KIntervalHypothesis":
        """Closed intervals that hold the sorted distinct positions ``pos[start:end]``
        of each (start, end) run and no other: a cut is the midpoint of its two
        neighbours where that lies strictly between them, else the inside one."""
        def cut(inside: int, outside: int) -> float:
            near, far = float(pos[inside]), float(pos[outside])  # overflow: inf, no warning
            mid = 0.5 * (near + far)
            return mid if min(near, far) < mid < max(near, far) else near

        return cls(IntervalUnion(tuple(
            Interval(cut(s, s - 1) if s else -math.inf, cut(e - 1, e) if e < len(pos) else math.inf)
            for s, e in runs
        )))


def _labeled_samples(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x as float and y as given, checked: matching nonempty 1-d arrays,
    finite x and labels 0 or 1."""
    x, y = np.asarray(x, dtype=float), np.asarray(y)
    if x.ndim != 1 or x.size == 0 or y.shape != x.shape:
        raise UsageError("x and y must be matching nonempty 1-d arrays")
    check_labeled(x, y)
    return x, y


def risk(h: KIntervalHypothesis, x, y) -> float:
    """Misclassification rate of ``h`` on labeled samples."""
    x, y = _labeled_samples(x, y)
    wrong = np.count_nonzero(h.decision_region.contains(x) != y)
    # the sum of the wrong samples' 1/s weights, as the pairwise sum of
    # that many equal terms, not wrong/s; a zero-stride view holds one term
    return float(np.broadcast_to(1.0 / x.size, wrong).sum())


def _count_dtype(size: int):
    """int32 for counts over fewer than 2^31 samples, else int64."""
    return np.int32 if size < 2**31 else np.int64


def _tallies(v, count):
    """Sorted distinct values of v and their counts, in ``count``."""
    v = np.sort(v)
    last = np.empty(v.size, bool)
    last[-1:] = True
    np.not_equal(v[1:], v[:-1], out=last[:-1])
    v = v[last]
    tally = np.arange(1, last.size + 1, dtype=count)[last]
    tally[1:] -= tally[:-1]
    return v, tally


def _group_by_position(x: np.ndarray, y: np.ndarray):
    """Distinct positions, sorted, and at each the label-count difference
    w1 - w0 in :func:`_count_dtype` (tied x values must be classified
    together).  A group of zeros is represented by its first sample, as a
    stable sort would."""
    count = _count_dtype(x.size)
    pos, d = _tallies(x, count)
    ones, w1 = _tallies(x[y == 1], count)
    at = np.searchsorted(pos, ones)  # sorted queries search fastest
    del ones
    d[at] -= w1  # group sizes less the 1-labels: w0
    np.negative(d, out=d)
    d[at] += w1
    pos[pos == 0.0] = x[np.argmax(x == 0.0)]
    return pos, d


def erm_k_intervals(x, y, k: int) -> KIntervalHypothesis:
    """Exact loss minimizer over k-interval decision regions.

    The loss is W1 - sum_inside(w1 - w0), so the region is the best union
    of the per-position label-count differences w1 - w0.  No best union
    opens or closes a run inside a run of one strict sign (Ruzzo & Tompa
    1999), so :func:`distance.union_layers` runs over the r sign-run sums
    and zeros, k numpy passes of O(r) each keeping two boolean masks per
    layer, plus at most 2k+1 mask searches to recover the region; endpoints
    land at midpoints between consecutive distinct x values (the outermost
    runs extend to the infinities).  Ties prefer fewer intervals, as over
    the positions.
    """
    pos, d = _group_by_position(*_labeled_samples(x, y))
    up, down = d > 0, d < 0
    edge = np.ones(d.size + 1, bool)  # edge[i]: a sign run ends before pos[i]
    edge[1:-1] = ~(up[1:] & up[:-1] | down[1:] & down[:-1])
    del up, down
    d = np.add.reduceat(d, np.flatnonzero(edge[:-1]), dtype=d.dtype)
    # sign run e spans pos ends[2e] to ends[2e + 1]
    ends = np.empty(2 * d.size)
    ends[0::2] = pos[edge[:-1]]
    ends[1::2] = pos[edge[1:]]
    del pos, edge
    r = d.size
    layers = union_layers(d, k)
    del d  # the layers keep only its prefix sums
    # per layer j: where a best union ending inside opened its run there
    # (ins[j] < out[j-1]), and where one ending outside closed it (out[j] < ins[j])
    opens, closes, out_ends, in_ends = [], [], [0.0], [-np.inf]
    for prev, ins, out in layers:
        opens.append(ins < prev)
        closes.append(out < ins)
        out_ends.append(out[r])
        in_ends.append(ins[r])
    # first maximum in (j, outside before inside) order: fewer intervals win
    best = int(np.argmax(np.stack([out_ends, in_ends], axis=1)))
    j, inside = divmod(best, 2)
    # Walk back one run per step to the last switch before i; ties keep the
    # current state (staying out beats closing, continuing beats opening).
    runs, i = [], r
    while i > 0 and (inside or j > 0):
        switched = (opens if inside else closes)[j - 1]
        t = i - 1 - int(np.argmax(switched[i - 1 :: -1]))
        if inside:
            runs.append((2 * t, 2 * i))
            j -= 1
        i, inside = t, not inside
    return KIntervalHypothesis.of_runs(ends, runs[::-1])


@dataclass(frozen=True)
class ClassifyReport:
    """A robust classification run: its cleaning record and its risks."""

    cleaning: CleaningReport
    train_risk: float
    risk_vs_target: float | None = None
    excess_risk: float | None = None

    def to_dict(self) -> dict:
        """The report's ``cleaning`` section, and its ``classification``
        section: the risks beside the cleaning's ``retention_good``."""
        out = asdict(self)
        out["retention_good"] = self.cleaning.retention_good
        return {"cleaning": out.pop("cleaning"), "classification": out}


def robust_classify(
    collection: LabeledCollection,
    k: int,
    beta: float,
    rng: np.random.Generator,
    trigger_factor: float = TRIGGER_FACTOR,
    stop_factor: float = STOP_FACTOR,
    reference=None,
) -> tuple[KIntervalHypothesis, ClassifyReport]:
    """Clean labeled batches with :func:`clean.clean_pipeline`, over the
    per-label product domain of :func:`partition.cut_partition`, then run
    ERM on the surviving samples.  ``reference`` (simulation mode) must
    expose ``risk_of(hypothesis)`` and ``optimal_risk()`` for the
    excess-risk entries of the report.  Only the retained samples and the
    cleaning report outlive the cleaning: its count tables are freed before
    ERM allocates.
    """
    result = clean_pipeline(collection, k, beta, rng, trigger_factor, stop_factor)
    (x, y), report = result.retained.pooled(), result.report
    del result
    hypothesis = erm_k_intervals(x, y, k)
    risk_target = excess = None
    if reference is not None:
        risk_target = float(reference.risk_of(hypothesis))
        excess = risk_target - float(reference.optimal_risk())
    return hypothesis, ClassifyReport(report, risk(hypothesis, x, y), risk_target, excess)
