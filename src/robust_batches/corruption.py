"""Corruption scores and the randomized batch-deletion filter.

A batch's corruption score for a subset S is zero while its empirical
probability sits within tau of the cross-batch median, and the squared
deviation beyond that.  Collections of good batches keep their total
score under the budget kappa_g for every subset simultaneously, so any
subset whose score is a large multiple of kappa_g must owe most of it to
adversarial batches; deleting batches with probability proportional to
their scores therefore removes adversarial batches with high precision.

The sweep triggers deletion at TRIGGER_FACTOR*kappa_g and deletes down to
STOP_FACTOR*kappa_g.  Both factors are exposed because they are asymptotic
constants: at desk scale (small n) per-batch scores are capped at 1, which
can sit below trigger*ln(6e/beta)/n, and the factors must then be scaled
down for the filter to engage at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CorruptionParams,
    DiscretizedCollection,
    UsageError,
    median,
    per_batch_probs,
)

TRIGGER_FACTOR = 25.0
STOP_FACTOR = 20.0


def corruption_scores(mu: np.ndarray, tau: float, med) -> np.ndarray:
    """Per-batch corruption scores of subset masses, the one scoring rule
    that spectral detection, the filter and :func:`corruption_collection`
    share.

    ``mu`` holds per-batch masses and ``med`` the medians they are scored
    against, in any shapes that broadcast, in the unit of ``tau``
    (detection passes counts and tau*n).  A batch scores zero while it sits
    within ``tau`` of ``med`` and the squared deviation beyond that.
    """
    dev = mu - med
    return np.where(np.abs(dev) <= tau, 0.0, dev * dev)


def median_prob(sub, subset) -> float:
    """Median of the per-batch empirical probabilities of ``subset``.

    For an even batch count this is the average of the two middle order
    statistics.
    """
    mu = per_batch_probs(sub, subset)
    return median(mu)


@dataclass(frozen=True)
class CorruptionReport:
    """Per-batch and total corruption scores of a sub-collection for one subset."""

    subset: frozenset[int]
    median: float
    per_batch_scores: dict[int, float]
    total: float

    def to_dict(self) -> dict:
        return {
            "subset": sorted(self.subset),
            "median": self.median,
            # [id, score] pairs: a JSON object would re-sort ids as strings
            "per_batch_scores": [[k, v] for k, v in sorted(self.per_batch_scores.items())],
            "total": self.total,
        }


def corruption_collection(sub, subset, params: CorruptionParams) -> CorruptionReport:
    """Score every batch of ``sub`` against the sub-collection's own median."""
    mu = per_batch_probs(sub, subset)
    med = median(mu)
    scores = corruption_scores(mu, params.tau, med)
    per_batch = {int(i): float(s) for i, s in zip(sub.ids, scores)}
    return CorruptionReport(
        subset=subset.members,
        median=med,
        per_batch_scores=per_batch,
        total=float(scores.sum()),
    )


def batch_deletion(
    sub: DiscretizedCollection,
    subset,
    med: float,
    params: CorruptionParams,
    rng: np.random.Generator,
    stop_factor: float = STOP_FACTOR,
) -> DiscretizedCollection:
    """Randomized filter: delete batches with probability proportional to
    their corruption scores, without replacement, until the surviving total
    drops below stop_factor*kappa_g.

    ``med`` is frozen, so the scores are fixed.  Sorting the batches that
    score above zero by keys E_i/score_i, E_i standard exponential, orders
    them by exactly that law (Efraimidis & Spirakis, *Weighted random
    sampling with a reservoir*, IPL 2006).  One draw thus fixes every
    deletion: batches go in key order while the surviving total, a suffix
    sum in that order, still reaches the threshold.  Zero-score batches
    are never deleted.
    """
    if not 0.0 <= med <= 1.0:
        raise UsageError(f"median must lie in [0, 1], got {med}")
    threshold = stop_factor * params.kappa_g
    if not threshold > 0.0:  # also a positive stop_factor that underflows
        raise UsageError(f"stop_factor must be positive, got {stop_factor}")
    scores = corruption_scores(per_batch_probs(sub, subset), params.tau, med)
    scoring = np.flatnonzero(scores > 0.0)
    keys = rng.standard_exponential(scoring.size) / scores[scoring]
    order = scoring[np.argsort(keys, kind="stable")]
    surviving = np.cumsum(scores[order][::-1])[::-1]  # total before each deletion
    alive = np.ones(sub.m, dtype=bool)
    alive[order[surviving >= threshold]] = False
    if not alive.any():
        raise UsageError(
            "batch deletion removed every batch; thresholds are inconsistent with the data"
        )
    return sub.subset(alive)
