"""End-to-end cleaning pipeline: partition, discretize, detect-and-delete.

Given a contaminated collection, the pipeline sizes the partition from
(k, n, beta), cuts it on the pooled samples, discretizes every batch, and
runs the detect-and-delete loop.  The retained sub-collection's pooled
empirical distribution is the estimator; in simulation mode the report
scores it against the known target before and after cleaning.  The
checks on beta and m, the partition size and the thresholds come from one
preparation step, :func:`prepare_cleaning`.  The deletion is one
delete-and-retain step, :func:`clean_counts`: it holds the detect-and-delete
loop (the filter of Jain & Orlitsky, 2020), the ``0 < stop <= trigger``
rule and one exit for a run in which no round ran.  Robust classification
runs the same pipeline on a labeled collection, whose partition has one
slice per label, and simulation-mode scoring shares :func:`reference_fk`.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    BETA_MAX, BatchCollection, CorruptionParams, DiscretizedCollection, DomainError,
    LabeledCollection, UsageError,
)
from .corruption import STOP_FACTOR, TRIGGER_FACTOR, batch_deletion, median_prob
from .detect import GramWorkspace, max_corruption_subset_heuristic
from .distance import fk_distance
from .partition import IntervalPartition, LabeledPartition, choose_ell, discretize

# Partition sizing needs beta > 0; an uncontaminated run still needs bins.
ELL_BETA_FLOOR = 0.1

DEFAULT_DELTA = 0.1


@dataclass(frozen=True)
class CleaningReport:
    """Everything a cleaning run decided and measured.

    ``ell`` is the count table's width (both label slices' cells, when
    labeled).  ``source_token`` is the partition's fingerprint of the pooled
    samples, so a report can be matched to the batch file it was written for.
    """

    retained_ids: tuple[int, ...]
    ell: int
    k: int
    beta: float
    tau: float
    kappa_g: float
    rounds: int
    max_cell_occupancy: int
    source_token: str
    fk_before: float | None = None
    fk_after: float | None = None
    retention_good: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CleanPipelineResult:
    """Full pipeline state: the retained batches, the report and the
    intermediate artifacts."""

    retained: BatchCollection | LabeledCollection
    report: CleaningReport
    partition: IntervalPartition | LabeledPartition
    discretized: DiscretizedCollection
    cleaned: DiscretizedCollection


def guidance_batches(k: int, n: int, beta: float) -> float:
    """Batch-count guidance (k*log(n/beta) + log(1/delta)) * sqrt(n) / beta^3
    at delta = DEFAULT_DELTA; infinite once beta^3 underflows."""
    with np.errstate(divide="ignore", over="ignore"):
        return (k * np.log(n / beta) + np.log(1.0 / DEFAULT_DELTA)) * np.sqrt(n) / beta**3


def prepare_cleaning(collection, k: int, beta: float) -> tuple[int, CorruptionParams]:
    """Check beta and m, size the partition and derive the thresholds.

    Returns the partition size ell and the corruption parameters.  ``beta
    = 0`` declares the collection uncontaminated: both are sized with
    ELL_BETA_FLOOR in place of beta, and callers run no deletion.  A k and
    beta with no finite batch-count guidance are refused.  It warns about
    nothing: :func:`clean_pipeline` warns when m falls below the guidance.
    """
    if not 0.0 <= beta <= BETA_MAX:
        raise DomainError(
            f"beta={beta} refused: the cleaning guarantees assume 0 <= beta <= {BETA_MAX}"
        )
    if collection.m < 2:
        raise UsageError("cleaning needs at least two batches")
    n, m = collection.n, collection.m
    sizing_beta = beta if beta > 0.0 else ELL_BETA_FLOOR
    ell = choose_ell(k, n, sizing_beta, m)
    if beta > 0.0 and not np.isfinite(guidance_batches(k, n, beta)):
        raise DomainError(f"k={k}, beta={beta} refused: no finite batch-count guidance")
    return ell, CorruptionParams(sizing_beta, n, m)


def clean_counts(
    collection, disc: DiscretizedCollection, beta: float, params: CorruptionParams,
    rng: np.random.Generator, trigger_factor: float, stop_factor: float,
):
    """Delete-and-retain on ``disc``, the count table of ``collection``.

    While the spectral detector's best subset scores at least
    trigger_factor*kappa_g, the cross-batch median is recomputed on the
    surviving counts and batch deletion runs down to stop_factor*kappa_g.
    Every round's detector builds its Gram matrix in one workspace,
    allocated for ``disc`` and freed when the loop ends.  Returns the
    surviving counts, the batches whose ids survive and the round count;
    when no round runs, as always at ``beta = 0`` (uncontaminated), these
    are ``disc``, ``collection`` and 0."""
    if not 0.0 < stop_factor <= trigger_factor:
        raise UsageError("need 0 < stop_factor <= trigger_factor")
    sub, rounds = disc, 0
    workspace = GramWorkspace(*disc.counts.shape, disc.n)
    while beta > 0.0:
        subset, score = max_corruption_subset_heuristic(sub, params, workspace)
        if score < trigger_factor * params.kappa_g or not subset.members:
            break
        sub = batch_deletion(sub, subset, median_prob(sub, subset), params, rng, stop_factor)
        rounds += 1
    del workspace  # freed before the retained batches are copied
    if not rounds:
        return disc, collection, 0
    return sub, collection.subset(np.isin(collection.ids, sub.ids)), rounds


def reference_fk(disc, kept, reference, partition, k: int) -> tuple[float, float]:
    """F_k distances from the pooled counts of ``disc`` (before cleaning)
    and of ``kept`` (after) to the density ``reference``'s masses on the
    cells of ``partition``."""
    ref = reference.bin_masses(partition)
    return float(fk_distance(disc.pooled(), ref, k)), float(fk_distance(kept.pooled(), ref, k))


def clean_pipeline(
    collection: BatchCollection | LabeledCollection,
    k: int,
    beta: float,
    rng: np.random.Generator,
    trigger_factor: float = TRIGGER_FACTOR,
    stop_factor: float = STOP_FACTOR,
    reference=None,
) -> CleanPipelineResult:
    """Run the full cleaning pipeline and keep the intermediate artifacts.

    ``beta = 0`` declares the collection uncontaminated: the partition is
    still built (sized with a floor of ELL_BETA_FLOOR in place of beta) but
    no deletion runs.  A labeled collection is cleaned over its per-label
    product domain (see :func:`partition.cut_partition`).  ``reference``
    (simulation mode) is a density target, scored by :func:`reference_fk`.
    Below the batch-count guidance the error bound may not hold, which is
    reported as a UserWarning.
    """
    ell, params = prepare_cleaning(collection, k, beta)
    if beta > 0.0 and collection.m < (guide := guidance_batches(k, collection.n, beta)):
        warnings.warn(
            f"m={collection.m} batches is below the sample-size guidance {guide:.0f} "
            f"for k={k}, n={collection.n}, beta={beta}; the error bound may not hold",
            stacklevel=2,
        )
    partition, disc = discretize(collection, ell)
    cleaned, retained, rounds = clean_counts(
        collection, disc, beta, params, rng, trigger_factor, stop_factor
    )
    fk_before, fk_after = (
        (None, None) if reference is None else reference_fk(disc, cleaned, reference, partition, k)
    )
    report = CleaningReport(
        retained_ids=cleaned.ids,
        ell=disc.ell,
        k=k,
        beta=beta,
        tau=params.tau if beta > 0.0 else 0.0,
        kappa_g=params.kappa_g if beta > 0.0 else 0.0,
        rounds=rounds,
        max_cell_occupancy=int(disc.counts.sum(axis=0).max()),
        source_token=partition.source_token,
        fk_before=fk_before,
        fk_after=fk_after,
        retention_good=collection.retention_good(cleaned.ids),
    )
    return CleanPipelineResult(retained, report, partition, disc, cleaned)
