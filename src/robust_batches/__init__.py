"""Robust learning of one-dimensional distributions and interval
classifiers from collections of sample batches, a fraction of which may be
adversarial."""

__version__ = "0.1.0"

from .classify import (
    KIntervalHypothesis,
    LabeledCollection,
    erm_k_intervals,
    risk,
    robust_classify,
)
from .clean import CleaningReport, clean_pipeline
from .core import (
    BatchCollection,
    CorruptionParams,
    DiscretizedCollection,
    DomainError,
    UsageError,
)
from .corruption import (
    CorruptionReport,
    batch_deletion,
    corruption_collection,
    median_prob,
)
from .detect import max_corruption_subset_heuristic
from .distance import fk_distance
from .estimate import PiecewisePolynomial, evaluate_density, fit_piecewise
from .partition import (
    BinSubset,
    Interval,
    IntervalPartition,
    IntervalUnion,
    build_partition,
    choose_ell,
    discretize,
)
from .simulate import build_collection, parse_attack, parse_target
