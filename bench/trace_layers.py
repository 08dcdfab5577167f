"""Spans around the public functions of each robust_batches module.

The tracer replaces a public function, in every loaded ``robust_batches``
module that holds a reference to it, with a wrapper that records a span
(name, parent span, start, end) and the layer's work counts.  Nothing in
``src/`` is changed; ``installed()`` puts the originals back on exit.  A
traced name that no longer exists is recorded in ``missing`` and its
metrics read zero, so the benchmark keeps running when the package is
reorganised.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (module, public function, span name).  ``core`` is reached only through
# the others, and ``cli`` is timed as a fresh-interpreter import instead.
LAYERS = (
    ("simulate", "build_collection", "simulate.build_collection"),
    ("io", "write_batches", "io.write_batches"),
    ("io", "read_batches", "io.read_batches"),
    ("partition", "build_partition", "partition.build_partition"),
    ("partition", "discretize", "partition.discretize"),
    ("detect", "max_corruption_subset_heuristic", "detect.spectral"),
    ("corruption", "batch_deletion", "corruption.batch_deletion"),
    ("distance", "fk_distance", "distance.fk_distance"),
    ("estimate", "fit_piecewise", "estimate.fit_piecewise"),
    ("estimate", "evaluate_density", "estimate.evaluate_density"),
    ("classify", "erm_k_intervals", "classify.erm_k_intervals"),
    ("clean", "clean_pipeline", "clean.clean_pipeline"),
    ("classify", "robust_classify", "classify.robust_classify"),
)

# Parent spans reported as self time: their duration minus their child spans.
SELF_TIME = {
    "clean.clean_pipeline": "clean.self_s",
    "classify.robust_classify": "classify.self_s",
}


def _count_partition(counts, args, kwargs, result):
    counts["partition.ell"] += result.ell


def _count_detect(counts, args, kwargs, result):
    counts["detect.calls"] += 1


def _count_deletion(counts, args, kwargs, result):
    before = args[0] if args else kwargs["sub"]
    kept = set(result.ids)
    deleted = [i for i, bid in enumerate(before.ids) if bid not in kept]
    counts["corruption.deleted"] += len(deleted)
    if before.truth is not None:
        counts["corruption.deleted_adversarial"] += sum(
            before.truth[i] != "good" for i in deleted
        )


def _count_erm(counts, args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    counts["classify.erm_positions"] += int(np.unique(np.asarray(x, dtype=float)).size)


COUNTERS = {
    "partition.build_partition": _count_partition,
    "detect.spectral": _count_detect,
    "corruption.batch_deletion": _count_deletion,
    "classify.erm_k_intervals": _count_erm,
}

COUNT_METRICS = ("partition.ell", "detect.calls", "corruption.deleted", "classify.erm_positions")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(module: str, name: str):
    try:
        mod = importlib.import_module(f"robust_batches.{module}")
    except ImportError:
        return None
    fn = getattr(mod, name, None)
    return fn if callable(fn) else None


class Tracer:
    """Spans and counts of one traced pass through the pipeline."""

    def __init__(self, trace_id: int) -> None:
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(Span(name, self._stack[-1] if self._stack else None, 0.0))
            self._stack.append(index)
            self.spans[index].start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index].end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced function that exists; restore them on exit."""
        patched = []
        try:
            for module, attr, name in LAYERS:
                fn = _resolve(module, attr)
                if fn is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                wrapper = self._wrap(name, fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or mod_name.partition(".")[0] != "robust_batches":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, fn))
            yield self
        finally:
            for mod, key, fn in reversed(patched):
                setattr(mod, key, fn)

    def metrics(self) -> dict[str, float]:
        """Per-layer busy time (summed over calls), self times and counts."""
        out = {f"{name}_s": 0.0 for _, _, name in LAYERS if name not in SELF_TIME}
        out.update({metric: 0.0 for metric in SELF_TIME.values()})
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.duration
        for span, child_time in zip(self.spans, children):
            if span.name in SELF_TIME:
                out[SELF_TIME[span.name]] += span.duration - child_time
            else:
                out[f"{span.name}_s"] += span.duration
        for metric in COUNT_METRICS:
            out[metric] = int(self.counts[metric])
        deleted = self.counts["corruption.deleted"]
        out["corruption.deletion_precision"] = (
            self.counts["corruption.deleted_adversarial"] / deleted if deleted else 0.0
        )
        return out

    def to_records(self) -> list[dict]:
        return [
            {"trace_id": self.trace_id, "span": i, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end}
            for i, s in enumerate(self.spans)
        ]
