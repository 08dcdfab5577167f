"""Batch files (JSON lines) and report files (canonical JSON).

A batch file starts with a header line {"n": int, "m": int, "labeled":
bool} followed by one object per batch: {"id": int, "samples": [...],
"truth": "good"|"adversarial"} where samples are floats, or [x, y] pairs
for labeled collections.  NaN or infinite values are a hard error.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .classify import LabeledBatch, LabeledCollection
from .core import Batch, BatchCollection, UsageError


class FileFormatError(UsageError):
    """A batch or report file violates the documented schema."""


def _reject_constant(name: str):
    raise FileFormatError(f"non-finite JSON value {name!r} is not allowed")


def _loads(line: str, path, lineno: int) -> dict:
    try:
        obj = json.loads(line, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}:{lineno}: expected a JSON object")
    return obj


def write_batches(collection, path) -> None:
    labeled = isinstance(collection, LabeledCollection)
    path = Path(path)
    with path.open("w") as fh:
        header = {"n": collection.n, "m": collection.m, "labeled": labeled}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for i, b in enumerate(collection.batches):
            if labeled:
                samples = [[float(x), int(y)] for x, y in zip(b.x, b.y)]
            else:
                samples = [float(x) for x in b.samples]
            row: dict = {"id": b.id, "samples": samples}
            if collection.truth is not None:
                row["truth"] = collection.truth[i]
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_batches(path):
    """Load a batch file; returns a BatchCollection or LabeledCollection."""
    path = Path(path)
    with path.open() as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError(f"{path}: empty file")
    header = _loads(lines[0], path, 1)
    for field in ("n", "m"):
        if field not in header:
            raise FileFormatError(f"{path}:1: header is missing {field!r}")
    try:
        n, m = int(header["n"]), int(header["m"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{path}:1: n and m must be integers: {exc}") from exc
    labeled = bool(header.get("labeled", False))
    rows = [ln for ln in lines[1:] if ln.strip()]
    if len(rows) != m:
        raise FileFormatError(f"{path}: header says m={m} but found {len(rows)} batches")
    batches = []
    truth: list[str] = []
    for lineno, line in enumerate(rows, start=2):
        obj = _loads(line, path, lineno)
        for field in ("id", "samples"):
            if field not in obj:
                raise FileFormatError(f"{path}:{lineno}: batch is missing {field!r}")
        samples = obj["samples"]
        if not isinstance(samples, list):
            raise FileFormatError(f"{path}:{lineno}: samples must be a list")
        if len(samples) != n:
            raise FileFormatError(
                f"{path}:{lineno}: batch {obj['id']} has {len(samples)} samples, expected n={n}"
            )
        try:
            if labeled:
                x = np.array([s[0] for s in samples], dtype=float)
                y = np.array([s[1] for s in samples])
                batches.append(LabeledBatch(int(obj["id"]), x, y))
            else:
                batches.append(Batch(int(obj["id"]), np.array(samples, dtype=float)))
        except UsageError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        except (TypeError, IndexError, KeyError, ValueError, OverflowError) as exc:
            raise FileFormatError(f"{path}:{lineno}: malformed samples: {exc}") from exc
        if "truth" in obj:
            truth.append(str(obj["truth"]))
    if truth and len(truth) != len(batches):
        raise FileFormatError(f"{path}: truth flags must be present on all batches or none")
    try:
        if labeled:
            return LabeledCollection(tuple(batches), tuple(truth) if truth else None)
        return BatchCollection(tuple(batches), tuple(truth) if truth else None)
    except UsageError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _sanitize(obj):
    """JSON-ready copy: numpy scalars unwrapped, non-finite floats rejected."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        raise UsageError("reports must not contain non-finite numbers")
    return obj


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, fixed separators, trailing newline."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n"


def write_json(obj, path) -> None:
    Path(path).write_text(canonical_json(obj))


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc


def _flatten(obj, prefix: str, out: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(obj[k], f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, list):
        out.append((prefix, json.dumps(obj)))
    else:
        out.append((prefix, json.dumps(obj)))


def write_csv(obj, path) -> None:
    """Flattened key,value convenience export of a report."""
    rows: list[tuple[str, str]] = []
    _flatten(_sanitize(obj), "", rows)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerows(rows)
