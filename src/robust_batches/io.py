"""Batch files (JSON lines) and report files (canonical JSON).

A batch file starts with a header line {"n": int, "m": int, "labeled":
bool} followed by one object per batch: {"id": int, "samples": [...],
"truth": "good"|"adversarial"} where samples are numbers, or [x, y] pairs
with an integer label y in {0, 1} for labeled collections.  n, m and ids
are JSON integers (booleans and floats are refused).  NaN or infinite
values are a hard error.
"""

from __future__ import annotations

import csv
import json
from io import StringIO
from pathlib import Path

import numpy as np

from .core import LABELS, BatchCollection, LabeledCollection, UsageError


class FileFormatError(UsageError):
    """A batch or report file violates the documented schema."""


def _reject_constant(name: str):
    raise FileFormatError(f"non-finite JSON value {name!r} is not allowed")


# one decoder for every line of every file (json.loads with parse_constant
# builds a new one per call)
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)

# Files are read as UTF-8 whatever the locale.  A byte that is not UTF-8 is
# kept as a lone surrogate and refused by _parse, so the error names its own
# line, not the one the text layer was reading when it decoded 8 KiB ahead.
_TEXT = {"encoding": "utf-8", "errors": "surrogateescape"}


def _parse(text: str, where: str):
    """``json.loads`` with the shared decoder, one guard for every way the
    text of a line or a report can fail to be JSON: a byte that is not
    UTF-8, a leading BOM (refused as ``json.loads`` does and ``decode``
    alone does not), invalid JSON, a non-finite constant, nesting deeper
    than the decoder's recursion limit, and an integer of more digits than
    Python converts.  Each is a FileFormatError that names ``where``."""
    try:
        if not text.isascii():  # O(1); every file the package writes is ASCII
            # the reader's bytes again: one that is not UTF-8 raises here
            text.encode("utf-8", "surrogateescape").decode("utf-8")
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"{where}: invalid JSON: {exc}") from exc


def _loads(line: str, where: str) -> dict:
    obj = _parse(line, where)
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected a JSON object")
    return obj


# one encoder for every line written: json.dumps(obj, sort_keys=True) builds
# a new one per call, and a batch line holds no container twice
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def write_batches(collection, path) -> None:
    labeled = isinstance(collection, LabeledCollection)
    path = Path(path)
    with path.open("w") as fh:
        header = {"n": collection.n, "m": collection.m, "labeled": labeled}
        fh.write(_ENCODER.encode(header) + "\n")
        for i, batch_id in enumerate(collection.ids):
            if labeled:  # (x, y) tuples write as [x, y] pairs
                samples = list(zip(collection.x[i].tolist(), collection.y[i].tolist()))
            else:
                samples = collection.samples[i].tolist()
            row: dict = {"id": batch_id, "samples": samples}
            if collection.truth is not None:
                row["truth"] = collection.truth[i]
            fh.write(_ENCODER.encode(row) + "\n")


def _row_values(obj: dict, n: int, labeled: bool, where: str) -> list:
    """The checked sample values of one batch line: [x] or [x, y] lists."""
    samples = obj["samples"]
    if not isinstance(samples, list):
        raise FileFormatError(f"{where}: samples must be a list")
    if len(samples) != n:
        raise FileFormatError(
            f"{where}: batch {obj['id']} has {len(samples)} samples, expected n={n}"
        )
    if labeled:
        try:
            columns = list(zip(*samples, strict=True))
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"{where}: malformed samples: {exc}") from exc
        if len(columns) != 2:
            raise FileFormatError(f"{where}: labeled samples must be [x, y] pairs")
        if not (set(map(type, columns[1])) <= {int} and set(columns[1]) <= set(LABELS)):
            raise FileFormatError(f"{where}: labels must be 0 or 1, as JSON integers")
    else:
        columns = [samples]
    if not set(map(type, columns[0])) <= {int, float}:
        raise FileFormatError(f"{where}: samples must be JSON numbers")
    return columns


def read_batches(path):
    """Load a batch file; returns a BatchCollection or LabeledCollection.

    The file is read one line at a time into (m, n) arrays, float64 for
    the samples and uint8 for labels, allocated once the first batch line
    has confirmed n; no copy of the text is held."""
    path = Path(path)
    with path.open(**_TEXT) as fh:
        lines = enumerate(fh, start=1)
        _, first = next(lines, (1, ""))
        if not first:
            raise FileFormatError(f"{path}: empty file")
        header = _loads(first, f"{path}:1")
        for field in ("n", "m"):
            if field not in header:
                raise FileFormatError(f"{path}:1: header is missing {field!r}")
        n, m = header["n"], header["m"]
        # JSON integers only: type() refuses floats, and booleans (an int subclass)
        if not (type(n) is type(m) is int and n >= 1 and m >= 1):
            raise FileFormatError(f"{path}:1: n and m must be positive JSON integers")
        labeled = header.get("labeled", False)
        if type(labeled) is not bool:
            raise FileFormatError(f"{path}:1: labeled must be a JSON boolean")
        ids: list[int] = []
        truth: list[str] = []
        for lineno, line in lines:
            if not line.strip():
                continue
            i = len(ids)
            if i == m:  # one batch too many: count the rest for the message
                found = m + 1 + sum(1 for _, rest in lines if rest.strip())
                raise FileFormatError(f"{path}: header says m={m} but found {found} batches")
            where = f"{path}:{lineno}"
            obj = _loads(line, where)
            for field in ("id", "samples"):
                if field not in obj:
                    raise FileFormatError(f"{where}: batch is missing {field!r}")
            if type(obj["id"]) is not int:
                raise FileFormatError(f"{where}: id must be a JSON integer, got {obj['id']!r}")
            columns = _row_values(obj, n, labeled, where)
            if i == 0:  # allocated only once n matches a real line
                x = _rows_array(m, n, np.float64, path)
                y = _rows_array(m, n, np.uint8, path) if labeled else None
            try:
                x[i] = columns[0]
            except OverflowError as exc:
                raise FileFormatError(f"{where}: malformed samples: {exc}") from exc
            if not np.all(np.isfinite(x[i])):
                raise FileFormatError(
                    f"{where}: batch {obj['id']}: samples contain NaN or infinity"
                )
            if labeled:
                y[i] = columns[1]
            ids.append(obj["id"])
            if "truth" in obj:
                truth.append(str(obj["truth"]))
    if len(ids) != m:
        raise FileFormatError(f"{path}: header says m={m} but found {len(ids)} batches")
    if truth and len(truth) != m:
        raise FileFormatError(f"{path}: truth flags must be present on all batches or none")
    try:
        if labeled:
            return LabeledCollection(x, y, ids, truth or None)
        return BatchCollection(x, ids, truth or None)
    except UsageError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _rows_array(m: int, n: int, dtype, path) -> np.ndarray:
    """An empty (m, n) array; a header m that no memory holds is a format error."""
    try:
        return np.empty((m, n), dtype)
    except (MemoryError, ValueError) as exc:
        raise FileFormatError(f"{path}:1: header says m={m}, too many batches to hold") from exc


def _dumps(obj, **kwargs) -> str:
    """``json.dumps`` refusing NaN and the infinities at any depth; json writes
    a numpy float64 (a float subclass) as its float, and a tuple as an array."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise UsageError("reports must not contain non-finite numbers") from exc


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, fixed separators, trailing newline."""
    return _dumps(obj, sort_keys=True, indent=2) + "\n"


def read_json(path) -> dict:
    return _parse(Path(path).read_text(**_TEXT), str(path))


def _flatten(obj, prefix: str, out: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(obj[k], f"{prefix}.{k}" if prefix else str(k), out)
    else:
        out.append((prefix, _dumps(obj)))


def csv_text(obj) -> str:
    """Flattened key,value convenience export of a report (rows end in CRLF)."""
    rows = [("key", "value")]
    _flatten(obj, "", rows)
    out = StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()
