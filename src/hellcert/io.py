"""File ingestion and deterministic report/CSV emission.

Input formats (auto-detected from extension and header, or forced by flag):

* ``csv_losses``       CSV with header ``loss``
* ``csv_predictions``  CSV with header ``pred,label``
* ``csv_scores``       CSV with header ``score,label``
* ``jsonl``            one JSON object per line with the matching keys

Malformed lines are reported with their 1-based line number.  All emitted
numbers carry 17 significant digits (lossless for binary64) and JSON reports
are pretty-printed with sorted keys, so identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import Iterable

import numpy as np

from . import __version__
from .rng import GENERATOR_NAME

__all__ = [
    "InputFormatError",
    "detect_format",
    "read_losses",
    "read_predictions",
    "read_scores",
    "format_number",
    "json_document",
    "write_csv",
    "base_report",
]


class InputFormatError(ValueError):
    """Unparseable input; message carries the file and 1-based line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


_HEADERS = {
    "loss": "csv_losses",
    "pred,label": "csv_predictions",
    "score,label": "csv_scores",
}


def _read_lines(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputFormatError(path, 0, f"cannot read file: {exc}") from exc
    return raw.split("\n")


def detect_format(path) -> str:
    """Infer the record format from the extension or the CSV header line."""
    if str(path).endswith(".jsonl"):
        return "jsonl"
    lines = _read_lines(path)
    if not lines or not lines[0].strip():
        raise InputFormatError(path, 1, "empty file")
    header = lines[0].strip().lower().replace(" ", "")
    if header in _HEADERS:
        return _HEADERS[header]
    if header.startswith("{"):
        return "jsonl"
    raise InputFormatError(path, 1, f"unrecognized header {lines[0].strip()!r}")


def _parse_float(path, line_no, text, what):
    try:
        return float(text)
    except (ValueError, OverflowError) as exc:
        raise InputFormatError(path, line_no, f"bad {what}: {text!r}") from exc


def _json_number(path, line_no, obj, key):
    """A JSONL field must be a JSON number: null, booleans and strings are rejected."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFormatError(path, line_no, f"{key} must be a number, got {json.dumps(value)}")
    return value


def _iter_csv(path, expected_header, n_fields):
    lines = _read_lines(path)
    if not lines or lines[0].strip().lower().replace(" ", "") != expected_header:
        raise InputFormatError(path, 1, f"expected header {expected_header!r}")
    for i, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise InputFormatError(path, i, f"expected {n_fields} fields, got {len(parts)}")
        yield i, parts


def _iter_jsonl(path, keys):
    lines = _read_lines(path)
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputFormatError(path, i, f"bad JSON: {exc.msg}") from exc
        if not isinstance(obj, dict) or any(k not in obj for k in keys):
            raise InputFormatError(path, i, f"object must carry keys {keys}")
        yield i, obj


def read_losses(path, fmt: str = "auto", ceiling: float = math.inf) -> np.ndarray:
    """Losses in file order; NaN or a loss outside [0, ceiling] is an error at its line."""
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt == "csv_losses":
        records = functools.partial(_iter_csv, path, "loss", 1)
        values = [_parse_float(path, i, parts[0], "loss") for i, parts in records()]
    elif fmt == "jsonl":
        records = functools.partial(_iter_jsonl, path, ("loss",))
        values = [_parse_float(path, i, _json_number(path, i, obj, "loss"), "loss")
                  for i, obj in records()]
    else:
        raise InputFormatError(path, 0, f"format {fmt!r} does not carry plain losses")
    values = np.asarray(values, dtype=float)
    bad = ~((values >= 0.0) & (values <= ceiling))
    if bad.any():
        # Only the failing path pays for a second pass to recover the line number.
        i = int(np.argmax(bad))
        line_no = next(itertools.islice(records(), i, None))[0]
        raise InputFormatError(path, line_no, f"loss {float(values[i])!r} is outside [0, {ceiling}]")
    return values


def _parse_int(path, line_no, text, what):
    if isinstance(text, float) and not text.is_integer():
        raise InputFormatError(path, line_no, f"bad {what}: {text!r}")
    try:
        return int(text)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(path, line_no, f"bad {what}: {text!r}") from exc


def read_predictions(path, fmt: str = "auto"):
    if fmt == "auto":
        fmt = detect_format(path)
    preds, labels = [], []
    if fmt == "csv_predictions":
        for i, parts in _iter_csv(path, "pred,label", 2):
            preds.append(_parse_int(path, i, parts[0], "pred"))
            labels.append(_parse_int(path, i, parts[1], "label"))
    elif fmt == "jsonl":
        for i, obj in _iter_jsonl(path, ("pred", "label")):
            preds.append(_parse_int(path, i, _json_number(path, i, obj, "pred"), "pred"))
            labels.append(_parse_int(path, i, _json_number(path, i, obj, "label"), "label"))
    else:
        raise InputFormatError(path, 0, f"format {fmt!r} does not carry predictions")
    return np.asarray(preds), np.asarray(labels)


def read_scores(path, fmt: str = "auto"):
    """Scores and labels in file order; a non-finite score or a label not -1/+1 fails at its line."""
    if fmt == "auto":
        fmt = detect_format(path)
    scores, labels = [], []
    if fmt == "csv_scores":
        records = functools.partial(_iter_csv, path, "score,label", 2)
        for i, parts in records():
            scores.append(_parse_float(path, i, parts[0], "score"))
            labels.append(_parse_int(path, i, parts[1], "label"))
    elif fmt == "jsonl":
        records = functools.partial(_iter_jsonl, path, ("score", "label"))
        for i, obj in records():
            scores.append(_parse_float(path, i, _json_number(path, i, obj, "score"), "score"))
            labels.append(_parse_int(path, i, _json_number(path, i, obj, "label"), "label"))
    else:
        raise InputFormatError(path, 0, f"format {fmt!r} does not carry scores")
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    bad = ~np.isfinite(scores) | ~np.isin(labels, (-1, 1))
    if bad.any():
        # Only the failing path pays for a second pass to recover the line number.
        i = int(np.argmax(bad))
        line_no = next(itertools.islice(records(), i, None))[0]
        if not math.isfinite(scores[i]):
            raise InputFormatError(path, line_no, f"score {float(scores[i])!r} is not finite")
        raise InputFormatError(path, line_no, f"label {int(labels[i])} is not -1 or +1")
    return scores, labels


def format_number(x) -> str:
    """17 significant digits: binary64 round-trips losslessly through this."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _json_fragment(obj, indent):
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return format_number(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {_json_fragment(v, indent + 2)}'
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{_json_fragment(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_document(obj) -> str:
    """Deterministic pretty JSON: sorted keys, 17-significant-digit floats, LF."""
    return _json_fragment(obj, 0) + "\n"


def write_csv(path, header: Iterable[str], rows) -> None:
    """CSV with LF endings and 17-significant-digit numbers; None is an empty cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else v if isinstance(v, str) else format_number(v)
                              for v in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def base_report(command: str, seed, decisions: dict, timestamp=None) -> dict:
    """Common envelope every subcommand report starts from."""
    return {
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "rng": GENERATOR_NAME,
        "decisions": decisions,
        "timestamp": timestamp,
    }
