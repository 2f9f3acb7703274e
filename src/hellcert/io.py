"""File ingestion and deterministic report/CSV emission.

Input formats (auto-detected from extension and header, or forced by flag):

* ``csv_losses``       CSV with header ``loss``
* ``csv_predictions``  CSV with header ``pred,label``
* ``csv_scores``       CSV with header ``score,label``
* ``jsonl``            one JSON object per line with the matching keys

Files are UTF-8, split into lines at ``\\n`` alone.  Blank lines are skipped
and whitespace around a line or a CSV field is ignored, so CRLF endings read
like LF ones.  Each reader first parses a file in one vectorized pass: one
``np.loadtxt`` call for a CSV body, one bound JSON decoder over the lines of a
JSONL file, keeping only their numbers.  Whatever that pass cannot take (it
raises or warns) is parsed again line by line, and only that parser reports
errors, with the file and the 1-based number of the first bad line.  All
emitted numbers carry 17 significant digits (lossless for binary64) and JSON
reports are pretty-printed with sorted keys, so identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import warnings
from typing import Iterable

import numpy as np

from . import __version__
from .rng import GENERATOR_NAME

__all__ = [
    "InputFormatError",
    "detect_format",
    "read_text",
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


def _lines(path):
    """Yield (1-based number, text) for each line, ``\\n`` kept, one line held at a time.

    Each line is decoded on its own, so a byte that is not UTF-8 is an error at its line.
    """
    try:
        with open(path, "rb") as fh:
            for i, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise InputFormatError(
                        path, i, f"not UTF-8 ({exc.reason}, byte 0x{raw[exc.start]:02x})") from None
                yield i, line
    except OSError as exc:
        raise InputFormatError(path, 0, f"cannot read file: {exc}") from exc


def read_text(path) -> str:
    """The whole of a UTF-8 text file; a byte that is not UTF-8 is an error at its line."""
    return "".join(line for _, line in _lines(path))


def _header(line: str) -> str:
    return line.strip().lower().replace(" ", "")


def detect_format(path) -> str:
    """Infer the record format from the extension or the CSV header line, the only line read."""
    if str(path).endswith(".jsonl"):
        return "jsonl"
    first = next(_lines(path), (1, ""))[1].strip()
    if not first:
        raise InputFormatError(path, 1, "empty file")
    header = _header(first)
    if header in _HEADERS:
        return _HEADERS[header]
    if header.startswith("{"):
        return "jsonl"
    raise InputFormatError(path, 1, f"unrecognized header {first!r}")


def _loadtxt(path, fields):
    """One array per field: the CSV body in one ``np.loadtxt`` call, one record per line.

    The record dtype makes loadtxt reject a line with another number of
    columns.  The handle splits lines at ``\\n`` alone, as :func:`_lines` does,
    so loadtxt raises on a ``\\r`` inside a line.  It decodes ASCII alone,
    because loadtxt reads some other characters as digits (``5\\u01fe`` as the
    integer 512); Python reads non-ASCII digits and spaces its own way.
    """
    with open(path, encoding="ascii", newline="\n") as fh:
        if _header(fh.readline()) != ",".join(fields):
            raise ValueError("header")
        rows = np.loadtxt(fh, dtype=list(fields.items()), delimiter=",", comments=None, ndmin=1)
    return [np.ascontiguousarray(rows[name]) for name in fields]


_JSON_TYPES = {np.float64: {int, float}, np.int64: {int}}


def _decode_jsonl(path, fields):
    """One array per field: every line through one bound JSON decoder, keeping its numbers only."""
    decode = json.JSONDecoder().decode
    numbers = operator.itemgetter(*fields)
    with open(path, encoding="utf-8", newline="\n") as fh:
        rows = [numbers(decode(line)) for line in fh if not line.isspace()]
    if not rows:
        raise ValueError("no records")
    columns = zip(*rows) if len(fields) > 1 else [rows]
    arrays = []
    for column, dtype in zip(columns, fields.values()):
        if not set(map(type, column)) <= _JSON_TYPES[dtype]:  # booleans, strings, null, ...
            raise TypeError(dtype)
        arrays.append(np.array(column, dtype=dtype))
    return arrays


def _fast(fmt, path, fields):
    """One array per field from one vectorized pass over the file, or None if that pass fails.

    ``fields`` maps each CSV column or JSON key to its dtype.  Any exception or
    warning means the file is not for this pass: the caller then parses it line
    by line, which names the first bad line.
    """
    parse = _decode_jsonl if fmt == "jsonl" else _loadtxt
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return parse(path, fields)
    except Exception:  # every failure is the per-line parser's to report
        return None


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
    lines = _lines(path)
    if _header(next(lines, (1, ""))[1]) != expected_header:
        raise InputFormatError(path, 1, f"expected header {expected_header!r}")
    for i, line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise InputFormatError(path, i, f"expected {n_fields} fields, got {len(parts)}")
        yield i, parts


def _iter_jsonl(path, keys):
    for i, line in _lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputFormatError(path, i, f"bad JSON: {exc.msg}") from exc
        except RecursionError:
            raise InputFormatError(path, i, "bad JSON: nested too deeply") from None
        if not isinstance(obj, dict) or any(k not in obj for k in keys):
            raise InputFormatError(path, i, f"object must carry keys {keys}")
        yield i, obj


def read_losses(path, fmt: str = "auto", ceiling: float = math.inf) -> np.ndarray:
    """Losses in file order; NaN or a loss outside [0, ceiling] is an error at its line."""
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt == "csv_losses":
        records = functools.partial(_iter_csv, path, "loss", 1)
    elif fmt == "jsonl":
        records = functools.partial(_iter_jsonl, path, ("loss",))
    else:
        raise InputFormatError(path, 0, f"format {fmt!r} does not carry plain losses")
    columns = _fast(fmt, path, {"loss": np.float64})
    if columns is not None:
        values = columns[0]
    elif fmt == "csv_losses":
        values = [_parse_float(path, i, parts[0], "loss") for i, parts in records()]
    else:
        values = [_parse_float(path, i, _json_number(path, i, obj, "loss"), "loss")
                  for i, obj in records()]
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
    if fmt not in ("csv_predictions", "jsonl"):
        raise InputFormatError(path, 0, f"format {fmt!r} does not carry predictions")
    columns = _fast(fmt, path, {"pred": np.int64, "label": np.int64})
    if columns is not None:
        return tuple(columns)
    preds, labels = [], []
    if fmt == "csv_predictions":
        for i, parts in _iter_csv(path, "pred,label", 2):
            preds.append(_parse_int(path, i, parts[0], "pred"))
            labels.append(_parse_int(path, i, parts[1], "label"))
    else:
        for i, obj in _iter_jsonl(path, ("pred", "label")):
            preds.append(_parse_int(path, i, _json_number(path, i, obj, "pred"), "pred"))
            labels.append(_parse_int(path, i, _json_number(path, i, obj, "label"), "label"))
    return np.asarray(preds), np.asarray(labels)


def read_scores(path, fmt: str = "auto"):
    """Scores and labels in file order; a non-finite score or a label not -1/+1 fails at its line."""
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt == "csv_scores":
        records = functools.partial(_iter_csv, path, "score,label", 2)
    elif fmt == "jsonl":
        records = functools.partial(_iter_jsonl, path, ("score", "label"))
    else:
        raise InputFormatError(path, 0, f"format {fmt!r} does not carry scores")
    scores, labels = [], []
    columns = _fast(fmt, path, {"score": np.float64, "label": np.int64})
    if columns is not None:
        scores, labels = columns
    elif fmt == "csv_scores":
        for i, parts in records():
            scores.append(_parse_float(path, i, parts[0], "score"))
            labels.append(_parse_int(path, i, parts[1], "label"))
    else:
        for i, obj in records():
            scores.append(_parse_float(path, i, _json_number(path, i, obj, "score"), "score"))
            labels.append(_parse_int(path, i, _json_number(path, i, obj, "label"), "label"))
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
