"""File ingestion and deterministic report/CSV emission.

Each CSV input format is declared once, in :data:`FORMATS`, as its columns
and their dtypes; its header is the column names joined by commas, and
``jsonl`` is one JSON object per line with the same keys.  The format is
detected from the extension and header, or forced by flag.  A float column
is binary64; an integer column takes only integers within int64.

Files are UTF-8, split into lines at ``\\n`` alone.  Blank lines are skipped
and whitespace around a line or a CSV field is ignored, so CRLF endings read
like LF ones.  Each reader first parses a file in one vectorized pass: one
``np.loadtxt`` call for a CSV body, the JSON C scanner over each stripped line
of a JSONL file, keeping only their numbers.  Whatever that pass cannot take (it
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
    "FORMATS",
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


# CSV format -> {column: dtype}: the one declaration of each input format.
FORMATS = {
    "csv_losses": {"loss": np.float64},
    "csv_predictions": {"pred": np.int64, "label": np.int64},
    "csv_scores": {"score": np.float64, "label": np.int64},
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
    for fmt, fields in FORMATS.items():
        if header == ",".join(fields):
            return fmt
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
    """One array per field: each stripped line through the JSON C scanner, keeping its numbers only.

    A line must be one JSON value from its first character to its last, as
    ``json.loads(line.strip())`` in the per-line parser requires.
    """
    scan = json.JSONDecoder().scan_once
    numbers = operator.itemgetter(*fields)
    rows = []
    with open(path, encoding="utf-8", newline="\n") as fh:
        for text in map(str.strip, fh):
            if text:
                obj, end = scan(text, 0)
                if end != len(text):
                    raise ValueError("extra data")
                rows.append(numbers(obj))
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


def _iter_csv(path, fields):
    """Yield (line number, raw field texts in table order) for each record of a CSV file."""
    lines = _lines(path)
    header = ",".join(fields)
    if _header(next(lines, (1, ""))[1]) != header:
        raise InputFormatError(path, 1, f"expected header {header!r}")
    for i, line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(fields):
            raise InputFormatError(path, i, f"expected {len(fields)} fields, got {len(parts)}")
        yield i, parts


def _iter_jsonl(path, fields):
    """Yield (line number, JSON numbers in table order) for each record of a JSONL file."""
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
        if not isinstance(obj, dict) or any(k not in obj for k in fields):
            raise InputFormatError(path, i, f"object must carry keys {tuple(fields)}")
        values = [obj[key] for key in fields]
        for key, value in zip(fields, values):  # null, booleans and strings are not numbers
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InputFormatError(path, i, f"{key} must be a number, got {json.dumps(value)}")
        yield i, values


def _value(path, line_no, raw, name, dtype):
    """One raw field as a Python number of the column's dtype, or an error at its line."""
    try:
        if dtype is np.float64:
            return float(raw)
        value = int(raw)
        # A JSON float must be integral, and every integer must fit int64.
        if (isinstance(raw, str) or value == raw) and -2**63 <= value < 2**63:
            return value
    except (ValueError, OverflowError):
        pass
    raise InputFormatError(path, line_no, f"bad {name}: {raw!r}")


def _columns(path, fmt, own, carries):
    """The columns of CSV format ``own``, typed by :data:`FORMATS`, and index -> line number."""
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt not in (own, "jsonl"):
        raise InputFormatError(path, 0, f"format {fmt!r} does not carry {carries}")
    fields = FORMATS[own]
    records = functools.partial(_iter_jsonl if fmt == "jsonl" else _iter_csv, path, fields)
    columns = _fast(fmt, path, fields)
    if columns is None:
        columns = [[] for _ in fields]
        for i, values in records():
            for column, raw, (name, dtype) in zip(columns, values, fields.items()):
                column.append(_value(path, i, raw, name, dtype))
        columns = [np.array(column, dtype=dtype) for column, dtype in zip(columns, fields.values())]
    # Only the failing path pays for the second pass that recovers a line number.
    return columns, lambda index: next(itertools.islice(records(), index, None))[0]


def read_losses(path, fmt: str = "auto", ceiling: float = math.inf) -> np.ndarray:
    """Losses in file order; NaN or a loss outside [0, ceiling] is an error at its line."""
    (values,), line_of = _columns(path, fmt, "csv_losses", "plain losses")
    bad = ~((values >= 0.0) & (values <= ceiling))
    if bad.any():
        i = int(np.argmax(bad))
        message = f"loss {float(values[i])!r} is outside [0, {ceiling}]"
        raise InputFormatError(path, line_of(i), message)
    return values


def read_predictions(path, fmt: str = "auto"):
    """Predicted and true labels in file order."""
    return tuple(_columns(path, fmt, "csv_predictions", "predictions")[0])


def read_scores(path, fmt: str = "auto"):
    """Scores and labels in file order; a non-finite score or a label not -1/+1 fails at its line."""
    (scores, labels), line_of = _columns(path, fmt, "csv_scores", "scores")
    bad = ~np.isfinite(scores) | ~np.isin(labels, (-1, 1))
    if bad.any():
        i = int(np.argmax(bad))
        line_no = line_of(i)
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


def base_report(command: str, seed, decisions: dict) -> dict:
    """Common envelope every subcommand report starts from; its timestamp is
    null, so that identical command lines give byte-identical reports."""
    return {
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "rng": GENERATOR_NAME,
        "decisions": decisions,
        "timestamp": None,
    }
