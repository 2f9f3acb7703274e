"""File ingestion and deterministic report/CSV emission.

Each CSV input format is declared once, in :data:`FORMATS`, as its columns
and their dtypes; its header is the column names joined by commas, and
``jsonl`` is one JSON object per line with the same keys.  The format is
detected from the extension and header, or forced by flag.  A float column
is binary64; an integer column takes only integers within int64.

Files are UTF-8, split into lines at ``\\n`` alone.  Blank lines are skipped
and whitespace around a line or a CSV field is ignored, so CRLF endings read
like LF ones.  Each input is read once, and its bytes serve every pass, so a
named pipe or ``/dev/stdin`` reads as a regular file does.  Each reader first
parses in one vectorized pass, keeping only the numbers:

* a CSV body in one ``np.loadtxt`` call, which alone is given the path of a
  regular file, so that its C reader takes the text in chunks, and never a
  file whose ``\\r`` count is not its ``\\r\\n`` count, since it reads with
  universal newlines;
* a JSONL file by one bytes regex, a chunk at a time, when every line but
  blank ones at its end is a record in canonical layout (each key once, in
  table order, a JSON number, an integer for an integer column, spaces or
  tabs between tokens, a CR before the LF), as ``json.dumps`` writes one,
  else by the JSON C scanner over each stripped line.

Whatever that pass cannot take (it raises or warns) is parsed again line by
line, and only that parser reports errors, with the file and the 1-based
number of the first bad line.  All emitted numbers carry 17 significant
digits (lossless for binary64) and JSON reports are pretty-printed with
sorted keys, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import re
import warnings
from io import BytesIO, TextIOWrapper
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


def _read(path) -> bytes:
    """The whole file, in the one read every pass below takes."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputFormatError(path, 0, f"cannot read file: {exc}") from exc


def _lines(path, data):
    """Yield (1-based number, text) for each line of ``data``, ``\\n`` kept; each is decoded on
    its own, so a byte that is not UTF-8 is an error at its line."""
    for i, raw in enumerate(BytesIO(data), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputFormatError(
                path, i, f"not UTF-8 ({exc.reason}, byte 0x{raw[exc.start]:02x})") from None
        yield i, line


def read_text(path) -> str:
    """The whole of a UTF-8 text file; a byte that is not UTF-8 is an error at its line."""
    return "".join(line for _, line in _lines(path, _read(path)))


def _header(line: str) -> str:
    return line.strip().lower().replace(" ", "")


def _detect(path, data) -> str:
    if str(path).endswith(".jsonl"):
        return "jsonl"
    first = next(_lines(path, data), (1, ""))[1].strip()
    if not first:
        raise InputFormatError(path, 1, "empty file")
    header = _header(first)
    for fmt, fields in FORMATS.items():
        if header == ",".join(fields):
            return fmt
    if header.startswith("{"):
        return "jsonl"
    raise InputFormatError(path, 1, f"unrecognized header {first!r}")


def detect_format(path) -> str:
    """Infer the record format from the extension or the CSV header line."""
    return _detect(path, _read(path))


def _loadtxt(path, data, fields):
    """One array per field: the CSV body in one ``np.loadtxt`` call, one record per line.

    The file's bytes ``data`` serve the checks, but loadtxt is given its path:
    from a path its C reader takes the text in large chunks, where from a
    handle or a buffer it takes one Python string per line.  That reads the
    file again, so one that is not regular (it may be readable only once) is
    left to the per-line parser, as is one whose count of ``\\r`` is not its
    count of ``\\r\\n``: loadtxt, which reads with universal newlines, would
    end a line at that lone ``\\r``, where :func:`_lines` does not.  The path
    is made absolute, so that NumPy's ``_datasource``, which opens it, cannot
    take it for a URL.  It picks a decompressor by extension, so a plain file
    named ``*.gz`` fails in loadtxt and a compressed one fails the header check.

    The record dtype makes loadtxt reject a line with another number of
    columns.  It decodes ASCII alone, because loadtxt reads some other
    characters as digits (``5\\u01fe`` as the integer 512); Python reads
    non-ASCII digits and spaces its own way.
    """
    if not os.path.isfile(path):
        raise ValueError("not a regular file")
    if _header(next(_lines(path, data), (1, ""))[1]) != ",".join(fields):
        raise ValueError("header")
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        raise ValueError("lone CR")
    rows = np.loadtxt(os.path.abspath(path), dtype=list(fields.items()), delimiter=",", comments=None,
                      skiprows=1, ndmin=1, encoding="ascii")
    return [np.ascontiguousarray(rows[name]) for name in fields]


_JSON_TYPES = {np.float64: {int, float}, np.int64: {int}}
# The JSON grammar of an integer and of a number, the literals of a canonical record's columns.  An
# optional part is spelled (?:...|), which matches as (?:...)? does and runs about 20% faster in re.
_JSON_INTEGER = rb"-?(?:0|[1-9][0-9]*)"
_JSON_GRAMMAR = {np.int64: _JSON_INTEGER, np.float64: _JSON_INTEGER + rb"(?:\.[0-9]+|)(?:[eE][-+]?[0-9]+|)"}


@functools.cache
def _canonical(columns):
    """The regex of one line that is a canonical record of ``columns``, ((key, dtype), ...), compiled at
    its first use: one group per key, in table order, each holding its number's literal."""
    pad = rb"[ \t]*"
    keys = b",".join(b'%s"%s"%s:%s(%s)%s' % (pad, key.encode(), pad, pad, _JSON_GRAMMAR[dtype], pad)
                     for key, dtype in columns)
    return re.compile(rb"^%s\{%s\}%s\r?$" % (pad, keys, pad), re.MULTILINE)


def _floats(literals):
    """JSON number literals as binary64, as the per-line parser reads them: ``float`` of a
    fraction or exponent, ``float(int(...))`` of an integer.  The two agree on an integer
    literal except where ``float`` gives -0.0 (``-0`` is the integer 0) or an infinity (the
    integer overflows the float range, an error), so only those are read again."""
    values = np.fromiter(map(float, literals), np.float64, len(literals))
    for i in np.flatnonzero(np.isinf(values) | (np.signbit(values) & (values == 0.0))).tolist():
        if literals[i].lstrip(b"-").isdigit():
            values[i] = float(int(literals[i]))
    return values


def _scan_jsonl(data, fields):
    """One array per field: each stripped line through the JSON C scanner, keeping its numbers only.

    A line must be one JSON value from its first character to its last, as
    ``json.loads(line.strip())`` in the per-line parser requires.  The bytes
    are decoded a chunk at a time, so no decoded copy of the file is held.
    """
    scan = json.JSONDecoder().scan_once
    numbers = operator.itemgetter(*fields)
    rows = []
    with TextIOWrapper(BytesIO(data), encoding="utf-8", newline="\n") as text_lines:
        for text in map(str.strip, text_lines):
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


# Bytes the canonical pass reads at a time, cut after a line end: the first chunk with a line of
# another layout ends the pass, and only one chunk's literals are held at a time.
_CANONICAL_CHUNK = 1 << 16


def _decode_jsonl(path, data, fields):
    """One array per field of a JSONL file: by one regex when every line is a canonical record,
    else by the scanner pass (keys in another order or repeated, other whitespace, a blank line before
    the last record, ``NaN``).

    The regex runs a chunk of whole lines at a time, up to the whitespace
    that ends the file (trailing blank lines, which every pass skips), and the
    first chunk with a line it does not match sends the whole file to the
    scanner pass.  Matches lie within one line and at most one per line, so
    every line of a chunk matched when they number as many as its lines.  A
    matched file is ASCII, hence UTF-8.
    """
    canonical = _canonical(tuple(fields.items()))
    tail = data[-4096:]  # a longer run of trailing whitespace goes to the scanner pass
    stop = len(data) - len(tail) + len(tail.rstrip())
    chunks, start = [], 0
    while start < stop:
        end = data.find(b"\n", start + _CANONICAL_CHUNK, stop) + 1 or stop
        records = canonical.findall(data, start, end)
        if len(records) != data.count(b"\n", start, end) + (not data.endswith(b"\n", start, end)):
            return _scan_jsonl(data, fields)
        columns = zip(*records) if len(fields) > 1 else [records]
        chunks.append([_floats(column) if dtype is np.float64 else np.array(list(map(int, column)), dtype=dtype)
                       for column, dtype in zip(columns, fields.values())])
        start = end
    if not chunks:
        return _scan_jsonl(data, fields)
    return [np.concatenate(column) for column in zip(*chunks)]


def _fast(fmt, path, data, fields):
    """One array per field from one vectorized pass over the file's bytes, or None if that pass fails.

    ``fields`` maps each CSV column or JSON key to its dtype.  Any exception or
    warning means the file is not for this pass: the caller then parses it line
    by line, which names the first bad line.
    """
    parse = _decode_jsonl if fmt == "jsonl" else _loadtxt
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return parse(path, data, fields)
    except Exception:  # every failure is the per-line parser's to report
        return None


def _iter_csv(path, data, fields):
    """Yield (line number, raw field texts in table order) for each record of a CSV file."""
    lines = _lines(path, data)
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


def _iter_jsonl(path, data, fields):
    """Yield (line number, JSON numbers in table order) for each record of a JSONL file."""
    for i, line in _lines(path, data):
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
    # A forced format that does not carry these columns is refused before the file is read.
    data = _read(path) if fmt in ("auto", own, "jsonl") else b""
    if fmt == "auto":
        fmt = _detect(path, data)
    if fmt not in (own, "jsonl"):
        raise InputFormatError(path, 0, f"format {fmt!r} does not carry {carries}")
    fields = FORMATS[own]
    records = functools.partial(_iter_jsonl if fmt == "jsonl" else _iter_csv, path, data, fields)
    columns = _fast(fmt, path, data, fields)
    if columns is None:
        columns = [[] for _ in fields]
        for i, values in records():
            for column, raw, (name, dtype) in zip(columns, values, fields.items()):
                column.append(_value(path, i, raw, name, dtype))
        columns = [np.array(column, dtype=dtype) for column, dtype in zip(columns, fields.values())]
    # Only the failing path pays for the second pass over the bytes that recovers a line number.
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
