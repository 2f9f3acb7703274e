"""File ingestion and deterministic report/CSV emission.

Each CSV input format is declared once, in :data:`FORMATS`, as its columns
and their dtypes; its header is the column names joined by commas, and
``jsonl`` is one JSON object per line with the same keys.  The format is
detected from the extension and header, or forced by flag.  A float column
is binary64; an integer column takes only integers within int64.

Files are UTF-8, split into lines at ``\\n`` alone.  Blank lines, which
:meth:`str.strip` empties, are skipped and whitespace around a line or a CSV
field is ignored, so CRLF endings read like LF ones.  Each input is read
once, and its bytes serve every pass, so a named pipe or ``/dev/stdin``
reads as a regular file does.  Each format has two passes, which keep only
the numbers, and only the second, a line parser, reports errors, with the
file and the 1-based number of the first bad line; a number that fails a
check after the parse is named at the line :func:`_line_of` finds for it:

* CSV: the body in one ``np.loadtxt`` call, given only the path of a regular
  file it reads as the line parser does (see :func:`_loadtxt`).  A file it
  cannot take (it raises or warns) is parsed again line by line.
* JSONL: one bytes regex, a chunk at a time, while every line of the chunk is
  a record in canonical layout (each key once, in table order, a JSON number,
  an integer for an integer column, spaces or tabs between tokens, a CR
  before the LF), as ``json.dumps`` writes one; then the JSON C scanner over
  each line, from the first chunk out of that layout to the end of the file.

An oracle instance, one JSON object, is parsed as a failing JSONL line is, and
its numbers read by JSONL's rule (:func:`read_instance`): a byte that is not
UTF-8 or a syntax error is at its line, any other fault at line 0.

All emitted numbers carry 17 significant digits (lossless for binary64) and
JSON reports are pretty-printed with sorted keys, so identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import json
import math
import operator
import os
import re
import sys
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
    "read_instance",
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
    """One array per field: the CSV body in one ``np.loadtxt`` call, one record per line, or None if
    that call cannot take the file (any exception or warning): the per-line parser then reads it.

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
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if (os.path.isfile(path) and _header(next(_lines(path, data), (1, ""))[1]) == ",".join(fields)
                    and (b"\r" not in data or data.count(b"\r") == data.count(b"\r\n"))):
                rows = np.loadtxt(os.path.abspath(path), dtype=list(fields.items()), delimiter=",",
                                  comments=None, skiprows=1, ndmin=1, encoding="ascii")
                return [np.ascontiguousarray(rows[name]) for name in fields]
    except Exception:  # every failure is the per-line parser's to report
        pass
    return None


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
    """JSON number literals as binary64, as the line parser reads them: ``float`` of a
    fraction or exponent, ``float(int(...))`` of an integer.  The two agree on an integer
    literal except where ``float`` gives -0.0 (``-0`` is the integer 0) or an infinity (the
    integer overflows the float range, an error), so only those are read again."""
    values = np.fromiter(map(float, literals), np.float64, len(literals))
    for i in np.flatnonzero(np.isinf(values) | (np.signbit(values) & (values == 0.0))).tolist():
        if literals[i].lstrip(b"-").isdigit():
            values[i] = float(int(literals[i]))
    return values


# Bytes the canonical pass reads at a time, cut after a line end: the first chunk with a line of
# another layout ends the pass, and only one chunk's literals are held at a time.
_CANONICAL_CHUNK = 1 << 16


def _decode_jsonl(path, data, fields):
    """One array per field of a JSONL file, and index -> line number: the canonical regex over the
    chunks it matches, then the line parser from the first chunk it does not match to the end.

    A chunk is whole lines, up to the whitespace that ends the file.  Matches lie within one line, at
    most one a line, so all its lines matched if they number as many; they are ASCII, one record a line.
    """
    canonical = _canonical(tuple(fields.items()))
    tail = data[-4096:]  # a longer run of trailing whitespace goes to the line parser
    stop = len(data) - len(tail) + len(tail.rstrip())
    chunks, start = [], 0
    while start < stop:
        end = data.find(b"\n", start + _CANONICAL_CHUNK, stop) + 1 or stop
        records = canonical.findall(data, start, end)
        if len(records) != data.count(b"\n", start, end) + (not data.endswith(b"\n", start, end)):
            break
        columns = zip(*records) if len(fields) > 1 else [records]
        try:
            chunks.append([_floats(column) if dtype is np.float64 else np.array(list(map(int, column)), dtype=dtype)
                           for column, dtype in zip(columns, fields.values())])
        except (OverflowError, ValueError):  # an integer beyond int64, the float range or int()'s digit limit
            break
        start = end
    count = sum(len(chunk[0]) for chunk in chunks)
    line_of = _line_of(data, start, count + 1, count)
    if start < stop or not chunks:
        chunks.append(_parse_jsonl(path, data, start, fields, count, line_of))
    return [np.concatenate(column) for column in zip(*chunks)], line_of


def _parse_jsonl(path, data, start, fields, count, line_of, lines=None):
    """One array per field of the records from byte ``start`` on, after the file's first ``count`` records,
    one a line: the line parser, which reports every JSONL error, at the first bad line.

    Each stripped line is one JSON value, read by the JSON C scanner, and each column takes one dtype
    conversion; only a failure pays for its message.  The bytes are decoded a buffer at a time, and again
    a line at a time by :func:`_lines` on one that is not UTF-8, so the first bad line is reported.
    """
    buffer = BytesIO(data)
    buffer.seek(start)
    lines = lines or TextIOWrapper(buffer, encoding="utf-8", newline="\n")
    scan, numbers, rows = json.JSONDecoder().scan_once, operator.itemgetter(*fields), []
    try:
        for line_no, text in enumerate(map(str.strip, lines), count + 1):
            if text:
                obj, end = scan(text, 0)
                if end != len(text):
                    raise ValueError("extra data")
                rows.append(numbers(obj))
    except UnicodeDecodeError:
        lines = itertools.islice(_lines(path, data), count, None)
        return _parse_jsonl(path, data, start, fields, count, line_of, (line for _, line in lines))
    except (StopIteration, ValueError, KeyError, TypeError, RecursionError) as exc:
        _checked(path, rows, fields, count, line_of)  # a bad number on an earlier line comes first
        if not isinstance(exc, InputFormatError):  # which is a line not UTF-8, from _lines, named already
            _record(path, line_no, text, fields)  # json.loads fails where the scanner did, and names the fault
        raise
    return _checked(path, rows, fields, count, line_of)


def _record(path, line_no, text, keys):
    """The values of ``keys`` in the JSON object ``text``, or an error at line ``line_no``; if that is 0, as for a
    document of many lines, a syntax error is at the line JSON names."""
    try:
        return operator.itemgetter(*keys)(json.loads(text))
    except json.JSONDecodeError as error:
        raise InputFormatError(path, line_no or error.lineno, f"bad JSON: {error.msg}") from None
    except RecursionError:
        raise InputFormatError(path, line_no, "bad JSON: nested too deeply") from None
    except ValueError:  # an integer literal of more digits than int() converts
        limit = sys.get_int_max_str_digits()
        raise InputFormatError(path, line_no, f"bad JSON: integer of more than {limit} digits") from None
    except (KeyError, TypeError):  # not an object, or one without every key
        raise InputFormatError(path, line_no, f"object must carry keys {tuple(keys)}") from None


def _number(path, line_no, key, value, dtype=np.float64):
    """A JSON value as a Python number of ``dtype`` by :func:`_value`, or an error at its line if it is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        got = "a value nested too deeply"
        with contextlib.suppress(RecursionError):  # nested nearly as deep as json.loads reads
            got = json.dumps(value)
        raise InputFormatError(path, line_no, f"{key} must be a number, got {got}")
    return _value(path, line_no, value, key, dtype)


def _checked(path, rows, fields, count, line_of):
    """One array per field of the numbers ``rows`` hold, the file's records from ``count`` on: one
    dtype conversion per column, else the per-line checks in file order, up to the first bad number."""
    columns = [rows] if len(fields) == 1 else list(zip(*rows)) or [()] * len(fields)
    with contextlib.suppress(OverflowError):  # an integer beyond int64 or the float range
        if all(set(map(type, column)) <= _JSON_TYPES[dtype] for column, dtype in zip(columns, fields.values())):
            return [np.array(column, dtype=dtype) for column, dtype in zip(columns, fields.values())]
    checked = [[_number(path, line_of(index), key, value, dtype) for value, (key, dtype) in zip(values, fields.items())]
               for index, values in enumerate(zip(*columns), count)]
    return [np.array(column, dtype=dtype) for column, dtype in zip(zip(*checked), fields.values())]


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
    text = repr(raw)
    if isinstance(raw, int) and len(text) > 20:  # an integer beyond the float range or int64: its head and length
        text = f"{text[:20]}... ({len(text.lstrip('-'))} digits)"
    raise InputFormatError(path, line_no, f"bad {name}: {text}")


def _line_of(data, start, line, count=0):
    """index -> line number of a file's records: before ``count``, one a line from line 1; from it, one a
    line from byte ``start``, which begins line ``line``, skipping blank lines, those :meth:`str.strip` empties,
    as the line parsers do.  The first call finds them, once: one regex finds each line of ASCII whitespace and
    non-ASCII bytes, and only those are decoded."""
    @functools.cache
    def blanks():  # the number of records from ``start`` before each blank line
        text, at = (data, start - 1) if start else (b"\n" + data, 0)  # from the LF before the line at start
        lines = re.compile(rb"\n([\t\v\f\r\x1c- \x80-\xff]*)$", re.MULTILINE).finditer(text, at)
        ends = [m.start() for m in lines if not m[1].decode("utf-8", "replace").strip()]
        counts = itertools.accumulate(map(text.count, itertools.repeat(b"\n"), [at, *ends], ends))
        return [n - j for j, n in enumerate(counts)]

    return lambda index: line + index - count + bisect.bisect_right(blanks(), index - count)


def _columns(path, fmt, own, carries):
    """The columns of CSV format ``own``, typed by :data:`FORMATS`, and index -> line number."""
    # A forced format that does not carry these columns is refused before the file is read.
    data = _read(path) if fmt in ("auto", own, "jsonl") else b""
    if fmt == "auto":
        fmt = _detect(path, data)
    if fmt not in (own, "jsonl"):
        raise InputFormatError(path, 0, f"format {fmt!r} does not carry {carries}")
    fields = FORMATS[own]
    if fmt == "jsonl":
        return _decode_jsonl(path, data, fields)
    columns = _loadtxt(path, data, fields)
    if columns is None:
        columns = [[] for _ in fields]
        for i, values in _iter_csv(path, data, fields):
            for column, raw, (name, dtype) in zip(columns, values, fields.items()):
                column.append(_value(path, i, raw, name, dtype))
        columns = [np.array(column, dtype=dtype) for column, dtype in zip(columns, fields.values())]
    return columns, _line_of(data, data.find(b"\n") + 1, 2)


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


def read_instance(path):
    """[p, losses, M, rho] of an oracle instance, one JSON object read as a JSONL record is: a byte that is not UTF-8
    or a JSON syntax error at its line, any other fault at line 0.  Each is a float or, in p and losses, floats."""
    keys = ("p", "losses", "M", "rho")
    values = _record(path, 0, "".join(line for _, line in _lines(path, _read(path))), keys)
    return [[_number(path, 0, key, x) for x in value] if key in ("p", "losses") and isinstance(value, list)
            else _number(path, 0, key, value) for key, value in zip(keys, values)]


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
