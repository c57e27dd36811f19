"""The text dialect of every sidecar: UTF-8 CSV tables with ``\\n`` line
ends, and JSON documents with two-space indent, sorted keys and a trailing
newline.

Tables are written a chunk of rows at a time.  A table of integer columns
(``write_int_csv``) is formatted in bulk by numpy, byte for byte as Python
prints its ints; a table with a float or str column (``write_csv``) goes
through ``str.format``."""

from __future__ import annotations

import json
import os
import re
import stat
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigError, StreamFormatError

_CHUNK_ROWS = 65_536  # rows formatted per write, so memory does not grow with the table
_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # 10**0 .. 10**19: a uint64 has at most 20 digits


def open_output(path, mode: str):
    """Open ``path`` for writing in ``mode`` ("w" for UTF-8 text, "wb").

    A regular file already at ``path`` is unlinked first, and a new one is
    created: truncating it in place can stall on the write-back of its old
    blocks (ext4 flushes a file replaced by truncation when it is closed).
    A symlink is not unlinked, so its target is written through the link.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, mode, encoding=None if "b" in mode else "utf-8")


def write_csv(path, header: str, row_format: str, *columns) -> None:
    """Write ``header`` (lines without the last line end), then row i as
    ``row_format.format(*(c[i] for c in columns))``.  The columns are 1-D
    arrays of one length; their values are formatted as Python ints, floats
    and strs.  This is the writer of tables with a float or str column; an
    integer table goes through ``write_int_csv``."""
    line = row_format + "\n"
    with open_output(path, "w") as f:
        f.write(header + "\n")
        for i in range(0, len(columns[0]), _CHUNK_ROWS):
            f.write("".join(map(line.format, *(c[i : i + _CHUNK_ROWS].tolist() for c in columns))))


def write_int_csv(path, header: str, *columns) -> None:
    """Write ``header`` (lines without the last line end), then row i as
    ``",".join(str(int(c[i])) for c in columns) + "\\n"``, byte for byte.
    The columns are 1-D integer arrays of one length; a bool, float or
    object column raises TypeError, since ``str`` would print it as "True"
    or "3.0"."""
    columns = [np.asarray(c) for c in columns]
    for c in columns:
        if c.dtype.kind not in "iu":
            raise TypeError(f"write_int_csv formats integer columns, not {c.dtype}")
    with open_output(path, "wb") as f:
        f.write(header.encode("utf-8") + b"\n")
        for i in range(0, len(columns[0]), _CHUNK_ROWS):
            f.write(_int_rows([c[i : i + _CHUNK_ROWS] for c in columns]))


def _int_rows(columns) -> np.ndarray:
    """The CSV rows of non-empty integer columns, as a uint8 array of their
    UTF-8 bytes."""
    rows = columns[0].size
    fields, row_len = [], np.full(rows, len(columns), np.int64)  # one separator per field
    for c in columns:
        # cast to uint64, a negative v wraps to 2**64 + v, and negating that
        # gives |v|, also for int64's minimum
        neg = c < 0
        mag = c.astype(np.uint64)
        np.negative(mag, out=mag, where=neg)
        top = len(str(int(mag.max())))  # the column's most digits
        width = neg.astype(np.int64) + 1
        for power in _POW10[1:top]:
            width += mag >= power
        row_len += width
        fields.append((neg, mag, width, top))
    ends = np.cumsum(row_len)
    out = np.empty(int(ends[-1]) + 1, np.uint8)  # out[0] is a spare byte before the first row
    start = ends - row_len + 1  # each row's first byte in out
    separators, pos = [], np.empty(rows, np.int64)
    for neg, mag, width, top in fields:
        end = start + width  # the field's separator
        # the digits, least significant first, right-aligned before the
        # separator; a row with fewer digits than the column's longest puts
        # its leading zeros on its sign's byte and on the separator before
        # its field, which are both written after
        spare = start - 1
        value = mag
        for j in range(1, top + 1):
            quotient = value // np.uint64(10)
            digit = value.astype(np.uint8)  # value - 10 * quotient, in the low bytes
            digit -= quotient.astype(np.uint8) * np.uint8(10)
            digit += ord("0")
            np.maximum(end - j, spare, out=pos)
            out[pos] = digit
            value = quotient
        out[start[neg]] = ord("-")
        separators.append(end)
        start = end + 1
    for end in separators[:-1]:
        out[end] = ord(",")
    out[separators[-1]] = ord("\n")
    return out[1:]


def read_csv(path, header_rows: int, ncols: int) -> tuple[list, np.ndarray]:
    """(header lines, int64 array of shape (rows, ncols)) of an integer table
    below the first ``header_rows`` lines; in the table, ``#`` starts a
    comment.  A table with no rows is legal and reads without a warning."""
    header = []
    try:
        # bytes decoded line by line: a text-mode read decodes ahead, so a bad
        # byte in the table would fail here, before the header is read
        with open(path, "rb") as f:
            for line in islice(f, header_rows):
                header.append(line.decode("utf-8").strip())
        # by path: handed the open file, np.loadtxt reads it slower, through Python
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=len(header), ndmin=2)
        if data.size and data.shape[1] != ncols:
            raise ValueError(f"{data.shape[1]} columns")
    except ValueError as exc:  # also text that is not UTF-8
        raise StreamFormatError(_bad_row_message(path, len(header), ncols, exc)) from exc
    return header, data.reshape(-1, ncols)


def _data_lines(path, skip: int):
    """(1-based line number, line) of every table row below the first
    ``skip`` lines, as np.loadtxt reads them: lines that are empty once a
    ``#`` comment is cut hold no row."""
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for lineno, line in enumerate(f, 1):
            if lineno > skip and line.split("#", 1)[0].strip():
                yield lineno, line


def check_photon_numbers(path, header: list, values: np.ndarray, top: int) -> None:
    """Raise StreamFormatError naming the line of the first value outside
    [0, top] in ``values``, columns of a table that ``read_csv`` returned."""
    bad = np.flatnonzero((values < 0) | (values > top))
    if bad.size:
        row, col = divmod(int(bad[0]), values.shape[1])
        line = next(islice(_data_lines(path, len(header)), row, None))[0]
        raise StreamFormatError(f"{path}, line {line}: photon number {values[row, col]} outside [0, {top}]")


def _bad_row_message(path, skip: int, ncols: int, exc: ValueError) -> str:
    """Name the first line below the header that is not ``ncols`` integers
    in the int64 range; np.loadtxt counts data rows in its errors, not lines."""
    # a field is a sign and at most 19 digits after any leading zeros: int() takes those
    row = re.compile(",".join([r"\s*([+-]?)0*([1-9]\d{0,18}|0)\s*"] * ncols))
    for lineno, line in _data_lines(path, skip):
        match = row.fullmatch(line.split("#", 1)[0].strip())
        if not match or any(int(d) > 2**63 - (s != "-") for s, d in zip(match.groups()[::2], match.groups()[1::2])):
            return f"{path}, line {lineno}: expected {ncols} int64 fields, got {line.rstrip()!r}"
    return f"{path}: {exc}"


def _plain(value):
    if isinstance(value, (np.ndarray, np.generic)):  # numpy values as the Python values they hold
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_plain) + "\n"


def write_json(path, obj) -> None:
    with open_output(path, "w") as f:
        f.write(json_text(obj))


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # also text that is not UTF-8
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
