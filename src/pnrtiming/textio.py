"""The text dialect of every sidecar: UTF-8 CSV tables with ``\\n`` line
ends, and JSON documents with two-space indent, sorted keys and a trailing
newline."""

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
    and strs."""
    line = row_format + "\n"
    with open_output(path, "w") as f:
        f.write(header + "\n")
        for i in range(0, len(columns[0]), _CHUNK_ROWS):
            f.write("".join(map(line.format, *(c[i : i + _CHUNK_ROWS].tolist() for c in columns))))


def read_csv(path, header_rows: int, ncols: int) -> tuple[list, np.ndarray]:
    """(header lines, int64 array of shape (rows, ncols)) of an integer table
    below ``header_rows`` header lines, not counting the lines starting with
    ``#`` above them, which are returned with the header; ``#`` starts a
    comment.  A table with no rows is legal and reads without a warning."""
    header = []
    try:
        # bytes decoded line by line: a text-mode read decodes ahead, so a bad
        # byte in the table would fail here, before the header is counted
        with open(path, "rb") as f:
            names = 0
            while names < header_rows and (line := f.readline()):
                header.append(line.decode("utf-8").strip())
                names += not header[-1].startswith("#")
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


def row_line(path, skip: int, row: int) -> int:
    """1-based line number of table row ``row`` (0-based) of a table read by
    ``read_csv`` below ``skip`` header lines."""
    return next(islice(_data_lines(path, skip), row, None))[0]


def _bad_row_message(path, skip: int, ncols: int, exc: ValueError) -> str:
    """Name the first line below the header that is not ``ncols`` integers;
    np.loadtxt counts data rows in its errors, not lines."""
    row = re.compile(",".join([r"\s*[+-]?\d+\s*"] * ncols))
    for lineno, line in _data_lines(path, skip):
        if not row.fullmatch(line.split("#", 1)[0].strip()):
            return f"{path}, line {lineno}: expected {ncols} integer fields, got {line.rstrip()!r}"
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
