"""The text dialect of every sidecar: UTF-8 CSV tables with ``\\n`` line
ends, and JSON documents with two-space indent, sorted keys and a trailing
newline."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import ConfigError, StreamFormatError

_CHUNK_ROWS = 65_536  # rows formatted per write, so memory does not grow with the table


def write_csv(path, header: str, row_format: str, *columns) -> None:
    """Write ``header`` (lines without the last line end), then row i as
    ``row_format.format(*(c[i] for c in columns))``.  The columns are 1-D
    arrays of one length; their values are formatted as Python ints, floats
    and strs."""
    line = row_format + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for i in range(0, len(columns[0]), _CHUNK_ROWS):
            f.write("".join(map(line.format, *(c[i : i + _CHUNK_ROWS].tolist() for c in columns))))


def read_csv(path, header_rows: int, ncols: int) -> tuple[list, np.ndarray]:
    """(header lines, int64 array of shape (rows, ncols)) of an integer table
    below ``header_rows`` header lines; ``#`` starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            header = [f.readline().strip() for _ in range(header_rows)]
        # by path: handed the open file, np.loadtxt reads it slower, through Python
        data = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=header_rows, ndmin=2)
        if data.size and data.shape[1] != ncols:
            raise ValueError(f"{data.shape[1]} columns")
    except ValueError as exc:  # also text that is not UTF-8
        raise StreamFormatError(_bad_row_message(path, header_rows, ncols, exc)) from exc
    return header, data.reshape(-1, ncols)


def _bad_row_message(path, header_rows: int, ncols: int, exc: ValueError) -> str:
    """Name the first line below the header that is not ``ncols`` integers;
    np.loadtxt counts data rows in its errors, not lines."""
    row = re.compile(",".join([r"\s*[+-]?\d+\s*"] * ncols))
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for lineno, line in enumerate(f, 1):
            text = line.split("#", 1)[0].strip()
            if lineno > header_rows and text and not row.fullmatch(text):
                return f"{path}, line {lineno}: expected {ncols} integer fields, got {line.rstrip()!r}"
    return f"{path}: {exc}"


def _plain(value):
    if isinstance(value, (np.ndarray, np.generic)):  # numpy values as the Python values they hold
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_plain) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(json_text(obj), encoding="utf-8")


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # also text that is not UTF-8
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
