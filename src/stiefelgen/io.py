"""CSV and JSON interchange.

CSV holds all numeric data: one column for a univariate series, columns
as series (rows as time) for multivariate data and ensembles. Values
are written with 17 significant digits so doubles round-trip exactly;
readers accept an optional header row, comma separators, and LF or
CRLF endings. JSON carries model summaries.
"""

from __future__ import annotations

import json

import numpy as np

from .signal import TimeSeries

__all__ = [
    "CsvParseError",
    "read_series",
    "write_series",
    "read_columns",
    "write_columns",
    "write_json",
]


class CsvParseError(ValueError):
    """Malformed CSV content, carrying the 1-based line and column where it was found."""

    def __init__(self, path, line: int, column: int, problem: str):
        self.path = path
        self.line = line
        self.column = column
        super().__init__(f"{path}: {problem}")


def _parse_rows(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().replace("\r\n", "\n").split("\n")
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call: exc.object is its bytes, exc.start an offset
        data = exc.object
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        problem = f"line {line} is not UTF-8: byte 0x{data[exc.start]:02x} at column {column}"
        raise CsvParseError(path, line, column, problem) from None
    try:
        # header heuristic: skip the first row if any cell is non-numeric
        [float(c.strip()) for c in lines[0].strip().split(",")]
        first = 1
    except ValueError:
        first = 2
    body = [line for line in lines[first - 1:] if line.strip()]
    if body:
        # loadtxt accepts a subset of what float() does and parses it to the same doubles
        try:
            return np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass  # the per-cell parse names the line and column at fault
    return _parse_cells(path, lines, first)


def _parse_cells(path, lines: list, first: int) -> np.ndarray:
    """Rows from line `first` (1-based) on, one float() per cell; blank lines are skipped."""
    rows = []
    width = None
    for line_no, raw in enumerate(lines[first - 1:], start=first):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if width is None:
            width = len(cells)
        if len(cells) != width:
            problem = f"line {line_no} has {len(cells)} cell(s), expected {width}"
            raise CsvParseError(path, line_no, min(len(cells), width) + 1, problem)
        parsed = []
        for col_no, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                problem = f"non-numeric cell {cell!r} at line {line_no}, column {col_no}"
                raise CsvParseError(path, line_no, col_no, problem) from None
        rows.append(parsed)
    if not rows:
        raise CsvParseError(path, 1, 1, "no numeric rows")
    return np.asarray(rows, dtype=np.float64)


def read_series(path) -> TimeSeries:
    """Read a univariate series (single numeric column)."""
    data = _parse_rows(path)
    if data.shape[1] != 1:
        raise CsvParseError(path, 1, 2, f"expected a single column, got {data.shape[1]}")
    return TimeSeries(data[:, 0])


def write_series(path, series: TimeSeries) -> None:
    """Write a univariate series, one sample per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in series.values.tolist():
            fh.write("%.17g\n" % v)


def read_columns(path) -> np.ndarray:
    """Read a multivariate file: columns are series, rows are time."""
    return _parse_rows(path)


def write_columns(path, columns: np.ndarray, header: str | None = None) -> None:
    """Write a (time x series) array as CSV columns."""
    columns = np.atleast_2d(np.asarray(columns, dtype=np.float64))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(header + "\n")
        # one % per row over Python floats; "%.17g" prints what format(v, ".17g") does
        line = ",".join(["%.17g"] * columns.shape[1]) + "\n"
        for row in columns:
            fh.write(line % tuple(row.tolist()))


def write_json(path, payload: dict) -> None:
    """Write a JSON summary deterministically (sorted keys, repr floats).

    A NaN or infinite value, which RFC 8259 JSON cannot hold, raises ValueError before the file opens.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def complex_pairs(values: np.ndarray) -> list:
    """Complex array as JSON-friendly [real, imag] pairs."""
    return [[float(v.real), float(v.imag)] for v in np.asarray(values)]
