"""CSV and JSON interchange.

CSV holds all numeric data: one column for a univariate series, columns as
series (rows as time) for multivariate data and ensembles. Values are written
with 17 significant digits so doubles round-trip exactly; readers accept a
leading BOM, an optional header row, comma separators and LF or CRLF endings,
decoding one line at a time into an array allocated once, so a read holds the
parsed array, not the file's text. JSON carries model summaries.
"""

from __future__ import annotations

import json
from itertools import chain

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


def _decoded(path, fh):
    """The lines of a binary file, decoded one at a time: split on LF only, with line 1's BOM dropped."""
    for line_no, raw in enumerate(fh, start=1):
        try:
            yield raw.decode("utf-8-sig" if line_no == 1 else "utf-8")
        except UnicodeDecodeError as exc:
            problem = f"line {line_no} is not UTF-8: byte 0x{exc.object[exc.start]:02x} at column {exc.start + 1}"
            raise CsvParseError(path, line_no, exc.start + 1, problem) from None


def _parse_rows(path) -> np.ndarray:
    with open(path, "rb") as fh:
        n_lines = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 16), b""))
        n_bytes = fh.tell()
        fh.seek(0)
        lines = _decoded(path, fh)
        head = next(lines, "")
        rows = (line for line in lines if line.strip())
        try:
            # header heuristic: skip the first row if any cell is non-numeric
            [float(c.strip()) for c in head.strip().split(",")]
            first = 1
        except ValueError:
            first, head = 2, next(rows, None)
        # loadtxt accepts a subset of what float() does and parses it to the same doubles;
        # it is never handed an empty input, on which it warns. A valid file has no more rows than lines,
        # nor than bytes over 2 per cell (a digit and a separator): loadtxt allocates that once, never grown.
        if head is not None:
            try:
                n = max(1, min(n_lines, (n_bytes + 1) // (2 * head.count(",") + 2)))  # head is a row
                out = np.loadtxt(chain([head], rows), delimiter=",", comments=None, ndmin=2, max_rows=n)
                if next(rows, None) is None:  # else a row past n is too short to be valid
                    return out
            except ValueError:
                pass  # the per-cell parse names the line and column at fault
    return _parse_cells(path, first)


def _parse_cells(path, first: int) -> np.ndarray:
    """Rows from line `first` (1-based) on, one float() per cell; blank lines are skipped."""
    rows = []
    width = None
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(_decoded(path, fh), start=1):
            line = raw.strip()
            if line_no < first or not line:
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
