"""CSV ingestion and emission: the one module that knows the file format.

Every CSV the package writes (data, labels, centroids, objective traces,
benchmark reports) has one header row, ``\n`` line ends, floats written with
``repr`` so a write/read round trip preserves every value bit for bit, and a
fixed text for a missing cell: the missing token ("NA" by default) in data
files, an empty cell in reports. On read, empty cells and the token are both
missing, and blank lines at the end of the file are ignored.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CsvParseError
from .kmeans import Assignment
from .masked import MaskedMatrix

__all__ = [
    "format_cell",
    "write_csv",
    "read_masked_csv",
    "write_masked_csv",
    "read_labels_csv",
    "write_labels_csv",
]

DEFAULT_MISSING_TOKEN = "NA"


def format_cell(value, missing_token: str = "") -> str:
    """Text of one cell: ``missing_token`` for ``None``, ``repr`` for floats."""
    if value is None:
        return missing_token
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Iterable],
              missing_token: str = "") -> None:
    """Write one header row, then one line per row with cells from :func:`format_cell`."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_cell(v, missing_token) for v in row] for row in rows)


def _read_rows(path: Path, has_header: bool, width: int | None = None,
               ) -> tuple[list[str] | None, list[list[str]]]:
    """The stripped header (``None`` without one) and the data rows of a CSV.

    Every data row must have ``width`` fields (default: as many as the first
    data row); a row that does not, a blank line between rows included,
    raises :class:`CsvParseError` with its 1-based line.
    """
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        raise CsvParseError(f"{path}: file is empty")
    header = None
    if has_header:
        header, rows = [cell.strip() for cell in rows[0]], rows[1:]
        if not rows:
            raise CsvParseError(f"{path}: no data rows after header")
    if width is None:
        width = len(rows[0])
    for line, row in enumerate(rows, start=1 + has_header):
        if len(row) != width:
            raise CsvParseError(f"{path}: expected {width} fields, got {len(row)}", line=line)
    return header, rows


def _code_labels(raw: list[str]) -> Assignment:
    """Code distinct label strings as 0..k-1 in sorted order."""
    codes = {value: code for code, value in enumerate(sorted(set(raw)))}
    return Assignment(labels=np.array([codes[v] for v in raw]))


def read_masked_csv(path, missing_token: str = DEFAULT_MISSING_TOKEN,
                    has_header: bool = True, label_column: str | None = None,
                    ) -> tuple[MaskedMatrix, Assignment | None]:
    """Read a rectangular numeric CSV into a masked matrix.

    Empty cells and cells equal to ``missing_token`` become unobserved. If
    ``label_column`` names a header column, that column is pulled out as
    ground-truth labels (distinct values coded 0..k-1 in sorted order) and
    excluded from the features. Parse problems raise :class:`CsvParseError`
    with a 1-based file line and column.
    """
    path = Path(path)
    header, rows = _read_rows(path, has_header)

    label_idx: int | None = None
    if label_column is not None:
        if header is None:
            raise CsvParseError(f"{path}: label_column requires a header row")
        if label_column not in header:
            raise CsvParseError(
                f"{path}: no column named {label_column!r}; columns are {header}"
            )
        label_idx = header.index(label_column)

    values = np.zeros((len(rows), len(rows[0]) - (label_idx is not None)), dtype=float)
    observed = np.ones_like(values, dtype=bool)
    raw_labels: list[str] = []
    for i, row in enumerate(rows):
        line = i + 1 + has_header
        j_out = 0
        for j, cell in enumerate(row):
            cell = cell.strip()
            if j == label_idx:
                if cell == "" or cell == missing_token:
                    raise CsvParseError(f"{path}: missing label", line=line, column=j + 1)
                raw_labels.append(cell)
                continue
            if cell == "" or cell == missing_token:
                observed[i, j_out] = False
            else:
                try:
                    parsed = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"{path}: non-numeric cell {cell!r}", line=line, column=j + 1
                    ) from None
                if not math.isfinite(parsed):
                    raise CsvParseError(
                        f"{path}: non-finite cell {cell!r}", line=line, column=j + 1
                    )
                values[i, j_out] = parsed
            j_out += 1

    labels = _code_labels(raw_labels) if label_idx is not None else None
    return MaskedMatrix(values=values, observed=observed), labels


def write_masked_csv(x: MaskedMatrix, path, missing_token: str = DEFAULT_MISSING_TOKEN,
                     header: Sequence[str] | None = None) -> None:
    """Write a masked matrix as CSV, one header row then one row per sample."""
    if header is None:
        header = [f"x{j}" for j in range(x.n_cols)]
    elif len(header) != x.n_cols:
        raise CsvParseError(f"header has {len(header)} names for {x.n_cols} columns")
    rows = ([v if seen else None for v, seen in zip(values, observed)]
            for values, observed in zip(x.values.tolist(), x.observed.tolist()))
    write_csv(path, header, rows, missing_token)


def read_labels_csv(path) -> Assignment:
    """Read a single-column label CSV (header row, then one label per row)."""
    _, rows = _read_rows(Path(path), has_header=True, width=1)
    return _code_labels([row[0].strip() for row in rows])


def write_labels_csv(labels: Assignment, path, column_name: str = "label") -> None:
    write_csv(path, [column_name], ([label] for label in labels.labels.tolist()))
