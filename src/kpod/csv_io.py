"""CSV ingestion and emission: the one module that knows the file format.

Every CSV the package reads or writes is UTF-8, whatever the locale, and
starts with one header row. Every CSV it writes (data, labels, centroids,
objective traces, benchmark reports) has ``\n`` line ends, floats written
with ``repr`` so a write/read round trip preserves every value bit for bit,
and a fixed text for a missing cell: the missing token ("NA" by default) in
data files, an empty cell in reports. On read, a leading byte-order mark is
ignored, a byte that is not UTF-8 is an error at its line, empty cells and the
token are both missing, blank lines at the end of the file are ignored, and
every row must be as wide as the header.

Data files are written a block of rows at a time, and read in one pass of
``csv.reader`` a block of records at a time, whatever their quoting or line
ends. The bytes, values and errors are those of the one-cell-at-a-time rules:
only a block that holds a bad cell is walked cell by cell, to locate it.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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

# Rows per block of a data file. A block's cells are Python strings at once,
# so this bounds the memory a read or write holds beyond the matrix itself.
_BLOCK_ROWS = 256


def format_cell(value) -> str:
    """Text of one cell: empty for ``None``, ``repr`` for floats."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write one header row, then one line per row with cells from :func:`format_cell`."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_cell(v) for v in row] for row in rows)


def _csv_line(cells: Sequence[str]) -> str:
    """``cells`` as ``csv.writer`` writes them: one quoted-as-needed line ending in ``\n``."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    return out.getvalue()


def _records(path: Path) -> Iterator[list[str]]:
    """The records ``csv.reader`` reads from ``path``, less the blank ones at
    the end: a blank record is held until a non-blank one follows it.

    A line the csv module cannot read, such as one with a field over its size
    limit, or a byte that is not UTF-8 raises :class:`CsvParseError` with its
    1-based line.
    """
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        blank = 0
        try:
            for record in reader:
                if not record:
                    blank += 1
                    continue
                yield from repeat([], blank)
                blank = 0
                yield record
        except csv.Error as exc:
            raise CsvParseError(f"{path}: {exc}", line=reader.line_num) from None
        except UnicodeDecodeError:
            # The decoder runs up to a buffer ahead of the reader, so the
            # reader's line is not the bad byte's: find it in the bytes.
            raw = path.read_bytes()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                # Lines end at \n, \r or \r\n, as the reader counts them.
                line = len((raw[:exc.start] + b"-").splitlines())
                raise CsvParseError(f"{path}: {exc}", line=line) from None
            raise


def _read_rows(path: Path, width: int | None = None) -> tuple[list[str], list[list[str]]]:
    """The stripped header and the data rows of a CSV.

    Every row, the header included, must have ``width`` fields (default: as
    many as the first row); a row that does not, a blank line between rows
    included, raises :class:`CsvParseError` with its 1-based line, as do the
    lines :func:`_records` cannot read.
    """
    rows = list(_records(path))
    if not rows:
        raise CsvParseError(f"{path}: file is empty")
    if len(rows) == 1:
        raise CsvParseError(f"{path}: no data rows after header")
    if width is None:
        width = len(rows[0])
    for line, row in enumerate(rows, start=1):
        if len(row) != width:
            raise CsvParseError(f"{path}: expected {width} fields, got {len(row)}", line=line)
    return [cell.strip() for cell in rows[0]], rows[1:]


def _code_labels(raw: list[str]) -> Assignment:
    """Code distinct label strings as 0..k-1 in sorted order."""
    codes = {value: code for code, value in enumerate(sorted(set(raw)))}
    return Assignment(labels=np.array([codes[v] for v in raw]))


def _float_cells(cells: list[str], as_nan: dict[str, str]) -> np.ndarray | None:
    """``float`` of every cell, the keys of ``as_nan`` as NaN, or ``None`` if
    some other cell is not a finite number."""
    try:
        values = np.fromiter(map(float, map(as_nan.get, cells, cells)), np.float64, len(cells))
    except ValueError:  # float() rejected a cell
        return None
    unobserved = np.isnan(values)
    if (np.count_nonzero(unobserved) != sum(map(cells.count, as_nan))
            or not np.isfinite(values[~unobserved]).all()):
        return None
    return values


def _bad_cell(path: Path, rows: list[list[str]], first_line: int, missing_token: str,
              label_idx: int | None) -> CsvParseError | None:
    """The error of the first cell of ``rows`` (whose first row is on file line
    ``first_line``) that is a missing label, or a feature cell neither missing
    nor a finite number; ``None`` if there is none."""
    for line, row in enumerate(rows, start=first_line):
        for column, cell in enumerate(map(str.strip, row), start=1):
            if cell == "" or cell == missing_token:
                if column - 1 == label_idx:
                    return CsvParseError(f"{path}: missing label", line=line, column=column)
            elif column - 1 != label_idx:
                try:
                    parsed = float(cell)
                except ValueError:
                    return CsvParseError(
                        f"{path}: non-numeric cell {cell!r}", line=line, column=column)
                if not math.isfinite(parsed):
                    return CsvParseError(
                        f"{path}: non-finite cell {cell!r}", line=line, column=column)
    return None


def read_masked_csv(path, missing_token: str = DEFAULT_MISSING_TOKEN,
                    label_column: str | None = None,
                    ) -> tuple[MaskedMatrix, Assignment | None]:
    """Read a rectangular numeric CSV, header row first, into a masked matrix.

    Empty cells and cells equal to ``missing_token`` (after stripping) become
    unobserved. If ``label_column`` names a header column, that column is
    pulled out as ground-truth labels (distinct values coded 0..k-1 in sorted
    order) and excluded from the features. Parse problems raise
    :class:`CsvParseError` with a 1-based file line and column.

    One pass of :func:`_records` takes the file ``_BLOCK_ROWS`` records at a
    time, and one ``np.fromiter`` takes ``float`` of every cell of a block,
    the token and empty cells as ``"nan"``. A line the csv module cannot read
    raises at once. Any other fault is raised after the last line, in this
    order: no data rows, the first row not as wide as the header, a bad
    ``label_column``, the first bad cell.
    """
    path = Path(path)
    records = _records(path)
    header = next(records, None)
    if header is None:
        raise CsvParseError(f"{path}: file is empty")
    # fault: the label column's, else the first bad cell's, which it outranks.
    width, label_idx, fault = len(header), None, None
    if label_column is not None:
        header = [cell.strip() for cell in header]
        if label_column in header:
            label_idx = header.index(label_column)
        else:
            fault = CsvParseError(
                f"{path}: no column named {label_column!r}; columns are {header}")
    as_nan = dict.fromkeys((missing_token, ""), "nan")
    blocks, raw_labels = [], []
    width_fault = None
    line = 1  # records before the block
    while block := list(islice(records, _BLOCK_ROWS)):
        if width_fault is None and set(map(len, block)) != {width}:
            i = next(i for i, row in enumerate(block) if len(row) != width)
            width_fault = CsvParseError(
                f"{path}: expected {width} fields, got {len(block[i])}", line=line + i + 1)
        if width_fault is None and fault is None:
            cells = list(map(str.strip, chain.from_iterable(block)))
            labels = []
            if label_idx is not None:
                labels = cells[label_idx::width]
                del cells[label_idx::width]
                raw_labels += labels
            values = _float_cells(cells, as_nan)
            if values is None or "" in labels or missing_token in labels:
                fault = _bad_cell(path, block, line + 1, missing_token, label_idx)
            blocks.append(values)
        line += len(block)
    if line == 1:
        raise CsvParseError(f"{path}: no data rows after header")
    if width_fault or fault:
        raise width_fault or fault
    values = np.concatenate(blocks).reshape(line - 1, width - (label_idx is not None))
    labels = _code_labels(raw_labels) if label_idx is not None else None
    return MaskedMatrix(values=values, observed=~np.isnan(values)), labels


def write_masked_csv(x: MaskedMatrix, path, missing_token: str = DEFAULT_MISSING_TOKEN) -> None:
    """Write a masked matrix as CSV, the header ``x0 .. x{p-1}`` then one row
    per sample, ``missing_token`` for every unobserved cell.

    The bytes are those ``csv.writer`` writes a cell at a time, built a block
    of rows at a time.
    """
    # The token as csv.writer quotes it in a row; a row of one empty cell is written "".
    if x.n_cols == 1:
        missing = _csv_line([missing_token])[:-1]
    else:
        missing = _csv_line([missing_token, ""])[:-2]
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(_csv_line([f"x{j}" for j in range(x.n_cols)]))
        for start in range(0, x.n_rows, _BLOCK_ROWS):
            values = x.values[start:start + _BLOCK_ROWS]
            cells = np.array(list(map(repr, values.ravel().tolist())), dtype=object)
            cells = cells.reshape(values.shape)
            cells[~x.observed[start:start + _BLOCK_ROWS]] = missing
            handle.write("".join([",".join(row) + "\n" for row in cells.tolist()]))


def read_labels_csv(path) -> Assignment:
    """Read a single-column label CSV (header row, then one label per row).

    An empty label cell raises :class:`CsvParseError` with its 1-based line.
    """
    path = Path(path)
    _, rows = _read_rows(path, width=1)
    raw = [row[0].strip() for row in rows]
    if "" in raw:
        raise CsvParseError(f"{path}: missing label", line=raw.index("") + 2, column=1)
    return _code_labels(raw)


def write_labels_csv(labels: Assignment, path) -> None:
    """Write labels as a one-column CSV headed ``label``."""
    write_csv(path, ["label"], ([label] for label in labels.labels.tolist()))
