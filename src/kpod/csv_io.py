"""CSV ingestion and emission: the one module that knows the file format.

Every CSV the package writes (data, labels, centroids, objective traces,
benchmark reports) has one header row, ``\n`` line ends, floats written with
``repr`` so a write/read round trip preserves every value bit for bit, and a
fixed text for a missing cell: the missing token ("NA" by default) in data
files, an empty cell in reports. On read, empty cells and the token are both
missing, blank lines at the end of the file are ignored, and every row must be
as wide as the header.

Data files are written a block of rows at a time. They are read a block of
lines at a time too, unless the file holds a quote, a lone ``\r`` or a NUL, or
a line holds a cell that is neither a finite number, the token nor empty; such
a file is read one cell at a time, which raises the errors. Either way the bytes
and values are those of the one-cell-at-a-time rules.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import islice, repeat
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

# Rows per block of a data file. A block's cells are Python strings at once,
# so this bounds the memory a read or write holds beyond the matrix itself.
_BLOCK_ROWS = 256


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


def _csv_line(cells: Sequence[str]) -> str:
    """``cells`` as ``csv.writer`` writes them: one quoted-as-needed line ending in ``\n``."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    return out.getvalue()


def _read_rows(path: Path, has_header: bool, width: int | None = None,
               ) -> tuple[list[str] | None, list[list[str]]]:
    """The stripped header (``None`` without one) and the data rows of a CSV.

    Every row, the header included, must have ``width`` fields (default: as
    many as the first row); a row that does not, a blank line between rows
    included, raises :class:`CsvParseError` with its 1-based line. So does a
    line the csv module cannot read, such as one with a field over its size
    limit.
    """
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise CsvParseError(f"{path}: {exc}", line=reader.line_num) from None
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        raise CsvParseError(f"{path}: file is empty")
    if has_header and len(rows) == 1:
        raise CsvParseError(f"{path}: no data rows after header")
    if width is None:
        width = len(rows[0])
    for line, row in enumerate(rows, start=1):
        if len(row) != width:
            raise CsvParseError(f"{path}: expected {width} fields, got {len(row)}", line=line)
    if has_header:
        return [cell.strip() for cell in rows[0]], rows[1:]
    return None, rows


def _csv_quirks(path: Path) -> bool:
    """Whether the bytes of ``path`` hold a quote, a NUL (which Python 3.10's csv
    rejects) or a ``\r`` outside a ``\r\n`` line end: text whose lines, split at
    commas, need not give the fields ``csv.reader`` gives."""
    with path.open("rb") as handle:
        while chunk := handle.read(1 << 20):
            if chunk.endswith(b"\r"):  # keep a \r\n line end in one chunk
                chunk += handle.read(1)
            if b'"' in chunk or b"\0" in chunk or (
                    b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n")):
                return True
    return False


def _plain_text(lines: list[str]) -> str | None:
    """The lines of a file without :func:`_csv_quirks`, joined with ``\n`` ends,
    if splitting each at commas gives the fields ``csv.reader`` gives.

    ``None`` for no lines, a blank line or a line longer than the csv module's
    field limit.
    """
    text = "".join(lines).replace("\r\n", "\n")
    if (not text or text[0] == "\n" or "\n\n" in text
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    return text


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
    read = _read_masked_blocks(path, missing_token, has_header, label_column)
    if read is None:
        read = _read_masked_cells(path, missing_token, has_header, label_column)
    return read


def _read_masked_blocks(path: Path, missing_token: str, has_header: bool,
                        label_column: str | None,
                        ) -> tuple[MaskedMatrix, Assignment | None] | None:
    """:func:`_read_masked_cells`' result, read a block of lines at a time, or ``None``.

    Blank lines at the end of the file are dropped, each other line is split
    at commas (see :func:`_plain_text`) and each cell stripped, as in the cell
    loop. Cells that are then the token or empty
    become ``"nan"``, and one ``np.fromiter`` takes ``float`` of every cell of
    a block. The block counts only if its NaNs are exactly those cells and
    every other value is finite, so each value is the cell loop's. Anything
    else, such as a literal ``nan``, a ragged row or a cell ``float`` rejects,
    gives ``None``: the cell loop then reads the file and raises its error
    with the line and column. So does a file with :func:`_csv_quirks`, before
    any block is parsed.
    """
    if _csv_quirks(path):
        return None
    as_nan = dict.fromkeys((missing_token, ""), "nan")
    label_idx = width = None
    blocks, raw_labels, n_rows = [], [], 0
    try:
        with path.open(newline="") as handle:
            if has_header:
                line = _plain_text([handle.readline()])
                if line is None:
                    return None
                header = [cell.strip() for cell in line.rstrip("\n").split(",")]
                width = len(header)
                if label_column is not None:
                    if label_column not in header:
                        return None
                    label_idx = header.index(label_column)
            elif label_column is not None:
                return None
            ended = False  # blank lines were dropped, so only blank lines may follow
            while lines := list(islice(handle, _BLOCK_ROWS)):
                n_lines = len(lines)
                while lines and lines[-1] in ("\n", "\r\n"):
                    lines.pop()
                if ended and lines:
                    return None
                ended = len(lines) < n_lines
                if not lines:
                    continue
                text = _plain_text(lines)
                if text is None:
                    return None
                if width is None:
                    width = lines[0].count(",") + 1
                if set(map(str.count, lines, repeat(","))) != {width - 1}:
                    return None
                cells = list(map(str.strip, text.rstrip("\n").replace("\n", ",").split(",")))
                if label_idx is not None:
                    block_labels = cells[label_idx::width]
                    if "" in block_labels or missing_token in block_labels:
                        return None
                    raw_labels += block_labels
                    del cells[label_idx::width]
                values = np.fromiter(map(float, map(as_nan.get, cells, cells)), float, len(cells))
                unobserved = np.isnan(values)
                if (np.count_nonzero(unobserved) != sum(map(cells.count, as_nan))
                        or not np.isfinite(values[~unobserved]).all()):
                    return None
                blocks.append(values)
                n_rows += len(lines)
    except ValueError:  # float() rejected a cell, or the file is not text
        return None
    if not blocks:
        return None
    values = np.concatenate(blocks).reshape(n_rows, width - (label_idx is not None))
    labels = _code_labels(raw_labels) if label_idx is not None else None
    return MaskedMatrix(values=values, observed=~np.isnan(values)), labels


def _read_masked_cells(path: Path, missing_token: str, has_header: bool,
                       label_column: str | None,
                       ) -> tuple[MaskedMatrix, Assignment | None]:
    """:func:`read_masked_csv` one cell at a time; the rules any faster read must match."""
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
    """Write a masked matrix as CSV, one header row then one row per sample.

    The bytes are those :func:`write_csv` writes with ``None`` for every
    unobserved cell, built a block of rows at a time.
    """
    if header is None:
        header = [f"x{j}" for j in range(x.n_cols)]
    elif len(header) != x.n_cols:
        raise CsvParseError(f"header has {len(header)} names for {x.n_cols} columns")
    # The token as csv.writer quotes it in a row; a row of one empty cell is written "".
    if x.n_cols == 1:
        missing = _csv_line([missing_token])[:-1]
    else:
        missing = _csv_line([missing_token, ""])[:-2]
    with Path(path).open("w", newline="") as handle:
        handle.write(_csv_line(header))
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
    _, rows = _read_rows(path, has_header=True, width=1)
    raw = [row[0].strip() for row in rows]
    if "" in raw:
        raise CsvParseError(f"{path}: missing label", line=raw.index("") + 2, column=1)
    return _code_labels(raw)


def write_labels_csv(labels: Assignment, path, column_name: str = "label") -> None:
    write_csv(path, [column_name], ([label] for label in labels.labels.tolist()))
