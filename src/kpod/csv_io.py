"""CSV ingestion and emission: the one module that knows the file format.

Every CSV the package reads or writes is UTF-8, whatever the locale, and
starts with one header row. Every CSV it writes (data, labels, centroids,
objective traces, benchmark reports) has ``\n`` line ends, floats written
with ``repr`` so a write/read round trip preserves every value bit for bit,
and a fixed text for a missing cell: the missing token ("NA" by default) in
data files, an empty cell in reports. On read, a leading byte-order mark is
ignored, a byte that is not UTF-8 is an error at its line, empty cells and the
token are both missing, blank lines at the end of the file are ignored, and
every row must be as wide as the header. A label file is read by the same
rules, its one column the label column, with only an empty cell missing.

Data files are written a block of rows at a time. A data file read without a
label column, whose missing token is not empty and holds no comma, quote or
whitespace (what ``kpod ampute`` and ``kpod cluster`` read), goes to numpy's C
parser a block of lines at a time, the token's cells rewritten to ``nan``. A
file with a quote or NUL byte, or any block that parser might read otherwise
than these rules do, is read again from the start as every label file and
labelled data file is: in one pass of ``csv.reader`` a block of records at a
time, whatever their quoting or line ends. The bytes, values and errors are
those of the one-cell-at-a-time rules either way: only a block that holds a
bad cell is walked cell by cell, to locate it. A fault names the file line its
record starts on, except that a line the csv module cannot read, or a byte
that is not UTF-8, is named by the line where the reader met it.
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
    "read_masked_csv",
    "write_masked_csv",
    "read_labels_csv",
    "write_labels_csv",
]

DEFAULT_MISSING_TOKEN = "NA"

# Rows per block of a data file. A block's lines or cells are Python strings at once,
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


def _records(path: Path) -> Iterator[tuple[int, list[str]]]:
    """``(line, record)`` for each record ``csv.reader`` reads from ``path``,
    ``line`` the 1-based file line it starts on, less the blank records at the
    end: a blank record is held until a non-blank one follows it. A line the
    csv module cannot read, such as one with a field over its size limit, or a
    byte that is not UTF-8 raises :class:`CsvParseError` with its 1-based line.
    """
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        line, blank = 1, []
        try:
            for record in reader:
                if not record:
                    blank.append(line)
                else:
                    if blank:
                        yield from zip(blank, repeat([]))
                        blank = []
                    yield line, record
                line = reader.line_num + 1
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


def _bad_cell(path: Path, records: Iterable[tuple[int, list[str]]], missing_token: str,
              label_idx: int | None) -> CsvParseError | None:
    """The error of the first cell of the ``(line, record)`` pairs ``records``
    that is a missing label, or a feature cell neither missing nor a finite
    number; ``None`` if there is none."""
    for line, row in records:
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


def _plain_block(text: str, rows: int, width: int, missing_token: str) -> np.ndarray | None:
    """The values of a block ``text`` of ``rows`` lines for :func:`_read_plain`,
    or ``None`` if the block fails its checks on them; a ValueError if numpy
    refuses a line. The rewritten text lives only while numpy parses it."""
    replaced = text.replace(missing_token, "nan")
    # Each rewrite changes the length by the same amount, unless the token is
    # 3 characters long, as "nan" is.
    tokens = (text.count(missing_token) if len(missing_token) == 3
              else (len(replaced) - len(text)) // (3 - len(missing_token)))
    values = np.loadtxt(io.StringIO(replaced), delimiter=",", comments=None, dtype=np.float64,
                        ndmin=2)
    nan = np.isnan(values)
    if (values.shape != (rows, width) or np.count_nonzero(nan) != tokens
            or "+" + missing_token in text or np.signbit(values[nan]).any()
            or np.isinf(values).any()):
        return None
    return values


def _read_plain(path: Path, missing_token: str) -> np.ndarray | None:
    """The values of a label-less data file, NaN where missing, as numpy's C
    parser reads them ``_BLOCK_ROWS`` lines at a time, the token's cells
    rewritten to ``nan``; ``None`` if the token or some block is not one it
    surely reads by the one-cell-at-a-time rules.

    A block is kept only if it holds no ``"`` or NUL and no line longer than
    the csv field limit, gives one row per non-blank line, each as wide as the
    header, as many NaNs as token cells, none of them negative or after a
    ``+``, and finite values elsewhere. Blank lines may only end the file.
    """
    if not missing_token or any(c in ',"' or c.isspace() for c in missing_token):
        return None
    limit, blocks, trailing = csv.field_size_limit(), [], False
    try:
        with path.open(encoding="utf-8-sig") as handle:  # universal newlines
            header = handle.readline()
            if header == "\n" or '"' in header or len(header) > limit:
                return None
            width = header.count(",") + 1
            while lines := list(islice(handle, _BLOCK_ROWS)):
                text, rows = "".join(lines), len(lines) - lines.count("\n")
                if ('"' in text or "\0" in text or max(map(len, lines)) > limit
                        or "\n" in lines[:rows] or (trailing and rows)):
                    return None
                trailing = rows < len(lines)
                if rows:
                    values = _plain_block(text, rows, width, missing_token)
                    if values is None:
                        return None
                    blocks.append(values)
    except ValueError:  # numpy refused a line, or a byte is not UTF-8
        return None
    return np.concatenate(blocks) if blocks else None


def _read_table(path: Path, missing_token: str, label_column: str | None = None,
                width: int | None = None, label_idx: int | None = None,
                ) -> tuple[np.ndarray, Assignment | None]:
    """The feature values of a CSV, NaN where missing, and the labels of the
    header column named ``label_column``, else of column ``label_idx``, if
    either is given, distinct values coded 0..k-1 in sorted order. Every
    record, the header included, must have ``width`` fields (default: as many
    as the header).

    A read with no label column takes :func:`_read_plain`'s values if it
    gives them. Otherwise one pass of :func:`_records` takes the file
    ``_BLOCK_ROWS`` records at a time, and one ``np.fromiter`` takes ``float``
    of every cell of a block, the token and empty cells as ``"nan"``. A line
    the csv module cannot read raises at once. Any other fault is raised
    after the last line, in this order: no data rows, the first record not
    ``width`` wide, a bad ``label_column``, the first bad cell.
    """
    if label_column is None and label_idx is None:
        values = _read_plain(path, missing_token)
        if values is not None:
            return values, None
    records = _records(path)
    line, header = next(records, (1, None))
    if header is None:
        raise CsvParseError(f"{path}: file is empty")
    # fault: the label column's, else the first bad cell's, which it outranks.
    width, width_fault, fault = width or len(header), None, None
    if len(header) != width:
        width_fault = CsvParseError(
            f"{path}: expected {width} fields, got {len(header)}", line=line)
    if label_column is not None:
        header = [cell.strip() for cell in header]
        if label_column in header:
            label_idx = header.index(label_column)
        else:
            fault = CsvParseError(
                f"{path}: no column named {label_column!r}; columns are {header}")
    as_nan = dict.fromkeys((missing_token, ""), "nan")
    blocks, raw_labels, n_rows = [], [], 0
    while numbered := list(islice(records, _BLOCK_ROWS)):
        _, block = zip(*numbered)
        n_rows += len(block)
        if width_fault is None and set(map(len, block)) != {width}:
            line, row = next(pair for pair in numbered if len(pair[1]) != width)
            width_fault = CsvParseError(
                f"{path}: expected {width} fields, got {len(row)}", line=line)
        if width_fault is None and fault is None:
            cells = list(map(str.strip, chain.from_iterable(block)))
            labels = []
            if label_idx is not None:
                labels = cells[label_idx::width]
                del cells[label_idx::width]
                raw_labels += labels
            values = _float_cells(cells, as_nan)
            if values is None or "" in labels or missing_token in labels:
                fault = _bad_cell(path, numbered, missing_token, label_idx)
            blocks.append(values)
    if n_rows == 0:
        raise CsvParseError(f"{path}: no data rows after header")
    if width_fault or fault:
        raise width_fault or fault
    values = np.concatenate(blocks).reshape(n_rows, width - (label_idx is not None))
    if label_idx is None:
        return values, None
    codes = {value: code for code, value in enumerate(sorted(set(raw_labels)))}
    return values, Assignment(labels=np.array([codes[v] for v in raw_labels]))


def read_masked_csv(path, missing_token: str = DEFAULT_MISSING_TOKEN,
                    label_column: str | None = None,
                    ) -> tuple[MaskedMatrix, Assignment | None]:
    """Read a rectangular numeric CSV, header row first, into a masked matrix.

    Empty cells and cells equal to ``missing_token`` (after stripping) become
    unobserved. If ``label_column`` names a header column, that column is
    pulled out as ground-truth labels (distinct values coded 0..k-1 in sorted
    order) and excluded from the features. A fault raises
    :class:`CsvParseError` with the 1-based file line its record starts on
    and, for a bad cell, its column, in the order :func:`_read_table` gives.
    """
    values, labels = _read_table(Path(path), missing_token, label_column)
    # The values are the reader's own: zero their missing cells in place and
    # wrap them, and the mask, with no copy.
    observed = np.isnan(values)
    values[observed] = 0.0
    return MaskedMatrix._adopt(values, np.logical_not(observed, out=observed)), labels


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

    The file follows the data-file rules of :func:`read_masked_csv`, its one
    column the label column, with only an empty cell missing, so ``NA`` is a
    label like any other. A missing label raises :class:`CsvParseError` with
    the 1-based file line its record starts on.
    """
    return _read_table(Path(path), "", width=1, label_idx=0)[1]


def write_labels_csv(labels: Assignment, path) -> None:
    """Write labels as a one-column CSV headed ``label``: the bytes
    :func:`write_csv` writes, as labels are integers ``csv.writer`` never quotes."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write("".join(map("{}\n".format, ["label", *labels.labels.tolist()])))
