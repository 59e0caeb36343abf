import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kpod import (
    Assignment,
    CsvParseError,
    MaskedMatrix,
    read_labels_csv,
    read_masked_csv,
    write_labels_csv,
    write_masked_csv,
)
from kpod import csv_io
from kpod.cli import cli

SRC = Path(__file__).resolve().parents[1] / "src"

WINE_LIKE = """class,alcohol,ash,hue
1,14.23,2.43,1.04
1,13.20,2.14,1.05
2,12.37,1.92,1.02
2,12.33,NA,0.94
3,13.71,2.45,0.64
3,12.85,,0.69
"""


class TestReadMaskedCsv:
    def test_no_missing_tokens_gives_complete_mask(self, tmp_path):
        path = tmp_path / "data.csv"
        for trailing in ["", "\n", "\n\n"]:  # blank lines at the end are ignored
            path.write_text("a,b\n1,2\n3,4\n" + trailing)
            x, labels = read_masked_csv(path)
            assert x.complete()
            assert labels is None
            assert np.array_equal(x.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_na_and_empty_cells_masked_exactly_there(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n5,6,7,8\n9,10,NA,12\n13,,15,16\n")
        x, _ = read_masked_csv(path)
        assert not x.observed[2, 2]
        assert not x.observed[3, 1]
        assert x.n_observed == 14

    def test_label_column_extracted(self, tmp_path):
        path = tmp_path / "wine.csv"
        path.write_text(WINE_LIKE)
        x, labels = read_masked_csv(path, label_column="class")
        assert x.shape == (6, 3)
        assert labels is not None
        assert sorted(set(labels.labels.tolist())) == [0, 1, 2]
        assert labels.labels.tolist() == [0, 0, 1, 1, 2, 2]
        assert not x.observed[3, 1] and not x.observed[5, 1]

    def test_custom_missing_token(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a\n?\n1\n")
        x, _ = read_masked_csv(path, missing_token="?")
        assert not x.observed[0, 0] and x.observed[1, 0]

    def test_ragged_row_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text, read in [("a,b\n1,2\n3\n", read_masked_csv),
                           ("a,b\n1,2\n\n3,4\n", read_masked_csv),  # blank line inside
                           ("label\na\n\nb\n", read_labels_csv),
                           ("label\na\nb,c\n", read_labels_csv)]:
            path.write_text(text)
            with pytest.raises(CsvParseError) as err:
                read(path)
            assert err.value.line == 3

    def test_non_numeric_cell_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(CsvParseError) as err:
            read_masked_csv(path)
        assert err.value.line == 3 and err.value.column == 2

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a\ninf\n")
        with pytest.raises(CsvParseError):
            read_masked_csv(path)

    def test_unknown_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(CsvParseError):
            read_masked_csv(path, label_column="nope")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvParseError):
            read_masked_csv(path)


class TestRoundTrip:
    def test_values_and_mask_survive_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 1, (12, 5)) * np.array([1e-12, 1.0, 1e7, np.pi, 1 / 3])
        observed = rng.random((12, 5)) >= 0.3
        observed[0, :] = True
        x = MaskedMatrix(values=values, observed=observed)
        path = tmp_path / "round.csv"
        write_masked_csv(x, path)
        back, _ = read_masked_csv(path)
        assert np.array_equal(back.observed, x.observed)
        assert np.array_equal(back.values, x.values)  # bitwise via repr round trip


def _code_labels(raw):
    """Distinct label strings coded 0..k-1 in sorted order."""
    codes = {value: code for code, value in enumerate(sorted(set(raw)))}
    return Assignment(labels=np.array([codes[v] for v in raw]))


def _read_labels_by_rows(path):
    """``read_labels_csv`` as it was before it took the data-file path, when a
    fault's line counted records; on files of one-line records that is the line."""
    rows = [record for _, record in _file_records(path)]
    if not rows:
        raise CsvParseError(f"{path}: file is empty")
    if len(rows) == 1:
        raise CsvParseError(f"{path}: no data rows after header")
    for line, row in enumerate(rows, start=1):
        if len(row) != 1:
            raise CsvParseError(f"{path}: expected 1 fields, got {len(row)}", line=line)
    raw = [row[0].strip() for row in rows[1:]]
    if "" in raw:
        raise CsvParseError(f"{path}: missing label", line=raw.index("") + 2, column=1)
    return _code_labels(raw)


def _label_outcome(read, path):
    try:
        return read(path).labels.tolist()
    except CsvParseError as exc:
        return type(exc), str(exc), exc.line, exc.column


@st.composite
def label_files(draw):
    """The text of a label file of one-line records, maybe with a byte-order
    mark, a header not one field wide, empty or quoted labels, ragged rows,
    blank lines, ``\r\n`` or ``\r`` line ends, or 250-300 plain rows first."""
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = draw(st.sampled_from(["label", " label ", '"label"', "NA", "", "label,extra"]))
    cells = ["a", "b", " c ", "NA", "1", "é", '"q"', '"x,y"', '""', " ", "", "b,c"]
    lines = draw(st.lists(st.sampled_from(cells), max_size=6))
    if draw(st.integers(0, 3)) == 0:
        lines[:0] = ["a"] * draw(st.integers(250, 300))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + end.join([header] + lines) + draw(st.sampled_from(["", end, end * 2]))


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        labels = Assignment(labels=np.array([2, 0, 1, 1, 0]))
        path = tmp_path / "labels.csv"
        write_labels_csv(labels, path)
        back = read_labels_csv(path)
        assert np.array_equal(back.labels, labels.labels)

    def test_string_labels_coded(self, tmp_path):
        path = tmp_path / "labels.csv"
        for trailing in ["", "\n", "\n\n"]:
            path.write_text("label\nsetosa\nversicolor\nsetosa\n" + trailing)
            got = read_labels_csv(path)
            assert got.labels.tolist() == [0, 1, 0]

    def test_empty_label_cell_located(self, tmp_path):
        path = tmp_path / "labels.csv"
        for text in ['label\na\n""\nb\n', "label\na\n  \nb\n"]:
            path.write_text(text)
            with pytest.raises(CsvParseError, match="missing label") as info:
                read_labels_csv(path)
            assert info.value.line == 3

    def test_label_reads_do_not_go_through_the_data_reader(self, tmp_path, monkeypatch):
        # A wrapper of read_masked_csv, such as a tracer, then counts data reads only.
        def refuse(*args, **kwargs):
            raise AssertionError("read_masked_csv called")

        monkeypatch.setattr(csv_io, "read_masked_csv", refuse)
        path = tmp_path / "labels.csv"
        path.write_text("label\nb\na\nNA\n")
        assert read_labels_csv(path).labels.tolist() == [2, 1, 0]

    @settings(deadline=None, max_examples=300)
    @given(label_files())
    def test_one_line_records_read_as_before(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("labels") / "labels.csv"
        _write_text(path, text)
        assert _label_outcome(read_labels_csv, path) == _label_outcome(_read_labels_by_rows, path)

    def test_needs_rows(self, tmp_path):
        path = tmp_path / "labels.csv"
        for text in ["", "label\n", "label\n\n"]:
            path.write_text(text)
            with pytest.raises(CsvParseError):
                read_labels_csv(path)


def _read_labelled(path):
    return read_masked_csv(path, label_column="class")


class TestFaultLines:
    # A fault names the file line its record starts on, past records that span lines.
    @pytest.mark.parametrize("text, read, match, line, column", [
        ('a,b\n"1\n",2\n3\n', read_masked_csv, "expected 2 fields, got 1", 4, None),
        ('a,b\n" 1\n",3\n4,oops\n', read_masked_csv, "non-numeric cell 'oops'", 4, 2),
        ('class,b\n"a\nb",3\n,4\n', _read_labelled, "missing label", 4, 1),
        ('label\n"a\nb"\n\nc\n', read_labels_csv, "expected 1 fields, got 0", 4, None),
        ('label\r\n"a\r\nb"\r\nc\r\n""\r\n', read_labels_csv, "missing label", 5, 1),
        ('a,b\n"\n",1\n"2\n",oops\n', read_masked_csv, "non-numeric cell 'oops'", 4, 2),
        ('a,b\n"\n",1\n3,"x\ny"\n', read_masked_csv, "non-numeric cell 'x", 4, 2),
    ], ids=["width", "cell", "label", "label-file-blank-line", "label-file-empty-label",
            "cell-on-a-later-line-of-its-record", "cell-spanning-lines"])
    def test_after_a_record_that_spans_lines(self, tmp_path, text, read, match, line, column):
        path = tmp_path / "data.csv"
        _write_text(path, text)
        with pytest.raises(CsvParseError, match=match) as err:
            read(path)
        assert (err.value.line, err.value.column) == (line, column)


class TestRowWidth:
    def test_rows_must_be_as_wide_as_the_header(self, tmp_path):
        path = tmp_path / "data.csv"
        for text, label_column in [("a,b,c\n1,2\n3,4\n", "c"),  # used to be an IndexError
                                   ("a,b,c\n1,2\n3,4\n", None),
                                   ("a\n1,2\n3,4\n", None),
                                   ("a,b\n1,2,3\n4,5,6\n", None)]:
            path.write_text(text)
            with pytest.raises(CsvParseError, match="expected") as err:
                read_masked_csv(path, label_column=label_column)
            assert err.value.line == 2

    def test_label_header_is_one_column(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label,extra\na\nb\n")
        with pytest.raises(CsvParseError) as err:
            read_labels_csv(path)
        assert err.value.line == 1

    def test_field_over_the_csv_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "big.csv"
        for text, read in [("a,b\n1,2\n3," + "0" * 131073 + "\n", read_masked_csv),
                           ("label\na\n" + "b" * 131073 + "\n", read_labels_csv)]:
            path.write_text(text)
            with pytest.raises(CsvParseError, match="field larger than field limit") as err:
                read(path)
            assert err.value.line == 3


# Reads a UTF-8 label file and round-trips a data file whose missing token is not ASCII.
ENCODING_RUN = """
import sys
from pathlib import Path
from kpod import read_labels_csv, read_masked_csv, write_masked_csv
folder = Path(sys.argv[1])
print(read_labels_csv(folder / "labels.csv").labels.tolist())
x, _ = read_masked_csv(folder / "data.csv", missing_token="\\u2014")
write_masked_csv(x, folder / sys.argv[2], missing_token="\\u2014")
"""


class TestEncoding:
    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        (tmp_path / "labels.csv").write_bytes("label\ncafé\ncafe\ncafé\n".encode())
        (tmp_path / "data.csv").write_bytes("a,b\n1.5,—\n—,2\n".encode())
        runs = {}
        for name, env in [("utf8", {"PYTHONUTF8": "1"}),
                          ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0",
                                     "PYTHONCOERCECLOCALE": "0"})]:
            env = {**os.environ, **env, "PYTHONPATH": str(SRC)}
            runs[name] = subprocess.run(
                [sys.executable, "-c", ENCODING_RUN, str(tmp_path), f"{name}.csv"],
                env=env, capture_output=True, text=True, timeout=60)
            assert runs[name].returncode == 0, runs[name].stderr[-2000:]
        assert runs["ascii"].stdout == runs["utf8"].stdout == "[1, 0, 1]\n"
        want = "x0,x1\n1.5,—\n—,2.0\n".encode()
        assert (tmp_path / "ascii.csv").read_bytes() == (tmp_path / "utf8.csv").read_bytes() == want

    @pytest.mark.parametrize("data, read, line", [
        (b"a,b\n1,2\n3,\xe94\n", read_masked_csv, 3),
        (b"a,b\r\n1,2\r\n3,4\r5,\xe96\r\n", read_masked_csv, 4),
        (b"a,b\n" + b"1.5,NA\n" * 598 + b"2,\xff\n" + b"1.5,NA\n" * 200, read_masked_csv, 600),
        (b"a,b\n" + b"1.5,NA\n" * 2498 + b"2,\xff\n" + b"1.5,NA\n", read_masked_csv, 2500),
        (b"label\na\n\xff\nb\n", read_labels_csv, 3),
        (b"label\na\nb\xc3", read_labels_csv, 3),
        (b'a,b\n"1\n",2\n3,\xe94\n', read_masked_csv, 4),
    ], ids=["block-1", "cr-and-crlf", "block-3", "past-the-first-buffer", "labels",
         "labels-cut-short", "after-a-record-of-two-lines"])
    def test_a_byte_that_is_not_utf8_is_a_parse_error_at_its_line(self, tmp_path, data, read,
                                                                  line):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        with pytest.raises(CsvParseError, match="can't decode byte") as err:
            read(path)
        assert (err.value.line, err.value.column) == (line, None)

    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbfclass,x\n2,2.5\n1,NA\n")
        x, labels = read_masked_csv(path, label_column="class")
        assert labels.labels.tolist() == [1, 0]
        assert x.values.tolist() == [[2.5], [0.0]] and x.observed.tolist() == [[True], [False]]
        path.write_bytes(b"\xef\xbb\xbflabel\nb\na\n")
        assert read_labels_csv(path).labels.tolist() == [1, 0]


# Floats whose repr spans the scales a data file can hold, subnormals and -0.0 included.
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                     1.7976931348623157e308, 0.1, 1 / 3]),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-300, 300)),
)
# Cells the block read must reject or read as the cell loop does.
ODD_CELLS = ["", " NA ", "\t2 ", "  ", "nan", "-nan", "inf", "-inf", "1e999", "1_0", '"1.5"',
             '"7', '"1,5"', '"NA"', "#3", "١٢", "0x10", " ", "-999", "1\x002", "1\r2"]
# Quoted cells that hold a line break, as they are written in a file.
MULTILINE_CELLS = ['"1.5\n"', '"\r\n2"', '"\n"', '"NA\r"', '"x\ny"']


def _file_records(path):
    """``(line, record)`` for every record of ``path`` but the blank ones at the
    end, each line counted from the line breaks in the fields before it."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            records = list(reader)
        except csv.Error as exc:
            raise CsvParseError(f"{path}: {exc}", line=reader.line_num) from None
    while records and not records[-1]:
        records.pop()
    numbered, line = [], 1
    for record in records:
        numbered.append((line, record))
        line += 1 + sum(len(re.findall("\r\n|\r|\n", cell)) for cell in record)
    return numbered


def _read_by_cells(path, missing_token, label_column):
    """``read_masked_csv`` one cell at a time; the rules any faster read must match."""
    records = _file_records(path)
    if not records:
        raise CsvParseError(f"{path}: file is empty")
    if len(records) == 1:
        raise CsvParseError(f"{path}: no data rows after header")
    width = len(records[0][1])
    for line, row in records:
        if len(row) != width:
            raise CsvParseError(f"{path}: expected {width} fields, got {len(row)}", line=line)
    header = [cell.strip() for cell in records[0][1]]
    rows = records[1:]

    label_idx: int | None = None
    if label_column is not None:
        if label_column not in header:
            raise CsvParseError(
                f"{path}: no column named {label_column!r}; columns are {header}"
            )
        label_idx = header.index(label_column)

    values = np.zeros((len(rows), width - (label_idx is not None)), dtype=float)
    observed = np.ones_like(values, dtype=bool)
    raw_labels: list[str] = []
    for i, (line, row) in enumerate(rows):
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


def _outcome(read, path, *args):
    try:
        x, labels = read(path, *args)
    except CsvParseError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return (x.values.shape, x.values.tobytes(), x.observed.tobytes(),
            None if labels is None else labels.labels.tolist())


def _write_text(path, text):
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(text)


@st.composite
def data_files(draw):
    """The text of a data file and its read arguments.

    The file holds numbers, the token and empty cells, maybe after 250-300
    plain rows so that what follows crosses a block edge. Some files also
    have ``\r\n`` line ends, blank lines at the end, up to two odd cells or
    labels, a quoted cell that holds a line break, a ragged row, a blank line
    between rows or an odd header name.
    """
    token = draw(st.sampled_from(["NA", "?", "", "nan", "-999", " x "]))
    odd = draw(st.booleans())
    width, n = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    label_idx = draw(st.none() | st.integers(0, width - 1))
    number = FLOATS.map(repr)
    # A blank line is not an empty cell: a 1-column file writes no empty cells.
    missing = st.sampled_from([c for c in ("", token) if c or width > 1] or ["0.5"])
    cell = st.one_of(number, number, missing)
    label = st.sampled_from(["a", "b", " c ", "1"])
    rows = [[draw(label) if j == label_idx else draw(cell) for j in range(width)]
            for _ in range(n)]
    header = ["class" if j == label_idx else f"c{j}" for j in range(width)]
    end, tail = "\n", ""
    kinds = draw(st.sets(st.sampled_from(["cells", "multiline", "header", "ragged", "crlf", "tail",
                                          "blank"]), max_size=2)) if odd else set()
    if "cells" in kinds:
        for _ in range(draw(st.integers(1, 2))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, width - 1))
            odd_labels = ["", token, '"q"', '"a"', "b,c"]
            rows[i][j] = draw(st.sampled_from(odd_labels if j == label_idx else ODD_CELLS))
    if "multiline" in kinds:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, width - 1))
        broken = ['"a\nb"', '"\n"', '" c\r\n"'] if j == label_idx else MULTILINE_CELLS
        rows[i][j] = draw(st.sampled_from(broken))
    if "header" in kinds:
        header[draw(st.integers(0, width - 1))] = draw(
            st.sampled_from(['"class"', " class ", "", "class"]))
    if "ragged" in kinds:
        row = draw(st.sampled_from(rows + [header]))
        if len(row) == 1 or draw(st.booleans()):
            row.append("9")
        else:
            row.pop()
    if "crlf" in kinds:
        end = "\r\n"
    if "tail" in kinds:
        tail = draw(st.sampled_from([end, end * 2]))
    if "blank" in kinds:
        rows.insert(draw(st.integers(0, n - 1)), [])
    if draw(st.integers(0, 3)) == 0:
        plain = ["a" if j == label_idx else "0.5" for j in range(width)]
        rows[:0] = [plain] * draw(st.integers(250, 300))
    text = "".join(",".join(row) + end for row in [header] + rows) + tail
    label_column = "class" if label_idx is not None else draw(st.sampled_from([None, "class"]))
    return text, (token, label_column)


class TestBlockRead:
    @settings(deadline=None, max_examples=400)
    @given(data_files())
    @example(('class,x\n"q",1\na,2\n', ("NA", "class")))  # csv unquotes labels
    @example(("a\r\n1\r\n\r\n2\r\n", ("NA", None)))  # a blank \r\n line
    @example(("a\n\n1\n", ("NA", None)))  # a blank line opens a block
    @example(("\n1\n2\n", ("NA", None)))  # a blank header
    @example(("a\n1\r2\n", ("NA", None)))  # a lone \r ends a line
    @example(('a,b\n"1\n",2\n3,oops\n', ("NA", None)))  # a fault after a record of two lines
    @example(('class,x\n"a\r\nb",1\n,2\n', ("NA", "class")))
    def test_equals_the_cell_loop(self, tmp_path_factory, case):
        text, args = case
        path = tmp_path_factory.mktemp("read") / "data.csv"
        _write_text(path, text)
        assert _outcome(read_masked_csv, path, *args) == _outcome(_read_by_cells, path, *args)

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("rows", [255, 256, 257, 511, 512])
    def test_blank_lines_at_a_block_edge(self, tmp_path, rows, end):
        # Blank lines at the end are dropped; one followed by a row is an error.
        path = tmp_path / "data.csv"
        body = "a,b" + end + ("1.5,NA" + end) * rows
        for blank, more in [(1, ""), (300, ""), (1, "3,4" + end), (300, "3,4" + end)]:
            _write_text(path, body + end * blank + more)
            args = ("NA", None)
            got = _outcome(read_masked_csv, path, *args)
            assert got == _outcome(_read_by_cells, path, *args)
            assert (got[0] is CsvParseError) == bool(more)

    @pytest.mark.parametrize("lines, label_column, match, line, column", [
        ({10: "1,oops", 600: "1"}, None, "expected 2 fields, got 1", 600, None),
        ({5: "1", 700: "1," + "0" * 131073}, None, "field larger than field limit", 700, None),
        ({400: "1,2,3"}, "class", "expected 2 fields, got 3", 400, None),
        ({258: ""}, None, "expected 2 fields, got 0", 258, None),
        ({600: "2,oops"}, None, "non-numeric cell 'oops'", 600, 2),
        ({700: "1\x002,3"}, None, "non-numeric cell '1", 700, 1),
    ], ids=["bad-cell-then-ragged", "ragged-then-csv-error", "no-label-column-then-ragged",
            "blank-between-blocks", "bad-cell-in-block-3", "nul-in-block-3"])
    def test_faults_across_blocks_keep_the_cell_loop_order(self, tmp_path, lines, label_column,
                                                           match, line, column):
        # File line 2 opens block 1, line 258 block 2 and line 514 block 3.
        path = tmp_path / "data.csv"
        rows = ["a,b"] + ["1.5,NA"] * 800
        for i, text in lines.items():
            rows[i - 1] = text
        _write_text(path, "\n".join(rows) + "\n")
        args = ("NA", label_column)
        with pytest.raises(CsvParseError, match=match) as err:
            read_masked_csv(path, *args)
        assert (err.value.line, err.value.column) == (line, column)
        assert _outcome(read_masked_csv, path, *args) == _outcome(_read_by_cells, path, *args)

    @pytest.mark.parametrize("text", [
        "a,b\n" + "1.5,NA\n" * 600 + '"7",3\n',
        "a,b\n" + "1.5,NA\n" * 600 + "2,3\r",
        '"a","b"\n' + "1.5,NA\n" * 600,
        "a,b\r\n" + "1.5,NA\r\n" * 600,
    ], ids=["late-quote", "lone-cr", "quoted-header", "crlf"])
    def test_each_cell_is_parsed_once(self, tmp_path, monkeypatch, text):
        path = tmp_path / "data.csv"
        _write_text(path, text)
        args = ("NA", None)
        want = _outcome(_read_by_cells, path, *args)
        calls = []

        def counted(cell):
            calls.append(cell)
            return float(cell)

        monkeypatch.setattr(csv_io, "float", counted, raising=False)
        x, _ = read_masked_csv(path, *args)
        assert len(calls) == x.values.size
        monkeypatch.undo()
        assert _outcome(read_masked_csv, path, *args) == want

    @pytest.mark.parametrize("token", ["NA", "?", "-999", ""])
    def test_package_files_are_read_in_blocks(self, tmp_path, token):
        rng = np.random.default_rng(3)
        x = MaskedMatrix(values=rng.normal(0, 1e3, (600, 7)), observed=rng.random((600, 7)) > 0.3)
        path = tmp_path / "data.csv"
        write_masked_csv(x, path, missing_token=token)
        back, labels = read_masked_csv(path, missing_token=token)
        assert labels is None
        assert back.values.tobytes() == x.values.tobytes()
        assert np.array_equal(back.observed, x.observed)

    def test_label_column_layout_is_read_in_blocks(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 1, (300, 4))
        values[:, 1] = rng.integers(1, 4, 300)
        observed = rng.random((300, 4)) > 0.2
        observed[:, 1] = True
        path = tmp_path / "labelled.csv"
        csv_io.write_csv(path, ["a", "class", "b", "c"],
                         ([v if seen else None for v, seen in zip(*row)]
                          for row in zip(values.tolist(), observed.tolist())))
        x, labels = read_masked_csv(path, label_column="class")
        assert labels.labels.tolist() == (values[:, 1] - 1).astype(int).tolist()
        keep = [0, 2, 3]
        assert np.array_equal(x.observed, observed[:, keep])
        assert x.values.tobytes() == np.where(observed, values, 0.0)[:, keep].tobytes()
        path.write_text(WINE_LIKE)
        _, labels = read_masked_csv(path, label_column="class")
        assert labels.labels.tolist() == [0, 0, 1, 1, 2, 2]

    def test_cli_pipeline_reads_in_blocks(self, tmp_path, capsys):
        data, masked, fit = tmp_path / "data.csv", tmp_path / "masked.csv", tmp_path / "fit"
        for argv in (["simulate", "--n", 300, "--p", 5, "--k", 3, "--seed", 1, "--output", data],
                     ["ampute", "--input", data, "--output", masked, "--mechanism", "mcar",
                      "--rate", 0.3, "--seed", 2, "--missing-token", "?"],
                     ["cluster", "--input", masked, "--output", fit, "--k", 3,
                      "--missing-token", "?"]):
            assert cli([str(a) for a in argv]) == 0, capsys.readouterr().err


def _write_by_cells(x, path, missing_token):
    """``write_masked_csv`` as one ``format_cell`` per cell through ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(x.n_cols)])
        writer.writerows([repr(float(v)) if seen else missing_token for v, seen in zip(*row)]
                         for row in zip(x.values.tolist(), x.observed.tolist()))


@st.composite
def masked_matrices(draw):
    n, p = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    values = np.array([[draw(FLOATS) for _ in range(p)] for _ in range(n)]).reshape(n, p)
    observed = np.ones((n, p), dtype=bool)
    for i in range(n):
        kind = draw(st.sampled_from(["all", "one", "none", "random"]))
        if kind == "one":  # every cell missing but one
            observed[i] = np.arange(p) == draw(st.integers(0, p - 1))
        elif kind == "none":
            observed[i] = False
        elif kind == "random":
            observed[i] = [draw(st.booleans()) for _ in range(p)]
    return MaskedMatrix(values=values, observed=observed)


class TestBlockWrite:
    @settings(deadline=None, max_examples=300)
    @given(masked_matrices(), st.sampled_from(["NA", "", ",", '"', " x ", "a\nb", "?", "—"]))
    def test_bytes_equal_the_cell_writer(self, tmp_path_factory, x, token):
        folder = tmp_path_factory.mktemp("write")
        write_masked_csv(x, folder / "blocks.csv", missing_token=token)
        _write_by_cells(x, folder / "cells.csv", token)
        assert (folder / "blocks.csv").read_bytes() == (folder / "cells.csv").read_bytes()
        if x.n_rows and token == token.strip():
            back, _ = read_masked_csv(folder / "blocks.csv", missing_token=token)
            assert back.values.tobytes() == x.values.tobytes()
            assert np.array_equal(back.observed, x.observed)

    def test_bytes_equal_the_cell_writer_across_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        x = MaskedMatrix(values=rng.normal(0, 1, (700, 3)), observed=rng.random((700, 3)) > 0.4)
        write_masked_csv(x, tmp_path / "blocks.csv")
        _write_by_cells(x, tmp_path / "cells.csv", "NA")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
