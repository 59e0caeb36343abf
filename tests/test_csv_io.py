import csv

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

    def test_headerless(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,NA\n")
        x, _ = read_masked_csv(path, has_header=False)
        assert x.shape == (2, 2)
        assert not x.observed[1, 1]


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

    def test_custom_header_and_token(self, tmp_path):
        x = MaskedMatrix(values=[[1.5, 2.0]], observed=[[True, False]])
        path = tmp_path / "data.csv"
        write_masked_csv(x, path, missing_token="?", header=["u", "v"])
        text = path.read_text()
        assert text.splitlines()[0] == "u,v"
        assert "?" in text
        back, _ = read_masked_csv(path, missing_token="?")
        assert np.array_equal(back.observed, x.observed)

    def test_header_length_checked(self, tmp_path):
        x = MaskedMatrix(values=[[1.0]], observed=[[True]])
        with pytest.raises(CsvParseError):
            write_masked_csv(x, tmp_path / "data.csv", header=["a", "b"])


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

    def test_needs_rows(self, tmp_path):
        path = tmp_path / "labels.csv"
        for text in ["", "label\n", "label\n\n"]:
            path.write_text(text)
            with pytest.raises(CsvParseError):
                read_labels_csv(path)


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


# Floats whose repr spans the scales a data file can hold, subnormals and -0.0 included.
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                     1.7976931348623157e308, 0.1, 1 / 3]),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-300, 300)),
)
# Cells the block read must leave to the cell loop, or read as it does.
ODD_CELLS = ["", " NA ", "\t2 ", "  ", "nan", "-nan", "inf", "-inf", "1e999", "1_0", '"1.5"',
             '"7', '"1,5"', '"NA"', "#3", "١٢", "0x10", " ", "-999", "1\x002", "1\r2"]


def _outcome(read, path, *args):
    try:
        x, labels = read(path, *args)
    except CsvParseError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return (x.values.shape, x.values.tobytes(), x.observed.tobytes(),
            None if labels is None else labels.labels.tolist())


@st.composite
def data_files(draw):
    """The text of a data file, its read arguments, and whether it is plain.

    A plain file holds numbers, the token and empty cells, with ``\n`` or
    ``\r\n`` line ends and maybe blank lines at the end, and the block read
    must take it. Other files have up to two odd cells or labels, a ragged
    row, a blank line between rows or an odd header name.
    """
    token = draw(st.sampled_from(["NA", "?", "", "nan", "-999", " x "]))
    odd = draw(st.booleans())
    width, n = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    has_header = draw(st.booleans())
    label_idx = draw(st.none() | st.integers(0, width - 1)) if has_header else None
    number = FLOATS.map(repr)
    # A blank line is not an empty cell: a 1-column file writes no empty cells.
    missing = st.sampled_from([c for c in ("", token) if c or width > 1] or ["0.5"])
    cell = st.one_of(number, number, missing)
    label = st.sampled_from(["a", "b", " c ", "1"])
    rows = [[draw(label) if j == label_idx else draw(cell) for j in range(width)]
            for _ in range(n)]
    header = ["class" if j == label_idx else f"c{j}" for j in range(width)]
    end, tail = "\n", ""
    kinds = draw(st.sets(st.sampled_from(["cells", "header", "ragged", "crlf", "tail", "blank"]),
                         max_size=2)) if odd else set()
    if "cells" in kinds:
        for _ in range(draw(st.integers(1, 2))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, width - 1))
            odd_labels = ["", token, '"q"', '"a"', "b,c"]
            rows[i][j] = draw(st.sampled_from(odd_labels if j == label_idx else ODD_CELLS))
    if "header" in kinds and has_header:
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
    lines = ([header] if has_header else []) + rows
    text = "".join(",".join(row) + end for row in lines) + tail
    label_column = "class" if label_idx is not None else draw(st.sampled_from([None, "class"]))
    plain = (kinds <= {"crlf", "tail"} and token == token.strip()
             and (label_column is None or label_idx is not None))
    return text, (token, has_header, label_column), plain


class TestBlockRead:
    @settings(deadline=None, max_examples=400)
    @given(data_files())
    @example(('class,x\n"q",1\na,2\n', ("NA", True, "class"), False))  # csv unquotes labels
    @example(("a\r\n1\r\n\r\n2\r\n", ("NA", True, None), False))  # a blank \r\n line
    @example(("a\n\n1\n", ("NA", True, None), False))  # a blank line opens a block
    @example(("\n1\n2\n", ("NA", True, None), False))  # a blank header
    @example(("a\n1\r2\n", ("NA", True, None), False))  # a lone \r ends a line
    def test_equals_the_cell_loop(self, tmp_path_factory, case):
        text, args, plain = case
        path = tmp_path_factory.mktemp("read") / "data.csv"
        with path.open("w", newline="") as handle:
            handle.write(text)
        assert _outcome(read_masked_csv, path, *args) == _outcome(
            csv_io._read_masked_cells, path, *args)
        if plain:
            assert csv_io._read_masked_blocks(path, *args) is not None

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("rows", [255, 256, 257, 511, 512])
    def test_blank_lines_at_a_block_edge(self, tmp_path, rows, end):
        # Blank lines at the end are dropped; one followed by a row is an error.
        path = tmp_path / "data.csv"
        body = "a,b" + end + ("1.5,NA" + end) * rows
        for blank, more in [(1, ""), (300, ""), (1, "3,4" + end), (300, "3,4" + end)]:
            with path.open("w", newline="") as handle:
                handle.write(body + end * blank + more)
            args = ("NA", True, None)
            assert _outcome(read_masked_csv, path, *args) == _outcome(
                csv_io._read_masked_cells, path, *args)
            assert (csv_io._read_masked_blocks(path, *args) is None) == bool(more)

    @pytest.mark.parametrize("quirk", ['"7"', "1\x002", "1\r2"], ids=["quote", "nul", "lone-cr"])
    def test_a_late_quirk_parses_no_block(self, tmp_path, monkeypatch, quirk):
        # Two blocks of plain rows, then a last line only the csv module splits.
        path = tmp_path / "data.csv"
        with path.open("w", newline="") as handle:
            handle.write("a,b\n" + "1.5,NA\n" * 600 + quirk + ",3\n")
        args = ("NA", True, None)
        want = _outcome(csv_io._read_masked_cells, path, *args)
        calls = []

        def counted(cell):
            calls.append(cell)
            return float(cell)

        monkeypatch.setattr(csv_io, "float", counted, raising=False)
        assert csv_io._read_masked_blocks(path, *args) is None
        assert calls == []
        monkeypatch.undo()
        assert _outcome(read_masked_csv, path, *args) == want

    @pytest.fixture()
    def no_cell_loop(self, monkeypatch):
        def cell_loop(*args):
            raise AssertionError("a file the package wrote was read cell by cell")
        monkeypatch.setattr(csv_io, "_read_masked_cells", cell_loop)

    @pytest.mark.parametrize("token", ["NA", "?", "-999", ""])
    def test_package_files_are_read_in_blocks(self, tmp_path, no_cell_loop, token):
        rng = np.random.default_rng(3)
        x = MaskedMatrix(values=rng.normal(0, 1e3, (600, 7)), observed=rng.random((600, 7)) > 0.3)
        path = tmp_path / "data.csv"
        write_masked_csv(x, path, missing_token=token)
        back, labels = read_masked_csv(path, missing_token=token)
        assert labels is None
        assert back.values.tobytes() == x.values.tobytes()
        assert np.array_equal(back.observed, x.observed)

    def test_label_column_layout_is_read_in_blocks(self, tmp_path, no_cell_loop):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 1, (300, 4))
        values[:, 1] = rng.integers(1, 4, 300)
        observed = rng.random((300, 4)) > 0.2
        observed[:, 1] = True
        path = tmp_path / "labelled.csv"
        write_masked_csv(MaskedMatrix(values=values, observed=observed), path,
                         header=["a", "class", "b", "c"])
        x, labels = read_masked_csv(path, label_column="class")
        assert labels.labels.tolist() == (values[:, 1] - 1).astype(int).tolist()
        keep = [0, 2, 3]
        assert np.array_equal(x.observed, observed[:, keep])
        assert x.values.tobytes() == np.where(observed, values, 0.0)[:, keep].tobytes()
        path.write_text(WINE_LIKE)
        _, labels = read_masked_csv(path, label_column="class")
        assert labels.labels.tolist() == [0, 0, 1, 1, 2, 2]

    def test_cli_pipeline_reads_in_blocks(self, tmp_path, no_cell_loop, capsys):
        data, masked, fit = tmp_path / "data.csv", tmp_path / "masked.csv", tmp_path / "fit"
        for argv in (["simulate", "--n", 300, "--p", 5, "--k", 3, "--seed", 1, "--output", data],
                     ["ampute", "--input", data, "--output", masked, "--mechanism", "mcar",
                      "--rate", 0.3, "--seed", 2, "--missing-token", "?"],
                     ["cluster", "--input", masked, "--output", fit, "--k", 3,
                      "--missing-token", "?"]):
            assert cli([str(a) for a in argv]) == 0, capsys.readouterr().err


def _write_by_cells(x, path, missing_token, header):
    """``write_masked_csv`` as one ``format_cell`` per cell through ``csv.writer``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(x.n_cols)] if header is None else header)
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
    @given(masked_matrices(), st.sampled_from(["NA", "", ",", '"', " x ", "a\nb", "?"]),
           st.data())
    def test_bytes_equal_the_cell_writer(self, tmp_path_factory, x, token, data):
        names = st.sampled_from(["a", "b,c", 'q"', " s ", "x\ny", "", "Σ"])
        header = data.draw(st.none() | st.lists(names, min_size=x.n_cols, max_size=x.n_cols))
        folder = tmp_path_factory.mktemp("write")
        write_masked_csv(x, folder / "blocks.csv", missing_token=token, header=header)
        _write_by_cells(x, folder / "cells.csv", token, header)
        assert (folder / "blocks.csv").read_bytes() == (folder / "cells.csv").read_bytes()
        if x.n_rows and token == token.strip():
            back, _ = read_masked_csv(folder / "blocks.csv", missing_token=token)
            assert back.values.tobytes() == x.values.tobytes()
            assert np.array_equal(back.observed, x.observed)

    def test_bytes_equal_the_cell_writer_across_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        x = MaskedMatrix(values=rng.normal(0, 1, (700, 3)), observed=rng.random((700, 3)) > 0.4)
        write_masked_csv(x, tmp_path / "blocks.csv")
        _write_by_cells(x, tmp_path / "cells.csv", "NA", None)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
