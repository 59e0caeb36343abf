import numpy as np
import pytest

from kpod import (
    Assignment,
    CsvParseError,
    MaskedMatrix,
    read_labels_csv,
    read_masked_csv,
    write_labels_csv,
    write_masked_csv,
)

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
