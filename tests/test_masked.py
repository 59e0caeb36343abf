import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kpod.cli as cli_module
from kpod import (
    DegenerateColumnError,
    InfeasibleError,
    MaskedMatrix,
    Mechanism,
    MechanismSpec,
    ShapeMismatchError,
    ampute,
    column_stats,
    fill_unobserved,
    init_fill,
    project_observed,
    read_masked_csv,
    standardize,
    write_masked_csv,
)
from kpod.masked import observed_means


def random_masked(rng, n, p, rate):
    values = rng.normal(0, 3, (n, p))
    observed = rng.random((n, p)) >= rate
    observed[rng.integers(n), :] = True  # keep every column non-degenerate
    return MaskedMatrix(values=values, observed=observed), values


class TestMaskedMatrix:
    def test_basic_properties(self):
        x = MaskedMatrix(values=[[1.0, 2.0], [3.0, 4.0]], observed=[[True, False], [True, True]])
        assert x.shape == (2, 2)
        assert x.n_rows == 2 and x.n_cols == 2
        assert x.observed_fraction == 0.75
        assert not x.complete()
        assert list(x.row_observed_counts()) == [1, 2]
        assert list(x.col_observed_counts()) == [2, 1]

    def test_unobserved_cells_are_zeroed(self):
        x = MaskedMatrix(values=[[1.0, 99.0]], observed=[[True, False]])
        assert x.values[0, 1] == 0.0

    def test_mask_not_values_is_authoritative(self):
        # same mask, different garbage behind it -> identical matrices
        a = MaskedMatrix(values=[[1.0, 123.0]], observed=[[True, False]])
        b = MaskedMatrix(values=[[1.0, -7e5]], observed=[[True, False]])
        assert np.array_equal(a.values, b.values)

    def test_arrays_are_readonly(self):
        x = MaskedMatrix(values=[[1.0]], observed=[[True]])
        with pytest.raises(ValueError):
            x.values[0, 0] = 2.0
        with pytest.raises(ValueError):
            x.observed[0, 0] = False

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            MaskedMatrix(values=[[1.0, 2.0]], observed=[[True]])
        # The engine's one 2-D rule, and its error.
        with pytest.raises(ShapeMismatchError, match=r"^data must be 2-D, got shape \(2,\)$"):
            MaskedMatrix(values=[1.0, 2.0], observed=[True, True])

    def test_nonfinite_observed_rejected(self):
        with pytest.raises(ValueError):
            MaskedMatrix(values=[[np.nan]], observed=[[True]])
        # nonfinite behind the mask is fine; it is replaced by the sentinel
        x = MaskedMatrix(values=[[np.nan, 1.0]], observed=[[False, True]])
        assert x.values[0, 0] == 0.0

    def test_complete(self):
        x = MaskedMatrix(values=np.ones((3, 2)), observed=np.ones((3, 2), bool))
        assert x.complete() and x.observed_fraction == 1.0


class TestProjectObserved:
    def test_identity_is_zero(self):
        x = MaskedMatrix(values=[[1.0, 2.0], [3.0, 4.0]], observed=[[True, False], [True, True]])
        model = np.array([[1.0, 555.0], [3.0, 4.0]])  # disagrees only off-mask
        assert project_observed(x, model) == 0.0

    def test_hand_sum_fully_observed(self):
        x = MaskedMatrix(values=[[1.0, 2.0]], observed=[[True, True]])
        assert project_observed(x, np.zeros((1, 2))) == 5.0

    def test_matches_loop_oracle_on_masked_cell(self):
        x = MaskedMatrix(values=[[1.0, 2.0], [3.0, 4.0]], observed=[[True, False], [True, True]])
        model = np.array([[0.5, -1.0], [2.0, 1.5]])
        oracle = sum(
            (x.values[i, j] - model[i, j]) ** 2
            for i in range(2) for j in range(2) if x.observed[i, j]
        )
        assert oracle == 7.5  # (1-0.5)^2 + (3-2)^2 + (4-1.5)^2
        assert project_observed(x, model) == pytest.approx(oracle, abs=1e-12)

    def test_random_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, _ = random_masked(rng, 7, 4, 0.4)
            model = rng.normal(0, 2, (7, 4))
            oracle = sum(
                (x.values[i, j] - model[i, j]) ** 2
                for i in range(7) for j in range(4) if x.observed[i, j]
            )
            assert project_observed(x, model) == pytest.approx(oracle, rel=1e-12)

    def test_shape_mismatch(self):
        x = MaskedMatrix(values=[[1.0]], observed=[[True]])
        with pytest.raises(ShapeMismatchError):
            project_observed(x, np.zeros((2, 2)))

    def test_an_overflow_gives_inf_without_a_warning(self):
        x = MaskedMatrix(values=[[1e200, 0.0], [-1e200, 1.0]], observed=np.ones((2, 2), bool))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert project_observed(x, -x.values) == np.inf

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 6),
           st.sampled_from([(1.0, 0.0), (1.0, 1e6), (1e160, 0.0), (1e-160, 0.0)]))
    def test_bit_identical_to_difference_expression(self, seed, n, p, scale_offset):
        # Offsets where the difference cancels, and scales where its square
        # overflows or underflows.
        scale, offset = scale_offset
        rng = np.random.default_rng(seed)
        x = MaskedMatrix(values=rng.normal(0, 1, (n, p)) * scale + offset,
                         observed=rng.random((n, p)) >= 0.4)
        model = rng.normal(0, 1, (n, p)) * scale + offset
        with np.errstate(over="ignore", invalid="ignore"):
            diff = (x.values - model) * x.observed
            want = float(np.sum(diff * diff))
            got = project_observed(x, model)
        assert got.hex() == want.hex()

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_nonnegative_with_equality_iff_agreement(self, seed):
        rng = np.random.default_rng(seed)
        x, _ = random_masked(rng, 5, 3, 0.3)
        model = rng.normal(0, 2, (5, 3))
        value = project_observed(x, model)
        assert value >= 0.0
        agrees = np.all((x.values == model) | ~x.observed)
        assert (value == 0.0) == bool(agrees)


class TestFillUnobserved:
    def test_complete_input_ignores_source(self):
        x = MaskedMatrix(values=[[1.0, 2.0]], observed=[[True, True]])
        out = fill_unobserved(x, np.full((1, 2), 9.0))
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_fully_unobserved_returns_source(self):
        x = MaskedMatrix(values=np.zeros((2, 2)), observed=np.zeros((2, 2), bool))
        src = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(fill_unobserved(x, src), src)

    def test_mixed_cell_by_cell(self):
        observed = np.array([[True, False], [False, True], [True, True]])
        x = MaskedMatrix(values=np.arange(6.0).reshape(3, 2), observed=observed)
        src = -np.ones((3, 2))
        out = fill_unobserved(x, src)
        for i in range(3):
            for j in range(2):
                expected = x.values[i, j] if observed[i, j] else src[i, j]
                assert out[i, j] == expected

    def test_does_not_mutate(self):
        x = MaskedMatrix(values=[[1.0, 2.0]], observed=[[True, False]])
        before = x.values.copy()
        fill_unobserved(x, np.full((1, 2), 7.0))
        assert np.array_equal(x.values, before)

    def test_filling_never_changes_observed_loss(self):
        rng = np.random.default_rng(3)
        x, _ = random_masked(rng, 6, 3, 0.5)
        source = rng.normal(0, 1, (6, 3))
        refilled = MaskedMatrix(values=fill_unobserved(x, source), observed=x.observed)
        assert project_observed(refilled, source) == pytest.approx(
            project_observed(x, source), rel=1e-12
        )


class TestColumnStats:
    def test_complete_matches_numpy(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1, (10, 3))
        x = MaskedMatrix(values=values, observed=np.ones((10, 3), bool))
        stats = column_stats(x)
        assert np.allclose(stats.means, values.mean(axis=0))
        assert np.allclose(stats.std_devs, values.std(axis=0, ddof=1))
        assert np.array_equal(stats.counts, [10, 10, 10])

    def test_hand_case_with_missing(self):
        x = MaskedMatrix(values=[[1.0], [0.0], [3.0]], observed=[[True], [False], [True]])
        stats = column_stats(x)
        assert stats.means[0] == 2.0
        assert stats.counts[0] == 2

    def test_random_matches_masked_loop_oracle(self):
        rng = np.random.default_rng(2)
        x, _ = random_masked(rng, 10, 4, 0.35)
        stats = column_stats(x)
        for j in range(4):
            kept = [x.values[i, j] for i in range(10) if x.observed[i, j]]
            assert stats.counts[j] == len(kept)
            assert stats.means[j] == pytest.approx(np.mean(kept), rel=1e-12)
            expect_sd = np.std(kept, ddof=1) if len(kept) > 1 else 0.0
            assert stats.std_devs[j] == pytest.approx(expect_sd, rel=1e-12)

    def test_single_observation_column_has_zero_sd(self):
        x = MaskedMatrix(values=[[5.0], [1.0]], observed=[[True], [False]])
        stats = column_stats(x)
        assert stats.std_devs[0] == 0.0

    def test_degenerate_column_names_index(self):
        observed = np.ones((3, 3), bool)
        observed[:, 1] = False
        with pytest.raises(DegenerateColumnError) as err:
            column_stats(MaskedMatrix(values=np.ones((3, 3)), observed=observed))
        assert err.value.column == 1
        assert "1" in str(err.value)


class TestStandardize:
    def test_zscores_are_fixed_point(self):
        rng = np.random.default_rng(4)
        col = rng.normal(0, 1, 30)
        col = (col - col.mean()) / col.std(ddof=1)
        x = MaskedMatrix(values=col[:, None], observed=np.ones((30, 1), bool))
        out, _ = standardize(x)
        assert np.allclose(out.values, x.values, atol=1e-12)

    def test_constant_column_becomes_zeros(self):
        x = MaskedMatrix(values=np.full((4, 1), 3.0), observed=np.ones((4, 1), bool))
        out, stats = standardize(x)
        assert np.array_equal(out.values, np.zeros((4, 1)))
        assert stats.std_devs[0] == 0.0

    def test_observed_stats_are_centered_and_unit(self):
        rng = np.random.default_rng(5)
        x, _ = random_masked(rng, 20, 5, 0.3)
        out, _ = standardize(x)
        stats = column_stats(out)
        assert np.all(np.abs(stats.means) < 1e-12)
        assert np.all(np.abs(stats.std_devs - 1.0) < 1e-12)

    def test_mask_is_unchanged(self):
        rng = np.random.default_rng(6)
        x, _ = random_masked(rng, 8, 3, 0.4)
        out, _ = standardize(x)
        assert np.array_equal(out.observed, x.observed)

    def test_returned_stats_match_column_stats(self):
        rng = np.random.default_rng(7)
        x, _ = random_masked(rng, 12, 3, 0.2)
        _, stats = standardize(x)
        fresh = column_stats(x)
        assert np.array_equal(stats.means, fresh.means)
        assert np.array_equal(stats.std_devs, fresh.std_devs)

    @pytest.mark.parametrize("scale", [1e155, 1e200])
    def test_overflowing_column_is_infeasible_and_named(self, scale):
        # Squared deviations at these scales overflow, so the standard
        # deviation is inf, and dividing by it would zero the column silently.
        # column_stats itself raises, with no numpy warning.
        rng = np.random.default_rng(8)
        values = rng.normal(0, 1, (50, 3))
        values[:, 1:] *= scale
        x = MaskedMatrix(values=values, observed=np.ones((50, 3), bool))
        for use in (column_stats, standardize):
            with pytest.raises(InfeasibleError,
                               match="^column 1: observed standard deviation is not finite"):
                use(x)

    def test_an_overflowing_mean_is_infeasible_wherever_it_is_taken(self):
        # The sum of column 1 overflows. Every user of the observed means,
        # init_fill included, raises the one error, and no numpy warning.
        values = np.array([[1.0, 1e308], [2.0, 1e308], [3.0, 0.0]])
        x = MaskedMatrix(values=values, observed=np.ones((3, 2), bool))
        for use in (column_stats, standardize, init_fill):
            with pytest.raises(InfeasibleError, match="^column 1: observed mean is not finite"):
                use(x)


def masked_by_formula(values, observed):
    """The checked sentinel fill, written as ``np.where`` after a gather of the
    observed cells: the bytes and errors ``MaskedMatrix`` must reproduce."""
    values = np.asarray(values, dtype=float)
    observed = np.asarray(observed, dtype=bool)
    if not np.isfinite(values[observed]).all():
        raise ValueError("observed entries must be finite")
    return np.where(observed, values, 0.0)


def stats_by_formula(values, observed):
    counts = observed.sum(axis=0)
    means = values.sum(axis=0) / counts
    overflowed = np.flatnonzero(~np.isfinite(means))
    if overflowed.size:
        raise InfeasibleError(
            f"column {int(overflowed[0])}: observed mean is not finite; its scale is too large"
        )
    centered = (values - means) * observed
    std_devs = np.sqrt(np.sum(centered * centered, axis=0) / np.maximum(counts - 1, 1))
    std_devs[counts < 2] = 0.0
    overflowed = np.flatnonzero(~np.isfinite(std_devs))
    if overflowed.size:
        raise InfeasibleError(
            f"column {int(overflowed[0])}: observed standard deviation is not finite; "
            "its scale is too large"
        )
    return means, std_devs


def standardized_by_formula(values, observed):
    with np.errstate(over="ignore", invalid="ignore"):
        means, std_devs = stats_by_formula(values, observed)
    scale = np.where(std_devs > 0, std_devs, 1.0)
    return masked_by_formula((values - means) / scale, observed)


def outcome(f, *args):
    """Bytes and memory layout of the arrays ``f`` returns, or the type and
    message of what it raises."""
    try:
        return [(a.tobytes(), a.strides) for a in map(np.asarray, f(*args))]
    except (ValueError, InfeasibleError) as exc:
        return type(exc), str(exc)


# Every float: -0.0, subnormals, values whose sums overflow, NaN and inf.
any_float = st.floats(width=64, allow_nan=True, allow_infinity=True)
finite_float = st.one_of(st.floats(-1e6, 1e6), st.floats(width=64, allow_nan=False,
                                                           allow_infinity=False))


def strided(a):
    """A view of ``a`` that steps over every other column of a wider array."""
    return np.repeat(a, 2, axis=1)[:, ::2]


LAYOUTS = [np.ascontiguousarray, np.asfortranarray, strided]


@st.composite
def matrix_and_mask(draw, cells):
    """A matrix and a mask, each laid out in C order, in Fortran order or as a strided view."""
    n, p = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    values = np.array(draw(st.lists(cells, min_size=n * p, max_size=n * p))).reshape(n, p)
    observed = np.array(draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p)))
    order = st.sampled_from(LAYOUTS)
    return draw(order)(values), draw(order)(observed.reshape(n, p))


class TestSameBytesAsFormulas:
    """Preparation runs in place and without the boolean gather; every array
    and every error stays that of the plain formulas above, bit for bit, in
    C order whatever the inputs' layout."""

    @settings(deadline=None, max_examples=300)
    @given(matrix_and_mask(any_float))
    def test_masked_matrix(self, case):
        values, observed = case
        got = outcome(lambda v, o: (MaskedMatrix(values=v, observed=o).values,), values, observed)
        assert got == outcome(lambda v, o: (masked_by_formula(v, o),),
                              np.ascontiguousarray(values), np.ascontiguousarray(observed))

    @settings(deadline=None, max_examples=300)
    @given(matrix_and_mask(finite_float))
    def test_column_stats_and_standardize(self, case):
        values, observed = case
        observed[0, :] = True  # no empty column
        x = MaskedMatrix(values=values, observed=observed)
        def stats():
            got = column_stats(x)
            return got.means, got.std_devs

        with np.errstate(all="ignore"):
            assert outcome(stats) == outcome(stats_by_formula, x.values, x.observed)
        got = outcome(lambda: (standardize(x)[0].values,))
        assert got == outcome(lambda: (standardized_by_formula(x.values, x.observed),))

    @settings(deadline=None, max_examples=100)
    @given(matrix_and_mask(finite_float), st.sampled_from(list(Mechanism)))
    def test_ampute_and_read_masked_csv(self, case, kind):
        # Both build their arrays themselves and wrap them without a copy;
        # bytes and layout stay those of the public constructor's copies.
        values, observed = case
        spec = MechanismSpec(kind=kind, target_rate=0.3, seed=1,
                             mar_columns=tuple(range(values.shape[1])))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # NMAR on a constant column
            amputed = ampute(values, spec)
        got = outcome(lambda: (amputed.values, amputed.observed))
        assert got == outcome(lambda: (masked_by_formula(values, amputed.observed),
                                       amputed.observed.copy()))
        x = MaskedMatrix(values=values, observed=observed)
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "data.csv"
            write_masked_csv(x, path)
            back, _ = read_masked_csv(path)
        got = outcome(lambda: (back.values, back.observed))
        assert got == outcome(lambda: (masked_by_formula(x.values, x.observed),
                                       x.observed.copy()))

    @settings(deadline=None, max_examples=300)
    @given(matrix_and_mask(finite_float), st.sampled_from(LAYOUTS))
    def test_fill_unobserved_and_init_fill(self, case, order):
        values, observed = case
        observed[0, :] = True  # no empty column
        x = MaskedMatrix(values=values, observed=observed)
        source = order(values[::-1, ::-1] * -0.5)
        got = outcome(lambda: (fill_unobserved(x, source),))
        assert got == outcome(lambda: (np.where(x.observed, x.values, source),))
        got = outcome(lambda: (init_fill(x),))
        assert got == outcome(lambda: (np.where(x.observed, x.values, observed_means(x)[0]),))

    def test_nonfinite_cells_behind_the_mask_are_accepted(self):
        for bad in (np.nan, np.inf, -np.inf):
            x = MaskedMatrix(values=[[bad, -0.0]], observed=[[False, True]])
            assert x.values.tobytes() == np.array([[0.0, -0.0]]).tobytes()
            with pytest.raises(ValueError, match="^observed entries must be finite$"):
                MaskedMatrix(values=[[bad, -0.0]], observed=[[True, True]])

    def test_overflowing_column_raises_the_same_error(self):
        values = np.array([[1.0, 1e308], [2.0, -1e308], [3.0, 1e308]])
        x = MaskedMatrix(values=values, observed=np.ones((3, 2), bool))
        got = outcome(lambda: (standardize(x)[0].values,))
        assert got == outcome(lambda: (standardized_by_formula(x.values, x.observed),))
        assert got[0] is InfeasibleError and got[1].startswith("column 1:")


class TestPackageBuiltMatrices:
    def test_are_read_only_and_keep_no_caller_array(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 1, (30, 4))
        observed = rng.random((30, 4)) > 0.3
        observed[0] = True
        x = MaskedMatrix(values=values, observed=observed)
        path = tmp_path / "data.csv"
        write_masked_csv(x, path)
        built = [x, ampute(values, MechanismSpec(kind=Mechanism.MCAR, target_rate=0.3, seed=1)),
                 standardize(x)[0], read_masked_csv(path)[0],
                 MaskedMatrix(values=np.asfortranarray(values), observed=strided(observed))]
        before = [(m.values.tobytes(), m.observed.tobytes()) for m in built]
        for m in built:
            assert not m.values.flags.writeable and not m.observed.flags.writeable
            assert m.values.flags.c_contiguous and m.observed.flags.c_contiguous
        values[:] = 7.0
        observed[:] = ~observed
        assert [(m.values.tobytes(), m.observed.tobytes()) for m in built] == before
        # standardize adopts its input's read-only mask rather than copying it.
        assert built[2].observed is x.observed

    def test_hold_all_zero_bits_in_unobserved_cells(self, tmp_path, monkeypatch):
        # The fills OR the bits of their source into these cells, so each
        # must be +0.0 exactly: not -0.0, and not what the caller put there.
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, (40, 5))
        observed = rng.random((40, 5)) > 0.4
        observed[0] = True
        behind = values.copy()
        behind[~observed] = rng.choice([np.nan, np.inf, -np.inf, -0.0], size=(~observed).sum())
        x = MaskedMatrix(values=behind, observed=observed)
        path = tmp_path / "data.csv"
        write_masked_csv(x, path)
        built = [x, standardize(x)[0], read_masked_csv(path)[0]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # NMAR on a constant column
            built += [ampute(values, MechanismSpec(kind=kind, target_rate=0.4, seed=1,
                                                   mar_columns=(1, 3)))
                      for kind in Mechanism]
        monkeypatch.setattr(cli_module, "write_masked_csv", lambda m, path: built.append(m))
        assert cli_module.cli(["simulate", "--n", "30", "--p", "4", "--k", "2", "--seed", "1",
                               "--output", str(tmp_path / "simulated.csv")]) == 0
        assert len(built) == 7
        for m in built:
            assert not m.values.view(np.uint64)[~m.observed].any()
            assert m.values.flags.c_contiguous and m.observed.flags.c_contiguous

    def test_standardize_allocates_one_copy_and_a_mask(self):
        rng = np.random.default_rng(5)
        x = MaskedMatrix(values=rng.normal(0, 3, (20000, 50)),
                         observed=rng.random((20000, 50)) >= 0.5)
        tracemalloc.start()
        try:
            standardize(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The scaled values, one mask-sized temporary at a time (the inverted
        # mask that zeroes them, then the finiteness check) and the statistics.
        assert peak <= x.values.nbytes + x.observed.nbytes + 2**16
