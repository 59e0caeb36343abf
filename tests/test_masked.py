import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpod import (
    DegenerateColumnError,
    InfeasibleError,
    MaskedMatrix,
    ShapeMismatchError,
    column_stats,
    fill_unobserved,
    project_observed,
    standardize,
)


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
        rng = np.random.default_rng(8)
        values = rng.normal(0, 1, (50, 3))
        values[:, 1:] *= scale
        x = MaskedMatrix(values=values, observed=np.ones((50, 3), bool))
        with np.errstate(over="ignore"):
            with pytest.raises(InfeasibleError, match="column 1"):
                standardize(x)
            # column_stats itself still reports what it computed.
            assert np.isinf(column_stats(x).std_devs[1:]).all()


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
    centered = (values - means) * observed
    std_devs = np.sqrt(np.sum(centered * centered, axis=0) / np.maximum(counts - 1, 1))
    std_devs[counts < 2] = 0.0
    return means, std_devs


def standardized_by_formula(values, observed):
    with np.errstate(over="ignore", invalid="ignore"):
        means, std_devs = stats_by_formula(values, observed)
    overflowed = np.flatnonzero(~(np.isfinite(means) & np.isfinite(std_devs)))
    if overflowed.size:
        raise InfeasibleError(
            f"column {int(overflowed[0])}: observed mean or standard deviation is not "
            "finite; its scale is too large to standardize"
        )
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


@st.composite
def matrix_and_mask(draw, cells):
    """A matrix and a mask, each laid out in C or Fortran order."""
    n, p = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    values = np.array(draw(st.lists(cells, min_size=n * p, max_size=n * p))).reshape(n, p)
    observed = np.array(draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p)))
    order = st.sampled_from([np.ascontiguousarray, np.asfortranarray])
    return draw(order)(values), draw(order)(observed.reshape(n, p))


class TestSameBytesAsFormulas:
    """Preparation runs in place and without the boolean gather; every array
    and every error stays that of the plain formulas above, bit for bit."""

    @settings(deadline=None, max_examples=300)
    @given(matrix_and_mask(any_float))
    def test_masked_matrix(self, case):
        values, observed = case
        got = outcome(lambda v, o: (MaskedMatrix(values=v, observed=o).values,), values, observed)
        assert got == outcome(lambda v, o: (masked_by_formula(v, o),), values, observed)

    @settings(deadline=None, max_examples=300)
    @given(matrix_and_mask(finite_float))
    def test_column_stats_and_standardize(self, case):
        values, observed = case
        observed[0, :] = True  # no empty column
        x = MaskedMatrix(values=values, observed=observed)
        with np.errstate(all="ignore"):
            stats = column_stats(x)
            assert outcome(lambda: (stats.means, stats.std_devs)) == outcome(
                stats_by_formula, x.values, x.observed)
        got = outcome(lambda: (standardize(x)[0].values,))
        assert got == outcome(lambda: (standardized_by_formula(x.values, x.observed),))

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
