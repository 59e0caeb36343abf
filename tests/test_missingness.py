import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kpod import (
    InfeasibleError,
    KPodConfig,
    Mechanism,
    MechanismSpec,
    MixtureSpec,
    QuantileFallbackWarning,
    ShapeMismatchError,
    ampute,
    perturb_dataset,
    simulate_mixture,
)
from kpod.missingness import _keep_rows_and_columns_observed

NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestSpecs:
    def test_mechanism_parse(self):
        assert Mechanism.parse("MCAR") is Mechanism.MCAR
        assert Mechanism.parse(" nmar ") is Mechanism.NMAR
        with pytest.raises(InfeasibleError):
            Mechanism.parse("other")

    def test_rate_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                MechanismSpec(kind=Mechanism.MCAR, target_rate=bad)

    def test_mar_requires_columns(self):
        for empty in (None, ()):
            with pytest.raises(ValueError, match="non-empty mar_columns"):
                MechanismSpec(kind=Mechanism.MAR, target_rate=0.2, mar_columns=empty)
        assert MechanismSpec(kind=Mechanism.MCAR, target_rate=0.2, mar_columns=()).mar_columns == ()
        spec = MechanismSpec(kind=Mechanism.MAR, target_rate=0.2, mar_columns=[1, 4])
        assert spec.mar_columns == (1, 4)

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            MixtureSpec(n=0, p=3, k=1)
        with pytest.raises(ValueError):
            MixtureSpec(n=5, p=3, k=1, noise_variance=-1.0)

    @pytest.mark.parametrize("bad", [*NON_FINITE, True], ids=repr)
    def test_spreads_must_be_finite(self, bad):
        for field in ("center_sd", "noise_variance"):
            with pytest.raises(ValueError, match=field):
                MixtureSpec(n=5, p=3, k=1, **{field: bad})
        with pytest.raises(ValueError, match="rel_sd"):
            perturb_dataset(np.ones((2, 2)), bad)

    @pytest.mark.parametrize("bad", [1.5, True, -1, *NON_FINITE, "1", 2.0], ids=repr)
    def test_mar_columns_must_be_integers(self, bad):
        # Judged whenever they are given, though only MAR reads them.
        for kind in Mechanism:
            with pytest.raises(ValueError, match="mar_columns"):
                MechanismSpec(kind=kind, target_rate=0.2, mar_columns=(0, bad))

    @pytest.mark.parametrize("bad", [-1, 1.5, True], ids=repr)
    @pytest.mark.parametrize("make", [
        lambda seed: KPodConfig(k=2, seed=seed),
        lambda seed: MixtureSpec(n=5, p=3, k=1, seed=seed),
        lambda seed: MechanismSpec(kind=Mechanism.MCAR, target_rate=0.2, seed=seed),
    ], ids=["KPodConfig", "MixtureSpec", "MechanismSpec"])
    def test_seed_must_be_an_integer_at_least_0(self, make, bad):
        with pytest.raises(ValueError, match=r"\bseed\b"):
            make(bad)
        for good in (None, 0, np.uint32(7), 2**64 - 1):
            assert make(good).seed == good

    def test_integral_mar_columns_read_as_ints(self):
        spec = MechanismSpec(kind=Mechanism.MAR, target_rate=0.2, mar_columns=[2, np.int64(0)])
        assert spec.mar_columns == (2, 0) and all(type(c) is int for c in spec.mar_columns)


class TestSimulateMixture:
    def test_shapes_labels_and_determinism(self):
        spec = MixtureSpec(n=50, p=6, k=4, seed=3)
        values, labels = simulate_mixture(spec)
        values2, labels2 = simulate_mixture(spec)
        assert values.shape == (50, 6)
        assert len(labels) == 50
        assert labels.labels.min() >= 0 and labels.labels.max() < 4
        assert np.array_equal(values, values2)
        assert np.array_equal(labels.labels, labels2.labels)

    def test_zero_noise_rows_equal_their_component_mean(self):
        spec = MixtureSpec(n=40, p=5, k=3, noise_variance=0.0, seed=1)
        values, labels = simulate_mixture(spec)
        for label in range(3):
            rows = values[labels.labels == label]
            assert np.all(rows == rows[0])

    def test_full_scale_design(self):
        values, labels = simulate_mixture(
            MixtureSpec(n=500, p=100, k=10, center_sd=10.0, noise_variance=10.0, seed=0))
        assert values.shape == (500, 100)
        assert len(np.unique(labels.labels)) == 10

    def test_per_cluster_sample_means_near_truth(self):
        # law of large numbers: per-cluster means within 4 sd / sqrt(count)
        spec = MixtureSpec(n=4000, p=6, k=4, center_sd=10.0, noise_variance=10.0, seed=5)
        values, labels = simulate_mixture(spec)
        # reconstruct the component means the generator drew
        rng = np.random.default_rng(5)
        means = rng.normal(0.0, 10.0, size=(4, 6))
        sd = np.sqrt(10.0)
        for label in range(4):
            rows = values[labels.labels == label]
            bound = 4 * sd / np.sqrt(len(rows))
            assert np.all(np.abs(rows.mean(axis=0) - means[label]) < bound)

    def test_spreads_that_overflow_are_infeasible_and_named(self):
        # Each spread is finite, but a draw at center_sd 1e308 passes the largest float.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleError,
                               match=r"center_sd=1e\+308, noise_variance=10\.0 must be finite"):
                simulate_mixture(MixtureSpec(n=50, p=20, k=20, center_sd=1e308, seed=0))


class TestPerturb:
    def test_zero_rel_sd_is_identity(self):
        values = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(perturb_dataset(values, 0.0, seed=0), values)

    def test_a_matrix_with_no_rows_is_returned_as_it_is(self):
        values = np.zeros((0, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            perturbed = perturb_dataset(values, 0.1, seed=0)
        assert perturbed.shape == (0, 3) and perturbed is not values

    def test_monte_carlo_sd_matches_column_mean_rule(self):
        values = np.full((20000, 1), 10.0)
        noisy = perturb_dataset(values, 0.1, seed=2)
        assert abs((noisy - values).std() - 1.0) < 0.05

    def test_zero_mean_column_untouched(self):
        values = np.stack([np.array([-1.0, 1.0] * 10), np.full(20, 5.0)], axis=1)
        noisy = perturb_dataset(values, 0.1, seed=3)
        assert np.array_equal(noisy[:, 0], values[:, 0])
        assert not np.array_equal(noisy[:, 1], values[:, 1])

    def test_negative_rel_sd_rejected(self):
        with pytest.raises(ValueError):
            perturb_dataset(np.ones((2, 2)), -0.1)

    def test_overflowing_noise_is_infeasible_not_a_numpy_warning(self):
        # 1e308 times a column mean of 2 overflows, and so does the noise.
        values = np.full((5, 2), 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleError, match="rel_sd"):
                perturb_dataset(values, 1e308, seed=0)
            # A finite result keeps the bits of the plain expression.
            noise = np.random.default_rng(0).standard_normal(values.shape)
            assert perturb_dataset(values, 1e300, seed=0).tobytes() == (
                values + noise * np.abs(1e300 * values.mean(axis=0))).tobytes()


class TestAmputeMcar:
    def test_rate_is_exact_up_to_rounding(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 1, (500, 100))
        x = ampute(values, MechanismSpec(kind=Mechanism.MCAR, target_rate=0.25, seed=1))
        achieved = 1.0 - x.observed_fraction
        assert 0.24 <= achieved <= 0.26

    def test_input_never_mutated(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1, (30, 5))
        before = values.copy()
        ampute(values, MechanismSpec(kind=Mechanism.MCAR, target_rate=0.4, seed=2))
        assert np.array_equal(values, before)

    def test_observed_cells_keep_their_values(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 1, (20, 6))
        x = ampute(values, MechanismSpec(kind=Mechanism.MCAR, target_rate=0.3, seed=3))
        assert np.array_equal(x.values[x.observed], values[x.observed])

    def test_masked_count_matches_binomial_mean_over_seeds(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, (40, 10))
        rate, cells, seeds = 0.3, 400, 200
        counts = []
        for seed in range(seeds):
            x = ampute(values, MechanismSpec(kind=Mechanism.MCAR, target_rate=rate, seed=seed))
            counts.append(cells - x.n_observed)
        sigma = np.sqrt(cells * rate * (1 - rate))
        assert abs(np.mean(counts) - cells * rate) <= 3 * sigma / np.sqrt(seeds) + 1

    def test_every_row_and_column_keeps_an_observed_cell(self):
        rng = np.random.default_rng(4)
        for seed in range(40):
            values = rng.normal(0, 1, (12, 3))
            x = ampute(values, MechanismSpec(kind=Mechanism.MCAR, target_rate=0.75, seed=seed))
            assert x.row_observed_counts().min() >= 1
            assert x.col_observed_counts().min() >= 1

    def test_determinism(self):
        values = np.arange(50.0).reshape(10, 5)
        spec = MechanismSpec(kind=Mechanism.MCAR, target_rate=0.3, seed=9)
        assert np.array_equal(ampute(values, spec).observed, ampute(values, spec).observed)

    def test_incomplete_input_rejected(self):
        with pytest.raises(InfeasibleError):
            ampute(np.array([[1.0, np.nan]]), MechanismSpec(kind=Mechanism.MCAR, target_rate=0.3))

    def test_one_dimensional_input_rejected(self):
        # The engine's one 2-D rule, and its error.
        with pytest.raises(ShapeMismatchError, match=r"^data must be 2-D, got shape \(3,\)$"):
            ampute(np.ones(3), MechanismSpec(kind=Mechanism.MCAR, target_rate=0.3))

    @pytest.mark.parametrize("kind", list(Mechanism))
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_a_matrix_with_no_cells_is_infeasible(self, shape, kind):
        # No row or column of it could keep an observed cell.
        spec = MechanismSpec(kind=kind, target_rate=0.3, mar_columns=(0,), seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleError, match="empty matrix"):
                ampute(np.zeros(shape), spec)


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 40), st.integers(1, 12), st.floats(0.01, 0.99),
       st.integers(0, 2**32 - 1), st.integers(0, 2**12 - 1))
def test_mcar_and_mar_masks_match_flat_cell_draw(n, p, rate, seed, subset):
    # MCAR hides one sample of flat cell indices of the whole matrix, MAR one
    # of the cells of its columns; the masks must stay bit-identical to these
    # reference draws. An empty column subset stands for MCAR.
    cols = np.array([j for j in range(p) if subset >> j & 1], dtype=np.int64)
    total = min(int(round(rate * n * p)), n * p - 1)
    assume(total <= n * (cols.size or p))
    rng = np.random.default_rng(seed)
    if cols.size:
        flat = rng.choice(n * cols.size, size=total, replace=False)
        missing = np.zeros((n, p), dtype=bool)
        missing[flat // cols.size, cols[flat % cols.size]] = True
    else:
        missing = np.zeros(n * p, dtype=bool)
        missing[rng.choice(n * p, size=total, replace=False)] = True
        missing = missing.reshape(n, p)
    want = ~_keep_rows_and_columns_observed(missing, rng)
    spec = MechanismSpec(kind=Mechanism.MAR if cols.size else Mechanism.MCAR, target_rate=rate,
                         mar_columns=tuple(cols) or None, seed=seed)
    assert np.array_equal(ampute(np.zeros((n, p)), spec).observed, want)


class TestAmputeMar:
    def test_masked_cells_confined_to_mar_columns(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0, 1, (60, 10))
        x = ampute(values, MechanismSpec(
            kind=Mechanism.MAR, target_rate=0.2, mar_columns=(0, 3, 6), seed=4))
        missing = ~x.observed
        assert missing.any()
        assert not missing[:, [1, 2, 4, 5, 7, 8, 9]].any()

    def test_overall_rate_near_target(self):
        rng = np.random.default_rng(6)
        values = rng.normal(0, 1, (100, 10))
        x = ampute(values, MechanismSpec(
            kind=Mechanism.MAR, target_rate=0.2, mar_columns=(0, 3, 6), seed=5))
        assert abs((1.0 - x.observed_fraction) - 0.2) <= 0.01

    def test_infeasible_rate_for_columns(self):
        values = np.random.default_rng(7).normal(0, 1, (10, 10))
        with pytest.raises(InfeasibleError):
            ampute(values, MechanismSpec(
                kind=Mechanism.MAR, target_rate=0.5, mar_columns=(0, 1), seed=0))

    def test_out_of_range_columns(self):
        values = np.ones((5, 3))
        with pytest.raises(InfeasibleError):
            ampute(values, MechanismSpec(
                kind=Mechanism.MAR, target_rate=0.1, mar_columns=(0, 7), seed=0))


class TestAmputeNmar:
    def test_masked_cells_sit_in_the_bottom_quantile(self):
        rng = np.random.default_rng(8)
        values = rng.normal(0, 1, (200, 8))
        x = ampute(values, MechanismSpec(kind=Mechanism.NMAR, target_rate=0.25, seed=6))
        missing = ~x.observed
        for j in range(8):
            col = values[:, j]
            count = missing[:, j].sum()
            cutoff = np.sort(col)[count - 1] if count else -np.inf
            assert np.all(col[missing[:, j]] <= cutoff + 1e-12)
            # quantile membership: nothing above ~the target quantile is masked
            assert np.max(col[missing[:, j]]) <= np.quantile(col, 0.30)

    def test_masked_means_below_observed_means_per_column(self):
        rng = np.random.default_rng(9)
        values = rng.normal(0, 1, (150, 10))
        x = ampute(values, MechanismSpec(kind=Mechanism.NMAR, target_rate=0.3, seed=7))
        missing = ~x.observed
        for j in range(10):
            assert values[missing[:, j], j].mean() < values[x.observed[:, j], j].mean()

    def test_rate_exact(self):
        rng = np.random.default_rng(10)
        values = rng.normal(0, 1, (100, 20))
        x = ampute(values, MechanismSpec(kind=Mechanism.NMAR, target_rate=0.25, seed=8))
        assert abs((1.0 - x.observed_fraction) - 0.25) <= 0.01

    def test_constant_column_falls_back_with_warning(self):
        rng = np.random.default_rng(11)
        values = rng.normal(0, 1, (50, 3))
        values[:, 1] = 7.0
        with pytest.warns(QuantileFallbackWarning):
            x = ampute(values, MechanismSpec(kind=Mechanism.NMAR, target_rate=0.3, seed=9))
        assert (~x.observed[:, 1]).sum() > 0


def ampute_by_formula(values, spec):
    """Amputation written as plain formulas: a boolean mask built by fancy
    assignment, constant columns found with ``np.unique``, then ``np.where``.
    Returns the stored values, the mask and the columns NMAR masks uniformly."""
    n, p = values.shape
    rng = np.random.default_rng(spec.seed)
    total = min(max(int(round(spec.target_rate * n * p)), 0), n * p - 1)
    missing = np.zeros((n, p), dtype=bool)
    fell_back = []
    if spec.kind is Mechanism.NMAR:
        base, extra = divmod(total, p)
        per_column = np.full(p, base, dtype=np.int64)
        if extra:
            per_column[rng.choice(p, size=extra, replace=False)] += 1
        for j in range(p):
            need = int(per_column[j])
            if need == 0:
                continue
            col = values[:, j]
            if np.unique(col).size < 2:
                fell_back.append(j)
            cutoff = np.sort(col)[need - 1]
            candidates = np.flatnonzero(col <= cutoff)
            if candidates.size > need:
                candidates = rng.choice(candidates, size=need, replace=False)
            missing[candidates, j] = True
    else:
        cols = np.arange(p) if spec.kind is Mechanism.MCAR else np.array(sorted(set(spec.mar_columns)))
        chosen = np.zeros((n, cols.size), dtype=bool)
        chosen.reshape(-1)[rng.choice(n * cols.size, size=total, replace=False)] = True
        missing[:, cols] = chosen
    for i in np.flatnonzero(missing.all(axis=1)):
        missing[i, rng.integers(p)] = False
    for j in np.flatnonzero(missing.all(axis=0)):
        missing[rng.integers(n), j] = False
    observed = ~missing
    return np.where(observed, values, 0.0), observed, fell_back


class TestSameBytesAsFormulas:
    """Simulation adds in place and amputation skips passes; every draw,
    mask and value stays that of the formulas, bit for bit."""

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 30), st.integers(1, 8), st.integers(1, 6),
           st.sampled_from([0.0, 0.5, 10.0]), st.sampled_from([0.0, 1e-3, 10.0]),
           st.integers(0, 2**32 - 1))
    def test_simulate_mixture(self, n, p, k, center_sd, noise_variance, seed):
        rng = np.random.default_rng(seed)
        means = rng.normal(0.0, center_sd, size=(k, p))
        labels = rng.integers(k, size=n)
        noise = rng.normal(0.0, math.sqrt(noise_variance), size=(n, p))
        values, got = simulate_mixture(MixtureSpec(n=n, p=p, k=k, center_sd=center_sd,
                                                   noise_variance=noise_variance, seed=seed))
        assert values.tobytes() == (means[labels] + noise).tobytes()
        assert np.array_equal(got.labels, labels)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 30), st.integers(1, 8), st.floats(0.01, 0.99),
           st.sampled_from(list(Mechanism)), st.integers(0, 2**8 - 1),
           st.sampled_from(["normal", "ties", "constant"]), st.sampled_from(["C", "F", "strided"]),
           st.integers(0, 2**32 - 1))
    def test_ampute(self, n, p, rate, kind, subset, values_kind, layout, seed):
        rng = np.random.default_rng(seed)
        if values_kind == "normal":
            values = rng.normal(0, 3, (n, p))
        else:  # few distinct values, signed zeros among them; or constant columns
            values = rng.choice([-1.5, -0.0, 0.0, 2.0], size=(n, p))
            if values_kind == "constant":
                values[:, ::2] = 7.0
        if layout == "F":
            values = np.asfortranarray(values)
        elif layout == "strided":
            values = np.repeat(values, 2, axis=1)[:, ::2]
        cols = tuple(j for j in range(p) if subset >> j & 1) or (0,)
        total = min(int(round(rate * n * p)), n * p - 1)
        assume(kind is not Mechanism.MAR or total <= n * len(cols))
        spec = MechanismSpec(kind=kind, target_rate=rate, seed=seed,
                             mar_columns=cols if kind is Mechanism.MAR else None)
        want_values, want_observed, fell_back = ampute_by_formula(values, spec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = ampute(values, spec)
        assert x.values.tobytes() == want_values.tobytes()
        assert x.values.strides == want_values.strides
        assert np.array_equal(x.observed, want_observed)
        assert [str(w.message).split(" have ")[0] for w in caught] == (
            [f"columns {fell_back}"] if fell_back else [])

    def test_mar_columns_masked_whole_draw_their_kept_cells(self):
        # Every cell of the single MAR column is drawn, so the last step must
        # draw a row to keep observed in it.
        values = np.arange(12.0).reshape(6, 2)
        spec = MechanismSpec(kind=Mechanism.MAR, target_rate=0.5, mar_columns=(1,), seed=4)
        want_values, want_observed, _ = ampute_by_formula(values, spec)
        x = ampute(values, spec)
        assert want_observed[:, 1].sum() == 1
        assert x.values.tobytes() == want_values.tobytes()
        assert np.array_equal(x.observed, want_observed)
