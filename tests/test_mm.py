import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpod import (
    Assignment,
    Centroids,
    DegenerateColumnError,
    DegenerateRowError,
    EngineSettings,
    InfeasibleError,
    KPodConfig,
    MaskedMatrix,
    Mechanism,
    MechanismSpec,
    MixtureSpec,
    ShapeMismatchError,
    ampute,
    column_stats,
    delete_cluster,
    fill_unobserved,
    init_fill,
    kpod_fit,
    lloyd,
    majorization_value,
    mean_impute_cluster,
    project_observed,
    rand_index,
    simulate_mixture,
    standardize,
)
from kpod import mm
from kpod.kmeans import _BLOCK_ROWS, RowBounds
from kpod.mm import validate_clusterable

ENTRY_POINTS = ("kpod_fit", "mean_impute_cluster", "delete_cluster", "lloyd")


def random_masked(rng, n, p, rate):
    values = rng.normal(0, 3, (n, p))
    observed = rng.random((n, p)) >= rate
    observed[rng.integers(n), :] = True
    observed[:, rng.integers(p)] = True
    return MaskedMatrix(values=values, observed=observed)


def random_model(rng, n, p, k):
    labels = rng.integers(0, k, n)
    labels[:k] = np.arange(k)
    return Assignment(labels=labels), Centroids(centers=rng.normal(0, 2, (k, p)))


class TestInitFill:
    def test_complete_unchanged(self):
        values = np.arange(6.0).reshape(3, 2)
        x = MaskedMatrix(values=values, observed=np.ones((3, 2), bool))
        assert np.array_equal(init_fill(x), values)

    def test_column_mean_hand_case(self):
        x = MaskedMatrix(values=[[1.0], [0.0], [3.0]], observed=[[True], [False], [True]])
        assert init_fill(x)[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_random_matches_mean_fill_oracle(self):
        rng = np.random.default_rng(0)
        x = random_masked(rng, 10, 4, 0.4)
        out = init_fill(x)
        for j in range(4):
            kept = [x.values[i, j] for i in range(10) if x.observed[i, j]]
            for i in range(10):
                expected = x.values[i, j] if x.observed[i, j] else np.mean(kept)
                assert out[i, j] == pytest.approx(expected, rel=1e-12)

    def test_degenerate_column_propagates(self):
        observed = np.ones((3, 3), bool)
        observed[:, 1] = False
        with pytest.raises(DegenerateColumnError) as err:
            init_fill(MaskedMatrix(values=np.ones((3, 3)), observed=observed))
        assert err.value.column == 1

    def test_bit_identical_to_the_column_stats_means(self):
        rng = np.random.default_rng(12)
        x = random_masked(rng, 300, 7, 0.5)
        want = np.where(x.observed, x.values, column_stats(x).means)
        assert init_fill(x).tobytes() == want.tobytes()


class TestMajorization:
    def test_tangency_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = random_masked(rng, 8, 3, 0.4)
            a, b = random_model(rng, 8, 3, 3)
            surrogate = majorization_value(x, a, b, a, b)
            objective = project_observed(x, b.centers[a.labels])
            assert surrogate == objective  # bitwise: same sums, zeros off-mask

    def test_domination(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            x = random_masked(rng, 7, 4, 0.5)
            a, b = random_model(rng, 7, 4, 2)
            a2, b2 = random_model(rng, 7, 4, 2)
            surrogate = majorization_value(x, a2, b2, a, b)
            objective = project_observed(x, b2.centers[a2.labels])
            assert surrogate >= objective - 1e-9

    @pytest.mark.parametrize("a, b", [
        (Assignment(labels=[0]), Centroids(centers=[[0.0, 1.0], [2.0, 3.0]])),
        (Assignment(labels=[0, 1] * 3), Centroids(centers=[[0.0], [2.0]])),
    ], ids=["one-label", "one-feature"])
    def test_an_iterate_that_does_not_fit_raises(self, a, b):
        # Both shapes would broadcast against the 6x2 fill.
        x = random_masked(np.random.default_rng(4), 6, 2, 0.3)
        a_prev, b_prev = random_model(np.random.default_rng(5), 6, 2, 2)
        with pytest.raises(ShapeMismatchError):
            majorization_value(x, a, b, a_prev, b_prev)

    def test_bit_identical_to_difference_expression(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n, p, k = rng.integers(3, 30), rng.integers(1, 6), rng.integers(1, 4)
            x = random_masked(rng, n, p, 0.4)
            (a, b), (a_prev, b_prev) = random_model(rng, n, p, k), random_model(rng, n, p, k)
            diff = fill_unobserved(x, b_prev.centers[a_prev.labels]) - b.centers[a.labels]
            want = float(np.sum(diff * diff))
            assert majorization_value(x, a, b, a_prev, b_prev).hex() == want.hex()

    def test_an_overflow_gives_inf_without_a_warning(self):
        x = MaskedMatrix(values=[[1e200, 0.0], [-1e200, 1.0]], observed=[[True, True], [True, False]])
        a, b = Assignment(labels=[0, 0]), Centroids(centers=[[0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert majorization_value(x, a, b, a, b) == np.inf

    def test_complete_input_reduces_to_plain_objective(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, (6, 3))
        x = MaskedMatrix(values=values, observed=np.ones((6, 3), bool))
        a, b = random_model(rng, 6, 3, 2)
        a_prev, b_prev = random_model(rng, 6, 3, 2)
        surrogate = majorization_value(x, a, b, a_prev, b_prev)
        assert surrogate == pytest.approx(
            float(np.sum((values - b.centers[a.labels]) ** 2)), rel=1e-12
        )


class TestKPodFit:
    def test_complete_data_equals_lloyd_bitwise(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 2, (40, 5))
        x = MaskedMatrix(values=values, observed=np.ones((40, 5), bool))
        fit = kpod_fit(x, KPodConfig(k=3, seed=99))
        direct = lloyd(values, 3, seed=99)
        assert np.array_equal(fit.assignment.labels, direct.assignment.labels)
        assert np.array_equal(fit.centroids.centers, direct.centroids.centers)
        assert fit.mm_iterations == 0
        assert len(fit.observed_objective_trace) == 1
        assert fit.converged

    def test_exact_recovery_drives_objective_to_zero(self):
        # rows are exact copies of well separated centroid rows
        centers = np.array([
            [10.0, 10.0, -10.0, 10.0, -10.0],
            [10.0, -10.0, 10.0, -10.0, 10.0],
            [-10.0, 10.0, 10.0, -10.0, -10.0],
        ])
        labels = np.repeat(np.arange(3), 12)
        data = centers[labels]
        x = ampute(data, MechanismSpec(kind=Mechanism.MCAR, target_rate=0.3, seed=7))
        fit = kpod_fit(x, KPodConfig(k=3, seed=7, inner=EngineSettings(n_init=5)))
        assert fit.observed_objective_trace[-1] <= 1e-9
        assert rand_index(Assignment(labels=labels), fit.assignment) == 1.0

    def test_full_scale_mixture_recovery(self):
        # 500x100 draw from ten well separated components, quarter of the
        # entries hidden; threshold pre-registered from pilot runs
        # (pilot over 20 seeds: mean 0.953, min 0.880)
        rands = []
        for seed in range(10):
            values, labels = simulate_mixture(MixtureSpec(
                n=500, p=100, k=10, center_sd=10.0, noise_variance=10.0, seed=seed))
            x = ampute(values, MechanismSpec(
                kind=Mechanism.MCAR, target_rate=0.25, seed=500 + seed))
            fit = kpod_fit(standardize(x)[0], KPodConfig(k=10, seed=seed))
            rands.append(rand_index(labels, fit.assignment))
        assert np.mean(rands) >= 0.90

    def test_trace_is_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n, p, k = int(rng.integers(8, 40)), int(rng.integers(2, 8)), int(rng.integers(1, 5))
            x = random_masked(rng, n, p, float(rng.uniform(0, 0.6)))
            fit = kpod_fit(x, KPodConfig(k=k, seed=int(rng.integers(2**31))))
            trace = np.array(fit.observed_objective_trace)
            assert np.all(trace[1:] <= trace[:-1] + 1e-9)

    def test_last_trace_value_matches_returned_model(self):
        rng = np.random.default_rng(6)
        x = random_masked(rng, 25, 4, 0.4)
        fit = kpod_fit(x, KPodConfig(k=3, seed=1))
        model = fit.centroids.centers[fit.assignment.labels]
        assert fit.observed_objective_trace[-1] == pytest.approx(
            project_observed(x, model), abs=1e-9
        )

    def test_fitted_fill_agrees_on_observed_cells(self):
        rng = np.random.default_rng(7)
        x = random_masked(rng, 20, 3, 0.5)
        fit = kpod_fit(x, KPodConfig(k=2, seed=2))
        assert np.array_equal(fit.fitted_fill[x.observed], x.values[x.observed])

    def test_fitted_fill_uses_model_off_mask(self):
        rng = np.random.default_rng(8)
        x = random_masked(rng, 20, 3, 0.5)
        fit = kpod_fit(x, KPodConfig(k=2, seed=2))
        model = fit.centroids.centers[fit.assignment.labels]
        assert np.array_equal(fit.fitted_fill[~x.observed], model[~x.observed])

    def test_masked_values_cannot_influence_result(self):
        # poison the hidden cells: construction zeroes them, so output is identical
        rng = np.random.default_rng(9)
        values = rng.normal(0, 2, (30, 4))
        observed = rng.random((30, 4)) >= 0.4
        observed[0, :] = True
        clean = MaskedMatrix(values=values, observed=observed)
        poisoned_values = values.copy()
        poisoned_values[~observed] = 1e6
        poisoned = MaskedMatrix(values=poisoned_values, observed=observed)
        a = kpod_fit(clean, KPodConfig(k=3, seed=5))
        b = kpod_fit(poisoned, KPodConfig(k=3, seed=5))
        assert np.array_equal(a.assignment.labels, b.assignment.labels)
        assert np.array_equal(a.centroids.centers, b.centroids.centers)
        assert a.observed_objective_trace == b.observed_objective_trace

    def test_allocates_at_most_two_and_a_quarter_copies_of_the_data(self):
        # The fixed-work fit of the benchmark: 11 rounds of two sweeps each.
        # It holds the filled matrix (one copy), its inverted mask (1/8 of a
        # copy), one n x p temporary at a time, a refill's gathered model,
        # which the objective then overwrites, or update_step's cell indices,
        # and vectors of n labels, norms and bounds (2.249 copies in all).
        rng = np.random.default_rng(13)
        centers = rng.normal(0, 3, (20, 50))
        values = centers[rng.integers(0, 20, 20000)] + rng.normal(0, 1, (20000, 50))
        x = MaskedMatrix(values=values, observed=rng.random((20000, 50)) >= 0.5)
        cfg = KPodConfig(k=20, seed=1, max_mm_iter=11, mm_tol=1e-15,
                         inner=EngineSettings(max_iter=2))
        tracemalloc.start()
        try:
            kpod_fit(x, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9 / 4 * x.values.nbytes

    def test_fully_masked_row_rejected_with_index(self):
        observed = np.ones((4, 3), bool)
        observed[2, :] = False
        x = MaskedMatrix(values=np.ones((4, 3)), observed=observed)
        with pytest.raises(DegenerateRowError) as err:
            kpod_fit(x, KPodConfig(k=2, seed=0))
        assert err.value.row == 2

    def test_overflowing_scale_is_infeasible_not_a_numpy_error(self):
        # Squared distances between rows near 1e200 overflow, so seeding has
        # no finite probabilities to sample from.
        rng = np.random.default_rng(13)
        x = MaskedMatrix(values=rng.normal(0, 1, (30, 3)) * 1e200,
                         observed=np.ones((30, 3), bool))
        with np.errstate(over="ignore"), pytest.raises(InfeasibleError, match="overflow"):
            kpod_fit(x, KPodConfig(k=3, seed=0))

    @pytest.mark.parametrize("case, k, method", [
        *[("rows near 1e300", k, m) for k in (1, 2) for m in ENTRY_POINTS],
        *[("columns near 1.5e306", 1, m) for m in ENTRY_POINTS],
        *[("columns near 1.5e306", 2, m) for m in ("kpod_fit", "mean_impute_cluster")],
        *[("distances near 1.4e308", 2, m) for m in ENTRY_POINTS],
    ], ids=str)
    def test_an_overflowing_scale_is_infeasible_at_every_k(self, case, k, method):
        # Rows near 1e300 give squared distances past the largest float, also
        # to the one center of k=1. Columns near 1.5e306 are constant (the
        # 1e100 noise rounds away) and their sums overflow: in the column
        # means, or in the cluster sums of a complete matrix. Rows of +-6e153
        # give finite squared distances whose sum overflows. Each is an
        # InfeasibleError, and no numpy warning.
        rng = np.random.default_rng(4)
        if case == "rows near 1e300":
            values = rng.normal(0, 1, (50, 3)) * 1e300
        elif case == "columns near 1.5e306":
            values = 1.5e306 + rng.normal(0, 1, (1000, 2)) * 1e100
        else:
            values = np.array([[6e153, 0.0], [-6e153, 0.0]] * 50)
        complete = MaskedMatrix(values=values, observed=np.ones(values.shape, bool))
        x = ampute(values, MechanismSpec(kind=Mechanism.MCAR, target_rate=0.3, seed=5))
        call = {
            "kpod_fit": lambda: kpod_fit(x, KPodConfig(k=k, seed=0)),
            "mean_impute_cluster": lambda: mean_impute_cluster(x, k, seed=0),
            "delete_cluster": lambda: delete_cluster(complete, k, seed=0),
            "lloyd": lambda: lloyd(values, k, seed=0),
        }[method]
        with pytest.raises(InfeasibleError):
            call()

    def test_k_larger_than_n_rejected(self):
        x = MaskedMatrix(values=np.ones((3, 2)), observed=np.ones((3, 2), bool))
        with pytest.raises(InfeasibleError):
            kpod_fit(x, KPodConfig(k=4, seed=0))
        # delete_cluster leaves the k check to lloyd, with the same messages.
        with pytest.raises(InfeasibleError, match="^need k <= n rows, got k=4, n=3$"):
            delete_cluster(x, 4, seed=0)
        with pytest.raises(ValueError, match="^k must be an integer >= 1$"):
            delete_cluster(x, 0, seed=0)

    def test_empty_column_rejected(self):
        observed = np.ones((5, 3), bool)
        observed[:, 1] = False
        x = MaskedMatrix(values=np.ones((5, 3)), observed=observed)
        with pytest.raises(DegenerateColumnError):
            kpod_fit(x, KPodConfig(k=2, seed=0))

    def test_config_validation(self):
        for bad in [dict(k=0), dict(k=2.5), dict(k="3"), dict(k=True),
                    dict(k=2, mm_tol=0.0), dict(k=2, mm_tol=float("nan")),
                    dict(k=2, max_mm_iter=0), dict(k=2, max_mm_iter=10.0)]:
            with pytest.raises(ValueError):
                KPodConfig(**bad)
        for bad in [dict(max_iter=0), dict(max_iter=2.5), dict(tol=0.0),
                    dict(tol=float("nan")), dict(n_init=0), dict(n_init=1.0)]:
            with pytest.raises(ValueError):
                EngineSettings(**bad)
        KPodConfig(k=np.int64(2), max_mm_iter=np.int32(5),
                   inner=EngineSettings(max_iter=np.int64(3), n_init=np.int64(2)))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        x = random_masked(rng, 30, 5, 0.35)
        a = kpod_fit(x, KPodConfig(k=3, seed=42))
        b = kpod_fit(x, KPodConfig(k=3, seed=42))
        assert np.array_equal(a.assignment.labels, b.assignment.labels)
        assert a.observed_objective_trace == b.observed_objective_trace


class TestOneBlockRule:
    """kpod_fit carries RowBounds across rounds only when the data spans more
    than one block of rows; either way every output is the same."""

    @staticmethod
    def fit(x, cfg, monkeypatch, block_rows):
        built = []

        def counted(n):
            built.append(n)
            return RowBounds(n)

        with monkeypatch.context() as patch:
            patch.setattr(mm, "_BLOCK_ROWS", block_rows)
            patch.setattr(mm, "RowBounds", counted)
            r = kpod_fit(x, cfg)
        return built, (r.assignment.labels.tobytes(), r.centroids.centers.tobytes(),
                       [v.hex() for v in r.observed_objective_trace], r.mm_iterations,
                       r.converged, r.fitted_fill.tobytes())

    @pytest.mark.parametrize("kind", list(Mechanism), ids=lambda kind: kind.value)
    def test_bounded_small_fit_is_bit_identical(self, monkeypatch, kind):
        values, _ = simulate_mixture(MixtureSpec(n=200, p=40, k=5, center_sd=1.0, seed=3))
        x = ampute(values, MechanismSpec(
            kind=kind, target_rate=0.4, seed=4,
            mar_columns=tuple(range(20)) if kind is Mechanism.MAR else None))
        cfg = KPodConfig(k=5, seed=5, max_mm_iter=40, mm_tol=1e-15)
        built, default = self.fit(x, cfg, monkeypatch, _BLOCK_ROWS)
        assert built == []
        built, bounded = self.fit(x, cfg, monkeypatch, 64)
        assert built == [200]
        assert bounded == default

    def test_one_row_past_a_block_takes_the_bounds(self, monkeypatch):
        n = _BLOCK_ROWS + 1
        values, _ = simulate_mixture(MixtureSpec(n=n, p=6, k=4, seed=6))
        x = ampute(values, MechanismSpec(kind=Mechanism.MCAR, target_rate=0.3, seed=7))
        cfg = KPodConfig(k=4, seed=8, max_mm_iter=20, mm_tol=1e-15)
        built, bounded = self.fit(x, cfg, monkeypatch, _BLOCK_ROWS)
        assert built == [n]
        built, unbounded = self.fit(x, cfg, monkeypatch, n)
        assert built == []
        assert bounded == unbounded


def reference_fit(x, cfg):
    """kpod_fit as a project_observed pass per round, an early return on
    complete data and a refill after the last round: the reference that the
    one-fill, one-objective round must match bit for bit."""
    validate_clusterable(x, cfg.k)
    rng = np.random.default_rng(cfg.seed)
    result = lloyd(init_fill(x), cfg.k, seed=rng, max_iter=cfg.inner.max_iter,
                   tol=cfg.inner.tol, n_init=cfg.inner.n_init)
    model = result.centroids.centers[result.assignment.labels]
    trace = [project_observed(x, model)]
    if x.complete():
        return result.assignment, result.centroids, trace, 0, True, x.values.copy()
    converged = False
    for _ in range(cfg.max_mm_iter):
        filled = fill_unobserved(x, model)
        result = lloyd(filled, cfg.k, seed=rng, init=result.centroids,
                       max_iter=cfg.inner.max_iter, tol=cfg.inner.tol)
        model = result.centroids.centers[result.assignment.labels]
        trace.append(project_observed(x, model))
        prev, cur = trace[-2], trace[-1]
        if prev == 0 or (prev - cur) / prev < cfg.mm_tol:
            converged = True
            break
    return (result.assignment, result.centroids, trace, len(trace) - 1, converged,
            fill_unobserved(x, model))


def outcome(fit):
    """Everything a fit returns, as bytes and hex strings, or the type of the
    error it raised."""
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            a, b, trace, rounds, converged, fitted_fill = fit()
    except Exception as exc:  # the error type is the outcome compared
        return type(exc)
    return (a.labels.tobytes(), b.centers.tobytes(), [float(v).hex() for v in trace],
            rounds, converged, fitted_fill.tobytes())


# Scales as in the k-means oracle properties: 1e-160 underflows the squared
# error to 0, the 1e6 offset cancels badly, and near 5e153 squared distances
# overflow, so some fits stop at a zero objective and some are infeasible.
FIT_SCALES = ((1.0, 0.0), (1e-160, 0.0), (1.0, 1e6), (5e153, 0.0))
FIT_CASES = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 3, 12, 40, 120, 120]),
    st.integers(2, 5),
    st.sampled_from(["small"] * 4 + ["n", "over"]),
    st.sampled_from(["normal"] * 3 + ["grid", "constant_rows"]),
    st.sampled_from(["complete", "mcar", "mar", "nmar"]),
    st.sampled_from(FIT_SCALES),
    st.tuples(st.sampled_from([60, 60, 5, 2, 1]), st.sampled_from([1e-15, 1e-15, 1e-6, 1e-2]),
              st.sampled_from([100, 2, 1]), st.integers(1, 2)),
)


@settings(deadline=None, max_examples=300)
@given(FIT_CASES)
def test_kpod_fit_matches_reference_loop_bit_for_bit(case):
    seed, n, p, k_rule, layout, mechanism, (scale, offset), settings_ = case
    max_mm_iter, mm_tol, inner_max_iter, n_init = settings_
    rng = np.random.default_rng(seed)
    k = {"small": int(rng.integers(1, min(n, 5) + 1)), "n": n, "over": n + 1}[k_rule]
    if layout == "grid":
        values = rng.integers(-2, 3, (n, p)).astype(float)
    elif layout == "constant_rows":
        values = np.repeat(rng.normal(0, 1, (1, p)), n, axis=0)
    else:
        values = rng.normal(0, 1, (n, p))
    values = values * scale + offset
    if mechanism == "complete":
        x = MaskedMatrix(values=values, observed=np.ones((n, p), bool))
    else:
        kind = Mechanism(mechanism)
        spec = MechanismSpec(
            kind=kind, target_rate=float(rng.choice([0.1, 0.3, 0.45])), seed=seed,
            mar_columns=tuple(range(p // 2 + 1)) if kind is Mechanism.MAR else None,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x = ampute(values, spec)
    cfg = KPodConfig(k=k, seed=seed, max_mm_iter=max_mm_iter, mm_tol=mm_tol,
                     inner=EngineSettings(max_iter=inner_max_iter, n_init=n_init))

    def fit():
        r = kpod_fit(x, cfg)
        return (r.assignment, r.centroids, r.observed_objective_trace, r.mm_iterations,
                r.converged, r.fitted_fill)

    assert outcome(fit) == outcome(lambda: reference_fit(x, cfg))
