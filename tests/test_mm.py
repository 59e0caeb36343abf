import numpy as np
import pytest

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
    ampute,
    init_fill,
    kpod_fit,
    lloyd,
    majorization_value,
    project_observed,
    rand_index,
    simulate_mixture,
    standardize,
)


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
        observed = np.ones((3, 2), bool)
        observed[:, 0] = False
        with pytest.raises(DegenerateColumnError):
            init_fill(MaskedMatrix(values=np.ones((3, 2)), observed=observed))


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

    def test_fully_masked_row_rejected_with_index(self):
        observed = np.ones((4, 3), bool)
        observed[2, :] = False
        x = MaskedMatrix(values=np.ones((4, 3)), observed=observed)
        with pytest.raises(DegenerateRowError) as err:
            kpod_fit(x, KPodConfig(k=2, seed=0))
        assert err.value.row == 2

    def test_k_larger_than_n_rejected(self):
        x = MaskedMatrix(values=np.ones((3, 2)), observed=np.ones((3, 2), bool))
        with pytest.raises(InfeasibleError):
            kpod_fit(x, KPodConfig(k=4, seed=0))

    def test_empty_column_rejected(self):
        observed = np.ones((5, 3), bool)
        observed[:, 1] = False
        x = MaskedMatrix(values=np.ones((5, 3)), observed=observed)
        with pytest.raises(DegenerateColumnError):
            kpod_fit(x, KPodConfig(k=2, seed=0))

    def test_config_validation(self):
        for bad in [dict(k=0), dict(k=2.5), dict(k="3"),
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
