import numpy as np
import pytest

from kpod import (
    FileDataset,
    KPodError,
    MaskedMatrix,
    Mechanism,
    MechanismSpec,
    MixtureSpec,
    ReportRow,
    ScenarioGrid,
    aggregate_rows,
    dataset_for_trial,
    derive_seed,
    run_benchmark,
    write_masked_csv,
    write_report,
)
from kpod.benchmark import summary_path_for


def tiny_grid(**overrides):
    base = dict(
        dataset=MixtureSpec(n=40, p=6, k=3, center_sd=8.0, noise_variance=4.0),
        k=3,
        mechanisms=(MechanismSpec(kind=Mechanism.MCAR, target_rate=0.5),),
        rates=(0.2,),
        methods=("kpod", "mean_impute", "delete"),
        trials=3,
        base_seed=77,
    )
    base.update(overrides)
    return ScenarioGrid(**base)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        seen = {derive_seed(1, "run", m, r, t) for m in range(3) for r in range(3) for t in range(5)}
        assert len(seen) == 45

    def test_data_seed_independent_of_method_list(self):
        grid_a = tiny_grid(methods=("kpod",))
        grid_b = tiny_grid(methods=("delete", "kpod"))
        _, labels_a, masked_a = dataset_for_trial(grid_a, 0, 0, 1)
        _, labels_b, masked_b = dataset_for_trial(grid_b, 0, 0, 1)
        assert np.array_equal(labels_a.labels, labels_b.labels)
        assert np.array_equal(masked_a.observed, masked_b.observed)


class TestRunner:
    def test_one_row_per_scenario_trial_method(self):
        rows = run_benchmark(tiny_grid(), workers=1, measure_time=False)
        assert len(rows) == 3 * 3  # trials x methods
        keys = {(r.mechanism, r.target_rate, r.method, r.trial) for r in rows}
        assert len(keys) == 9

    def test_delete_infeasible_under_mcar_becomes_status_row(self):
        rows = run_benchmark(tiny_grid(), workers=1, measure_time=False)
        deletes = [r for r in rows if r.method == "delete"]
        assert deletes and all(r.status == "infeasible" for r in deletes)
        assert all(r.rand is None for r in deletes)
        okays = [r for r in rows if r.method != "delete"]
        assert all(r.status == "ok" and 0.0 <= r.rand <= 1.0 for r in okays)

    def test_runs_twice_identically(self):
        a = run_benchmark(tiny_grid(), workers=1, measure_time=False)
        b = run_benchmark(tiny_grid(), workers=1, measure_time=False)
        assert a == b

    def test_worker_count_does_not_change_rows(self):
        a = run_benchmark(tiny_grid(), workers=1, measure_time=False)
        b = run_benchmark(tiny_grid(), workers=2, measure_time=False)
        assert a == b

    def test_measure_time_populates_seconds(self):
        rows = run_benchmark(tiny_grid(trials=1, methods=("kpod",)), workers=1)
        assert all(r.seconds > 0 for r in rows if r.status == "ok")

    def test_mm_iterations_only_for_kpod(self):
        rows = run_benchmark(tiny_grid(trials=1), workers=1, measure_time=False)
        by_method = {r.method: r for r in rows}
        assert by_method["kpod"].mm_iterations >= 0
        assert by_method["mean_impute"].mm_iterations is None

    def test_achieved_rate_close_to_target(self):
        rows = run_benchmark(tiny_grid(trials=2), workers=1, measure_time=False)
        assert all(abs(r.achieved_rate - 0.2) <= 0.01 for r in rows)

    def test_file_dataset_grid(self, tmp_path):
        rng = np.random.default_rng(5)
        centers = np.array([[0.0] * 4, [25.0] * 4])
        labels = np.repeat([0, 1], 15)
        values = centers[labels] + rng.normal(0, 1, (30, 4))
        data_path = tmp_path / "pop.csv"
        with data_path.open("w") as handle:
            handle.write("class,a,b,c,d\n")
            for label, row in zip(labels, values):
                handle.write(",".join([str(label + 1)] + [repr(float(v)) for v in row]) + "\n")
        grid = tiny_grid(
            dataset=FileDataset(path=str(data_path), label_column="class"),
            k=2,
            trials=2,
            methods=("kpod", "mean_impute"),
        )
        rows = run_benchmark(grid, workers=1, measure_time=False)
        assert all(r.status == "ok" for r in rows)
        assert all(r.rand == 1.0 for r in rows)  # trivially separable pair

    def test_file_dataset_requires_labels(self, tmp_path):
        x = MaskedMatrix(values=np.ones((4, 2)), observed=np.ones((4, 2), bool))
        path = tmp_path / "pop.csv"
        write_masked_csv(x, path)
        grid = tiny_grid(dataset=FileDataset(path=str(path)), trials=1)
        with pytest.raises(KPodError):
            run_benchmark(grid, workers=1)

    def test_perturbation_changes_data_per_trial(self):
        grid = tiny_grid(perturb_rel_sd=0.1, trials=2, methods=("kpod",))
        values_a, _, _ = dataset_for_trial(grid, 0, 0, 0)
        values_b, _, _ = dataset_for_trial(grid, 0, 0, 1)
        assert not np.array_equal(values_a, values_b)


class TestConfigParsing:
    def test_mixture_config_round_trip(self):
        grid = ScenarioGrid.from_dict({
            "mixture": {"n": 20, "p": 4, "k": 2},
            "k": 2,
            "mechanisms": ["mcar", "nmar"],
            "rates": [0.25],
            "methods": ["kpod"],
            "trials": 2,
            "base_seed": 9,
        })
        assert isinstance(grid.dataset, MixtureSpec)
        assert grid.mechanisms[0].kind is Mechanism.MCAR
        assert grid.mechanisms[1].kind is Mechanism.NMAR

    def test_mar_columns_applied(self):
        grid = ScenarioGrid.from_dict({
            "mixture": {"n": 20, "p": 6, "k": 2},
            "k": 2,
            "mechanisms": ["mar"],
            "mar_columns": [0, 3],
            "rates": [0.1],
            "methods": ["kpod"],
            "trials": 1,
            "base_seed": 1,
        })
        assert grid.mechanisms[0].mar_columns == (0, 3)

    def test_unknown_keys_rejected(self):
        with pytest.raises(KPodError):
            ScenarioGrid.from_dict({
                "mixture": {"n": 5, "p": 2, "k": 1}, "k": 1, "mechanisms": ["mcar"],
                "rates": [0.1], "methods": ["kpod"], "trials": 1, "base_seed": 0,
                "bogus": True,
            })

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            tiny_grid(methods=("kpod", "magic"))

    def test_needs_dataset_section(self):
        with pytest.raises(KPodError):
            ScenarioGrid.from_dict({"k": 2, "mechanisms": ["mcar"], "rates": [0.1],
                                    "methods": ["kpod"], "trials": 1, "base_seed": 0})


class TestReportWriting:
    def make_row(self, **overrides):
        base = dict(mechanism="mcar", target_rate=0.25, achieved_rate=0.25,
                    method="kpod", trial=0, rand=0.9, adjusted_rand=0.8,
                    seconds=0.1, mm_iterations=4, status="ok")
        base.update(overrides)
        return ReportRow(**base)

    def test_empty_rows_give_header_only_files(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([], path)
        assert path.read_text().count("\n") == 1
        assert summary_path_for(path).read_text().count("\n") == 1

    def test_single_row_aggregate_matches_row_with_zero_se(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([self.make_row()], path)
        header, line = summary_path_for(path).read_text().splitlines()
        cells = dict(zip(header.split(","), line.split(",")))
        assert cells["count"] == "1"
        assert float(cells["rand_mean"]) == 0.9
        assert float(cells["rand_se"]) == 0.0

    def test_aggregate_matches_hand_mean_and_se(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.5, 1.0, 100)
        rows = [self.make_row(trial=i, rand=float(v)) for i, v in enumerate(values)]
        agg = aggregate_rows(rows)
        assert len(agg) == 1
        assert agg[0].count == 100
        assert agg[0].rand_mean == pytest.approx(values.mean(), rel=1e-12)
        assert agg[0].rand_se == pytest.approx(values.std(ddof=1) / 10, rel=1e-12)

    def test_failed_rows_excluded_from_stats_but_group_kept(self):
        rows = [
            self.make_row(status="infeasible", rand=None, adjusted_rand=None,
                          seconds=None, mm_iterations=None),
        ]
        agg = aggregate_rows(rows)
        assert agg[0].count == 0
        assert agg[0].rand_mean is None

    def test_numpy_float_rate_written_as_plain_float(self, tmp_path):
        grid = tiny_grid(rates=tuple(np.array([0.2])), methods=("mean_impute",), trials=1)
        path = tmp_path / "report.csv"
        write_report(run_benchmark(grid, measure_time=False), path)
        for written in (path, summary_path_for(path)):
            header, line = written.read_text().splitlines()
            assert dict(zip(header.split(","), line.split(",")))["target_rate"] == "0.2"

    def test_none_cells_written_empty(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([self.make_row(rand=None, status="infeasible")], path)
        line = path.read_text().splitlines()[1]
        assert ",,"  in line or line.endswith(",")
        assert "infeasible" in line
