import json
import warnings

import numpy as np
import pytest

from kpod import (
    EngineSettings,
    FileDataset,
    InfeasibleError,
    KPodConfig,
    KPodError,
    Mechanism,
    MechanismSpec,
    MixtureSpec,
    ReportRow,
    ScenarioGrid,
    aggregate_rows,
    dataset_for_trial,
    derive_seed,
    lloyd,
    perturb_dataset,
    run_benchmark,
    write_report,
)
from kpod.benchmark import summary_path_for
from kpod.cli import cli


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

    def test_file_dataset_requires_labels(self):
        # Runs are scored against the true classes, so a population without
        # them is rejected when it is built, before any run.
        with pytest.raises(TypeError):
            FileDataset(path="pop.csv")
        with pytest.raises(ValueError, match="label_column"):
            FileDataset(path="pop.csv", label_column=None)

    def test_unstandardizable_trial_gives_error_rows(self):
        # Squared deviations near 1e200 overflow, so standardize raises for
        # every trial; the campaign reports that per method and goes on.
        grid = tiny_grid(dataset=MixtureSpec(n=40, p=6, k=3, center_sd=1e200), trials=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_benchmark(grid, workers=1)
        assert [(r.trial, r.method) for r in rows] == [
            (t, m) for t in range(2) for m in ("kpod", "mean_impute", "delete")]
        assert all(r.status == "error:InfeasibleError" and r.rand is None
                   and r.seconds is None for r in rows)
        assert run_benchmark(grid, workers=2) == rows

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

    @pytest.mark.parametrize("key", [
        "k", "trials", "max_mm_iter", "inner_max_iter", "n_init", "base_seed",
        "mixture.n", "mixture.p", "mixture.k",
    ])
    def test_k_must_be_a_count(self, key):
        raw = {"mixture": {"n": 20, "p": 4, "k": 2}, "k": 2, "mechanisms": ["mcar"],
               "rates": [0.25], "methods": ["kpod"], "trials": 1, "base_seed": 9}
        section, _, field = key.rpartition(".")
        name = field.removeprefix("inner_")  # EngineSettings names it max_iter

        def config(value):
            out = {**raw, "mixture": dict(raw["mixture"])}
            (out[section] if section else out)[field] = value
            return out

        lowest = 0 if key == "base_seed" else 1
        for bad in (2.5, lowest - 1, "3", True):
            with pytest.raises(ValueError, match=rf"\b{name} must be"):
                ScenarioGrid.from_dict(config(bad))
            if not section and key in ScenarioGrid.__dataclass_fields__:
                with pytest.raises(ValueError, match=rf"\b{name} must be"):
                    tiny_grid(**{key: bad})
        # JSON may write a count as 2.0: it is read as the int 2.
        assert repr(ScenarioGrid.from_dict(config(2.0))) == repr(ScenarioGrid.from_dict(config(2)))

    @pytest.mark.parametrize("overrides", [
        dict(mm_tol=0.0), dict(mm_tol=float("nan")),
        dict(perturb_rel_sd=-0.1), dict(perturb_rel_sd=float("nan")),
        dict(perturb_rel_sd=float("inf")), dict(perturb_rel_sd=True),
        dict(standardize="false"), dict(standardize=0),
    ], ids=str)
    def test_bad_values_rejected_when_built(self, overrides):
        with pytest.raises(ValueError):
            tiny_grid(**overrides)

    def test_mixture_rejects_nan_spread(self):
        for bad in (dict(center_sd=float("nan")), dict(noise_variance=float("nan"))):
            with pytest.raises(ValueError):
                MixtureSpec(n=10, p=2, k=2, **bad)

    @pytest.mark.parametrize("build, error, name", [
        (lambda: KPodConfig(k=2, mm_tol="x"), ValueError, "mm_tol"),
        (lambda: KPodConfig(k=2, mm_tol=None), ValueError, "mm_tol"),
        (lambda: EngineSettings(tol="x"), ValueError, "tol"),
        (lambda: lloyd(np.zeros((4, 2)), 1, tol=None), ValueError, "tol"),
        (lambda: MixtureSpec(n=10, p=2, k=2, center_sd="a"), ValueError, "center_sd"),
        (lambda: MixtureSpec(n=10, p=2, k=2, noise_variance=None), ValueError, "noise_variance"),
        (lambda: MechanismSpec(kind=Mechanism.MCAR, target_rate="0.2"), ValueError, "target_rate"),
        (lambda: MechanismSpec(kind=Mechanism.MCAR, target_rate=None), ValueError, "target_rate"),
        (lambda: perturb_dataset(np.ones((3, 2)), "a"), ValueError, "rel_sd"),
        (lambda: tiny_grid(rates=("0.2",)), ValueError, "rates"),
        (lambda: tiny_grid(mm_tol="x"), ValueError, "mm_tol"),
        (lambda: Mechanism.parse(3), InfeasibleError, "mechanism"),
    ], ids=["mm_tol-str", "mm_tol-none", "tol-str", "lloyd-tol-none", "center_sd-str",
            "noise_variance-none", "target_rate-str", "target_rate-none", "rel_sd-str",
            "rates-str", "grid-mm_tol-str", "mechanism-int"])
    def test_a_setting_of_the_wrong_type_raises_the_settings_error(self, build, error, name):
        # The error a value out of range raises, naming the setting, not a TypeError.
        with pytest.raises(error, match=rf"\b{name}\b"):
            build()

    @pytest.mark.parametrize("key", [
        "k", "mechanisms", "rates", "trials", "base_seed", "mixture.n", "mixture.p", "mixture.k",
        "dataset.path", "dataset.label_column", "top-level array",
    ])
    def test_malformed_config_is_an_error_not_a_traceback(self, key, tmp_path, capsys):
        raw = {"mixture": {"n": 20, "p": 4, "k": 2}, "k": 2, "mechanisms": ["mcar"],
               "rates": [0.25], "trials": 1, "base_seed": 9}
        section, _, field = key.rpartition(".")
        if section == "dataset":
            raw.pop("mixture")
            raw["dataset"] = {"path": "pop.csv", "label_column": "class"}
        if key == "top-level array":
            raw, field = [raw], "JSON object"
        else:
            (raw[section] if section else raw).pop(field)
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(raw))
        code = cli(["benchmark", "--config", str(config), "--output", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("key, bad", [
        ("rates", [None]), ("rates", [True]), ("rates", ["0.2"]), ("rates", [[0.2]]),
        ("mm_tol", None), ("mm_tol", "1e-6"), ("mm_tol", True),
        ("inner_tol", None), ("inner_tol", [1e-6]),
        ("perturb_rel_sd", "0.1"), ("perturb_rel_sd", False),
        ("mixture.center_sd", None), ("mixture.center_sd", "10"),
        ("mixture.noise_variance", True), ("mixture.noise_variance", {}),
        ("mm_tol", 10**400),
    ], ids=str)
    def test_a_number_of_another_json_type_is_an_error(self, key, bad, tmp_path, capsys):
        raw = {"mixture": {"n": 20, "p": 4, "k": 2}, "k": 2, "mechanisms": ["mcar"],
               "rates": [0.25], "trials": 1, "base_seed": 9}
        section, _, field = key.rpartition(".")
        (raw[section] if section else raw)[field] = bad
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(raw))
        code = cli(["benchmark", "--config", str(config), "--output", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("section, body", [
        ("mixture", {"n": 20, "p": 4, "k": 2, "centre_sd": 1e9}),
        ("dataset", {"path": "pop.csv", "label_column": "class", "missing-token": "?"}),
    ])
    def test_unknown_keys_inside_a_section_rejected(self, section, body):
        raw = {section: body, "k": 2, "mechanisms": ["mcar"], "rates": [0.25],
               "trials": 1, "base_seed": 9}
        with pytest.raises(KPodError, match=f"unknown {section} keys.*{list(body)[-1]}"):
            ScenarioGrid.from_dict(raw)

    @pytest.mark.parametrize("key", ["rates", "methods", "mechanisms"])
    def test_empty_lists_rejected(self, key):
        with pytest.raises(ValueError, match=f"{key} must not be empty"):
            tiny_grid(**{key: ()})
        raw = {"mixture": {"n": 20, "p": 4, "k": 2}, "k": 2, "mechanisms": ["mcar"],
               "rates": [0.25], "trials": 1, "base_seed": 9, key: []}
        with pytest.raises(ValueError, match=f"{key} must not be empty"):
            ScenarioGrid.from_dict(raw)

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

    def test_headers_are_the_row_fields_in_order(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([self.make_row()], path)
        assert path.read_text().splitlines()[0].split(",") == [
            "mechanism", "target_rate", "achieved_rate", "method", "trial",
            "rand", "adjusted_rand", "seconds", "mm_iterations", "status",
        ]
        assert summary_path_for(path).read_text().splitlines()[0].split(",") == [
            "mechanism", "target_rate", "method", "count",
            "rand_mean", "rand_se", "adjusted_rand_mean", "adjusted_rand_se",
            "seconds_mean", "seconds_se",
        ]

    def test_none_cells_written_empty(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([self.make_row(rand=None, status="infeasible")], path)
        line = path.read_text().splitlines()[1]
        assert ",,"  in line or line.endswith(",")
        assert "infeasible" in line
