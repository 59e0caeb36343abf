import json
import pickle
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kpod import (
    CsvParseError,
    EngineSettings,
    FileDataset,
    InfeasibleError,
    KPodConfig,
    KPodError,
    MaskedMatrix,
    Mechanism,
    MechanismSpec,
    MixtureSpec,
    ReportRow,
    ScenarioGrid,
    aggregate_rows,
    dataset_for_trial,
    delete_cluster,
    derive_seed,
    lloyd,
    mean_impute_cluster,
    perturb_dataset,
    run_benchmark,
    write_report,
)
from kpod.benchmark import summary_path_for
from kpod.cli import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# A MAR rate of 0.4 over 120x8 needs 384 cells, but MAR columns 0 and 1 hold
# 240: the campaign's MAR@0.4 trials cannot be amputed, every other cell can.
UNAMPUTABLE_CELL = {"mixture": {"n": 120, "p": 8, "k": 3}, "k": 3, "mechanisms": ["mcar", "mar"],
                    "mar_columns": [0, 1], "rates": [0.2, 0.4], "trials": 2, "base_seed": 5}

MASKED = MaskedMatrix(values=np.arange(12.0).reshape(6, 2), observed=np.ones((6, 2), dtype=bool))


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

    @pytest.fixture()
    def pools(self, monkeypatch):
        """The max_workers of every process pool the runner builds. A stand-in
        pool maps in this process, so no process is started."""
        import concurrent.futures
        built = []

        class Pool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        return built

    def test_the_pool_is_no_larger_than_the_grid(self, pools):
        two_cells = tiny_grid(trials=2)
        rows = run_benchmark(two_cells, workers=5, measure_time=False)
        assert pools == [2]
        assert rows == run_benchmark(two_cells, workers=1, measure_time=False)
        run_benchmark(tiny_grid(trials=1), workers=3, measure_time=False)
        assert pools == [2]  # one cell runs in this process

    @pytest.mark.parametrize("workers", [0, -2, True, 2.5], ids=repr)
    def test_workers_must_be_a_count(self, pools, workers):
        with pytest.raises(ValueError, match="^workers must be an integer >= 1$"):
            run_benchmark(tiny_grid(trials=1), workers=workers)
        assert pools == []

    def test_overflowing_perturbation_gives_error_rows(self):
        # Noise of sd 1e308 times a column mean near 1 overflows in some cell of each trial.
        grid = tiny_grid(dataset=MixtureSpec(n=40, p=6, k=3, center_sd=1.0), perturb_rel_sd=1e308,
                         trials=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleError, match="rel_sd"):
                dataset_for_trial(grid, 0, 0, 0)
            rows = run_benchmark(grid, workers=1)
        assert len(rows) == 6 and all(
            r.status == "error:InfeasibleError" and r.achieved_rate is None for r in rows)

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

    @staticmethod
    def write_population(path, classes=("1", "2")):
        rng = np.random.default_rng(5)
        centers = np.array([[0.0] * 4, [25.0] * 4])
        labels = np.repeat([0, 1], 15)
        values = centers[labels] + rng.normal(0, 1, (30, 4))
        with path.open("w") as handle:
            handle.write("class,a,b,c,d\n")
            for label, row in zip(labels, values):
                handle.write(",".join([classes[label]] + [repr(float(v)) for v in row]) + "\n")

    def test_file_dataset_grid(self, tmp_path):
        data_path = tmp_path / "pop.csv"
        grid = tiny_grid(
            dataset=FileDataset(path=str(data_path), label_column="class"),
            k=2,
            trials=2,
            methods=("kpod", "mean_impute"),
        )
        # A class named NA is a class: only an empty cell is missing.
        for classes in (("1", "2"), ("EU", "NA")):
            self.write_population(data_path, classes)
            rows = run_benchmark(grid, workers=1, measure_time=False)
            assert all(r.status == "ok" for r in rows)
            assert all(r.rand == 1.0 for r in rows)  # trivially separable pair

    @pytest.mark.parametrize("cell, error, message", [
        ("NA", CsvParseError, r"non-numeric cell 'NA' \(line 4, column 3\)"),
        ("", KPodError, "benchmark source data must be complete"),
        (None, OSError, "pop.csv"),
    ], ids=["NA-cell", "empty-cell", "no-file"])
    def test_a_population_that_cannot_be_read_ends_the_run(self, tmp_path, cell, error, message):
        # Every trial would fail alike, so the campaign stops with one error.
        data_path = tmp_path / "pop.csv"
        if cell is not None:
            self.write_population(data_path)
            lines = data_path.read_text().splitlines(keepends=True)
            fields = lines[3].split(",")
            lines[3] = ",".join(fields[:2] + [cell] + fields[3:])
            data_path.write_text("".join(lines))
        grid = tiny_grid(dataset=FileDataset(path=str(data_path), label_column="class"), k=2)
        with pytest.raises(error, match=message):
            run_benchmark(grid, workers=1, measure_time=False)

    def test_file_dataset_requires_labels(self):
        # Runs are scored against the true classes, so a population without
        # them is rejected when it is built, before any run.
        with pytest.raises(TypeError):
            FileDataset(path="pop.csv")
        with pytest.raises(ValueError, match="label_column"):
            FileDataset(path="pop.csv", label_column=None)

    @pytest.mark.parametrize("path", [None, 5, ""], ids=repr)
    def test_a_dataset_path_must_be_a_nonempty_string(self, path):
        # Not str() of it: null would open a file named None, and "" the
        # working directory.
        with pytest.raises(ValueError, match=r"\bpath\b"):
            FileDataset(path=path, label_column="class")
        raw = {"dataset": {"path": path, "label_column": "class"}, "k": 2,
               "mechanisms": ["mcar"], "rates": [0.25], "trials": 1, "base_seed": 9}
        with pytest.raises(ValueError, match=r"\bpath\b"):
            ScenarioGrid.from_dict(raw)

    def test_unstandardizable_trial_gives_error_rows(self):
        # Squared deviations near 1e200 overflow, so standardize raises for
        # every trial; a MAR rate of 0.4 needs 96 cells of a 40x6 matrix, more
        # than column 0 holds, so amputation raises. The campaign reports
        # either per method and goes on.
        unamputable = MechanismSpec(kind=Mechanism.MAR, target_rate=0.5, mar_columns=(0,))
        for overrides, amputed in (
                (dict(dataset=MixtureSpec(n=40, p=6, k=3, center_sd=1e200)), True),
                (dict(mechanisms=(unamputable,), rates=(0.4,)), False)):
            grid = tiny_grid(**overrides, trials=2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = run_benchmark(grid, workers=1)
            assert [(r.trial, r.method) for r in rows] == [
                (t, m) for t in range(2) for m in ("kpod", "mean_impute", "delete")]
            assert all(r.status == "error:InfeasibleError" and r.rand is None
                       and r.seconds is None for r in rows)
            # An amputed trial reports its rate; one that could not be amputed, none.
            assert all((r.achieved_rate is not None) == amputed for r in rows)
            assert run_benchmark(grid, workers=2) == rows

    def test_a_trial_whose_sums_overflow_gives_error_rows_at_k_one(self):
        # Rows all near one center of sd 1e306: the column sums of the fill
        # overflow, and deletion has no complete column left under MCAR.
        grid = tiny_grid(dataset=MixtureSpec(n=300, p=3, k=1, center_sd=1e306, noise_variance=0.0),
                         k=1, trials=1, base_seed=1, standardize=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_benchmark(grid, workers=1)
        assert [(r.method, r.status) for r in rows] == [
            ("kpod", "error:InfeasibleError"), ("mean_impute", "error:InfeasibleError"),
            ("delete", "infeasible")]

    def test_a_cell_that_cannot_be_amputed_is_a_row(self, tmp_path, capsys):
        grid = ScenarioGrid.from_dict(UNAMPUTABLE_CELL)
        rows = run_benchmark(grid, workers=1, measure_time=False)
        assert run_benchmark(grid, workers=2, measure_time=False) == rows
        assert len(rows) == 24 and sum(r.status == "ok" for r in rows) == 14
        failed = [r for r in rows if r.mechanism == "mar" and r.target_rate == 0.4]
        assert len(failed) == 6 and all(
            r.status == "error:InfeasibleError" and r.achieved_rate is None for r in failed)
        # MCAR's seeds do not depend on the MAR columns.
        wide = ScenarioGrid.from_dict({**UNAMPUTABLE_CELL, "mar_columns": list(range(8))})
        mcar = [r for r in rows if r.mechanism == "mcar"]
        assert mcar == [r for r in run_benchmark(wide, workers=1, measure_time=False)
                        if r.mechanism == "mcar"]

        config, report = tmp_path / "grid.json", tmp_path / "report.csv"
        config.write_text(json.dumps(UNAMPUTABLE_CELL))
        assert cli(["benchmark", "--config", str(config), "--output", str(report),
                    "--no-timing"]) == 0
        assert "24 runs (14 ok)" in capsys.readouterr().out
        assert len(report.read_text().splitlines()) == 25
        assert len(summary_path_for(report).read_text().splitlines()) == 13

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
        # JSON may write column 3 as 3.0, as it may any count.
        for columns in ([0, 3], [0.0, 3.0]):
            grid = ScenarioGrid.from_dict({
                "mixture": {"n": 20, "p": 6, "k": 2},
                "k": 2,
                "mechanisms": ["mar"],
                "mar_columns": columns,
                "rates": [0.1],
                "methods": ["kpod"],
                "trials": 1,
                "base_seed": 1,
            })
            assert grid.mechanisms[0].mar_columns == (0, 3)
            assert all(type(c) is int for c in grid.mechanisms[0].mar_columns)

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
        (lambda: EngineSettings(tol=True), ValueError, "tol"),
        (lambda: KPodConfig(k=2, mm_tol=True), ValueError, "mm_tol"),
        (lambda: lloyd(np.zeros((4, 2)), 2, tol=True), ValueError, "tol"),
        (lambda: MixtureSpec(n=10, p=2, k=2, center_sd=10**400), ValueError, "center_sd"),
        (lambda: MixtureSpec(n=10, p=2, k=2, noise_variance=10**400), ValueError,
         "noise_variance"),
        (lambda: perturb_dataset(np.ones((3, 2)), 10**400), ValueError, "rel_sd"),
        (lambda: tiny_grid(perturb_rel_sd=10**400), ValueError, "perturb_rel_sd"),
        (lambda: tiny_grid(dataset={"n": 40, "p": 6, "k": 3}), ValueError, "dataset"),
        (lambda: tiny_grid(mechanisms=("mcar",)), ValueError, "mechanisms"),
        (lambda: tiny_grid(engine={"max_iter": 5}), ValueError, "inner"),
        (lambda: KPodConfig(k=2, inner={"max_iter": 5}), ValueError, "inner"),
        *[(lambda engine=engine, fit=fit: fit(MASKED, 2, engine=engine), ValueError, "engine")
          for fit in (mean_impute_cluster, delete_cluster) for engine in ({"max_iter": 5}, None, 5)],
        (lambda: MechanismSpec(kind="mcar", target_rate=0.3), ValueError, "kind"),
        (lambda: MechanismSpec(kind=None, target_rate=0.3), ValueError, "kind"),
    ], ids=["mm_tol-str", "mm_tol-none", "tol-str", "lloyd-tol-none", "center_sd-str",
            "noise_variance-none", "target_rate-str", "target_rate-none", "rel_sd-str",
            "rates-str", "grid-mm_tol-str", "mechanism-int", "tol-bool", "mm_tol-bool",
            "lloyd-tol-bool", "center_sd-past-max", "noise_variance-past-max",
            "rel_sd-past-max", "grid-perturb_rel_sd-past-max", "grid-dataset-dict",
            "grid-mechanism-str", "grid-engine-dict", "inner-dict",
            *[f"{fit}-engine-{kind}" for fit in ("mean_impute_cluster", "delete_cluster")
              for kind in ("dict", "none", "int")],
            "kind-str", "kind-none"])
    def test_a_setting_of_the_wrong_type_raises_the_settings_error(self, build, error, name):
        # The error a value out of range raises, naming the setting, not a
        # TypeError, OverflowError or AttributeError. A bool is not a number,
        # and an int past the largest float is out of range. A grid's engine
        # is judged as the KPodConfig field it fills.
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
        ("rates", 0.25), ("mechanisms", "mcar"), ("methods", "kpod"), ("mar_columns", 0),
        ("mar_columns", ["a", -3]), ("mar_columns", [-3]),
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
        # An inner_ key is named by its EngineSettings field.
        assert err.startswith("error:") and field.removeprefix("inner_") in err

    @pytest.mark.parametrize("text", [
        "null", "true", '"0.2"', "[0.2]", "1e400", "Infinity", "1" + "0" * 399,
    ], ids=["null", "true", "str", "array", "1e400", "Infinity", "400-digit-int"])
    @pytest.mark.parametrize("key, build", [
        ("rates", lambda v: tiny_grid(rates=(v,))),
        ("mm_tol", lambda v: KPodConfig(k=2, mm_tol=v)),
        ("mm_tol", lambda v: tiny_grid(mm_tol=v)),
        ("inner_tol", lambda v: EngineSettings(tol=v)),
        ("perturb_rel_sd", lambda v: tiny_grid(perturb_rel_sd=v)),
        ("mixture.center_sd", lambda v: MixtureSpec(n=20, p=4, k=2, center_sd=v)),
        ("mixture.noise_variance", lambda v: MixtureSpec(n=20, p=4, k=2, noise_variance=v)),
    ], ids=["rates", "mm_tol-KPodConfig", "mm_tol-grid", "inner_tol", "perturb_rel_sd",
            "center_sd", "noise_variance"])
    def test_a_config_number_is_judged_as_in_code(self, key, build, text, tmp_path, capsys):
        # The reader only shapes JSON: the dataclass that holds a number judges
        # it, so a config and a library caller see the same ValueError. 1e400
        # and Infinity read as inf, and no integer past the largest float is
        # finite.
        section, _, field = key.rpartition(".")
        with pytest.raises(ValueError, match=rf"\b{field.removeprefix('inner_')}\b") as built:
            build(json.loads(text))
        raw = {"mixture": {"n": 20, "p": 4, "k": 2}, "k": 2, "mechanisms": ["mcar"],
               "rates": [0.25], "trials": 1, "base_seed": 9}
        (raw[section] if section else raw)[field] = ["BAD"] if key == "rates" else "BAD"
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(raw).replace('"BAD"', text))
        code = cli(["benchmark", "--config", str(config), "--output", str(tmp_path / "r.csv")])
        assert (code, capsys.readouterr().err) == (1, f"error: {built.value}\n")

    @pytest.mark.parametrize("section, body", [
        ("mixture", {"n": 20, "p": 4, "k": 2, "centre_sd": 1e9}),
        ("dataset", {"path": "pop.csv", "label_column": "class", "missing-token": "?"}),
        ("dataset", {"path": "pop.csv", "label_column": "class", "missing_token": "NA"}),
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

    @pytest.mark.parametrize("key, config, built", [
        ("mechanisms", ["mcar", "MCAR"],
         tuple(MechanismSpec(kind=Mechanism.MAR, target_rate=0.5, mar_columns=(c,)) for c in (0, 1))),
        ("rates", [0.2, 0.2], (0.2, np.float64(0.2))),
        ("methods", ["kpod", "kpod"], ("kpod", "kpod")),
    ], ids=["mechanisms", "rates", "methods"])
    def test_repeats_rejected(self, key, config, built):
        # A repeat gives two rows one (mechanism, rate, method, trial) key,
        # which the summary would merge into one group of twice the count.
        # Mechanisms repeat by their kind.
        with pytest.raises(ValueError, match=f"^{key} must not repeat$"):
            tiny_grid(**{key: built})
        raw = {"mixture": {"n": 20, "p": 4, "k": 2}, "k": 2, "mechanisms": ["mcar"],
               "rates": [0.25], "trials": 1, "base_seed": 9, key: config}
        with pytest.raises(ValueError, match=f"^{key} must not repeat$"):
            ScenarioGrid.from_dict(raw)

    def test_the_readme_schema_parses(self):
        section = README.read_text(encoding="utf-8").split("## Benchmark config schema")[1]
        example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        dataset = json.loads("{%s}" % re.search(r'`("dataset": \{.*?\})`', section).group(1))
        assert isinstance(ScenarioGrid.from_dict(example).dataset, MixtureSpec)
        example.pop("mixture")
        grid = ScenarioGrid.from_dict({**example, **dataset})
        assert grid.dataset == FileDataset(**dataset["dataset"])

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

    # Rows cross to pool workers by pickle, and dataclasses.replace copies them.
    @pytest.mark.parametrize("rebuild", [
        lambda row: row,
        lambda row: pickle.loads(pickle.dumps(row)),
        lambda row: replace(row, trial=3),
    ], ids=["built", "pickled", "replaced"])
    def test_headers_are_the_row_fields_in_order(self, tmp_path, rebuild):
        row = rebuild(self.make_row())
        assert row == self.make_row(trial=row.trial)
        path = tmp_path / "report.csv"
        write_report([row], path)
        assert path.read_text().splitlines()[0].split(",") == [
            "mechanism", "target_rate", "achieved_rate", "method", "trial",
            "rand", "adjusted_rand", "seconds", "mm_iterations", "status",
        ]
        assert summary_path_for(path).read_text().splitlines()[0].split(",") == [
            "mechanism", "target_rate", "method", "count",
            "rand_mean", "rand_se", "adjusted_rand_mean", "adjusted_rand_se",
            "seconds_mean", "seconds_se",
        ]
        direct = tmp_path / "direct.csv"
        write_report([self.make_row(trial=row.trial)], direct)
        assert path.read_bytes() == direct.read_bytes()

    def test_none_cells_written_empty(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([self.make_row(rand=None, status="infeasible")], path)
        line = path.read_text().splitlines()[1]
        assert ",,"  in line or line.endswith(",")
        assert "infeasible" in line
