import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kpod import (EngineSettings, KPodConfig, ScenarioGrid, dataset_for_trial, delete_cluster,
                  derive_seed, kpod_fit, mean_impute_cluster, rand_index, read_labels_csv,
                  read_masked_csv, run_benchmark, standardize, write_masked_csv)
from kpod.benchmark import METHODS
from kpod.cli import build_parser, cli


def run(args):
    return cli([str(a) for a in args])


@pytest.fixture()
def mixture_csv(tmp_path):
    data = tmp_path / "data.csv"
    labels = tmp_path / "labels.csv"
    code = run(["simulate", "--n", 60, "--p", 8, "--k", 3, "--seed", 5,
                "--output", data, "--labels", labels])
    assert code == 0
    return data, labels


class TestSimulate:
    def test_writes_data_and_labels(self, mixture_csv):
        data, labels = mixture_csv
        assert data.exists() and labels.exists()
        assert len(data.read_text().splitlines()) == 61
        assert len(labels.read_text().splitlines()) == 61

    def test_byte_identical_given_seed(self, tmp_path, mixture_csv):
        data, _ = mixture_csv
        again = tmp_path / "again.csv"
        run(["simulate", "--n", 60, "--p", 8, "--k", 3, "--seed", 5, "--output", again])
        assert again.read_bytes() == data.read_bytes()

    def test_spreads_that_overflow_are_named(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert run(["simulate", "--n", 5, "--p", 20, "--k", 20, "--center-sd", 1e308,
                    "--output", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "center_sd" in err and "noise_variance" in err, err
        assert not out.exists()


class TestAmpute:
    def test_mcar_rate(self, tmp_path, mixture_csv):
        data, _ = mixture_csv
        out = tmp_path / "masked.csv"
        assert run(["ampute", "--input", data, "--output", out,
                    "--mechanism", "mcar", "--rate", 0.25, "--seed", 3]) == 0
        body = out.read_text().splitlines()[1:]
        cells = [c for line in body for c in line.split(",")]
        assert abs(sum(c == "NA" for c in cells) / len(cells) - 0.25) <= 0.01

    def test_already_masked_input_is_runtime_error(self, tmp_path, mixture_csv):
        data, _ = mixture_csv
        masked = tmp_path / "masked.csv"
        run(["ampute", "--input", data, "--output", masked, "--mechanism", "mcar",
             "--rate", 0.2, "--seed", 1])
        assert run(["ampute", "--input", masked, "--output", tmp_path / "x.csv",
                    "--mechanism", "mcar", "--rate", 0.2, "--seed", 1]) == 1

    def test_mar_columns_flag(self, tmp_path, mixture_csv):
        data, _ = mixture_csv
        out = tmp_path / "masked.csv"
        assert run(["ampute", "--input", data, "--output", out, "--mechanism", "mar",
                    "--mar-columns", "0,3", "--rate", 0.1, "--seed", 2]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        masked_cols = {j for row in rows for j, c in enumerate(row) if c == "NA"}
        assert masked_cols <= {0, 3}

    @pytest.mark.parametrize("columns", ["a", "0,1.5"])
    @pytest.mark.parametrize("exists", [True, False], ids=["input", "no-input"])
    def test_a_mar_column_that_is_no_index_is_named(self, tmp_path, mixture_csv, capsys,
                                                    columns, exists):
        # The error a config's mar_columns gives, before the input is read,
        # for every mechanism: a list that is given is judged.
        data = mixture_csv[0] if exists else tmp_path / "nope.csv"
        out = tmp_path / "masked.csv"
        for mechanism in ("mar", "mcar"):
            assert run(["ampute", "--input", data, "--output", out, "--mechanism", mechanism,
                        "--mar-columns", columns, "--rate", 0.1]) == 1
            assert capsys.readouterr().err == "error: mar_columns must be an integer >= 0\n"
            assert not out.exists()


class TestCluster:
    def test_kpod_outputs(self, tmp_path, mixture_csv):
        data, labels = mixture_csv
        prefix = tmp_path / "fit"
        assert run(["cluster", "--input", data, "--output", prefix, "--method", "kpod",
                    "--k", 3, "--seed", 1]) == 0
        assert (tmp_path / "fit_assignment.csv").exists()
        assert (tmp_path / "fit_centroids.csv").exists()
        trace = (tmp_path / "fit_trace.csv").read_text().splitlines()
        assert trace[0] == "objective"
        assert len(trace) >= 2

    def test_complete_data_kpod_equals_mean_impute(self, tmp_path, mixture_csv):
        data, _ = mixture_csv
        a, b = tmp_path / "a", tmp_path / "b"
        run(["cluster", "--input", data, "--output", a, "--method", "kpod", "--k", 3, "--seed", 9])
        run(["cluster", "--input", data, "--output", b, "--method", "mean_impute", "--k", 3, "--seed", 9])
        assert (tmp_path / "a_assignment.csv").read_bytes() == (tmp_path / "b_assignment.csv").read_bytes()

    def test_delete_on_masked_input(self, tmp_path, mixture_csv):
        data, _ = mixture_csv
        masked = tmp_path / "masked.csv"
        run(["ampute", "--input", data, "--output", masked, "--mechanism", "mar",
             "--mar-columns", "0,1", "--rate", 0.1, "--seed", 4])
        prefix = tmp_path / "del"
        assert run(["cluster", "--input", masked, "--output", prefix, "--method", "delete",
                    "--k", 3, "--seed", 1]) == 0
        header = (tmp_path / "del_centroids.csv").read_text().splitlines()[0]
        assert header == "x2,x3,x4,x5,x6,x7"

    @pytest.mark.parametrize("method", ["kpod", "mean_impute", "delete"])
    def test_centroids_and_trace_match_library_fit(self, tmp_path, mixture_csv, method):
        data, _ = mixture_csv
        masked = tmp_path / "masked.csv"
        run(["ampute", "--input", data, "--output", masked, "--mechanism", "mar",
             "--mar-columns", "0,1", "--rate", 0.1, "--seed", 4])
        prefix = tmp_path / "fit"
        assert run(["cluster", "--input", masked, "--output", prefix, "--method", method,
                    "--k", 3, "--seed", 6]) == 0

        x, _ = standardize(read_masked_csv(masked)[0])
        kept = list(range(x.n_cols))
        if method == "kpod":
            fit = kpod_fit(x, KPodConfig(k=3, seed=6))
            trace = fit.observed_objective_trace
        elif method == "mean_impute":
            fit = mean_impute_cluster(x, 3, seed=6, engine=EngineSettings())
            trace = [fit.objective]
        else:
            fit, kept = delete_cluster(x, 3, seed=6, engine=EngineSettings())
            trace = [fit.objective]
        centers = tmp_path / "fit_centroids.csv"
        assert centers.read_text().splitlines()[0] == ",".join(f"x{j}" for j in kept)
        assert np.array_equal(read_masked_csv(centers)[0].values, fit.centroids.centers)
        assert read_masked_csv(tmp_path / "fit_trace.csv")[0].values[:, 0].tolist() == trace

    def test_label_column_prints_the_agreement(self, tmp_path, mixture_csv, capsys):
        data, labels = mixture_csv
        rows = zip(labels.read_text().splitlines(), data.read_text().splitlines())
        labelled = tmp_path / "labelled.csv"
        labelled.write_text("".join(f"{label},{row}\n" for label, row in rows))
        assert run(["cluster", "--input", labelled, "--output", tmp_path / "fit", "--k", 3,
                    "--seed", 1, "--label-column", "label"]) == 0
        printed = capsys.readouterr().out.splitlines()[-1]
        assert run(["evaluate", labels, tmp_path / "fit_assignment.csv"]) == 0
        assert printed == " ".join(capsys.readouterr().out.split())
        assert printed.startswith("rand=") and " adjusted_rand=" in printed

    def test_missing_input_is_exit_1(self, tmp_path):
        assert run(["cluster", "--input", tmp_path / "nope.csv", "--output",
                    tmp_path / "o", "--method", "kpod", "--k", 2]) == 1

    @pytest.mark.parametrize("method, flag, name", [
        ("delete", "--mm-tol", "mm_tol"), ("mean_impute", "--max-mm-iter", "max_mm_iter"),
        ("kpod", "--tol", "tol"), ("delete", "--n-init", "n_init"),
    ])
    @pytest.mark.parametrize("exists", [True, False], ids=["input", "no-input"])
    def test_every_setting_is_checked_before_the_input(self, tmp_path, mixture_csv, capsys,
                                                       method, flag, name, exists):
        # As in a campaign, a setting is checked whether or not the method
        # uses it, and before the input is read.
        data = mixture_csv[0] if exists else tmp_path / "nope.csv"
        assert run(["cluster", "--input", data, "--output", tmp_path / "fit", "--method", method,
                    "--k", 3, flag, 0]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(rf"\b{name}\b", err), err
        assert not (tmp_path / "fit_assignment.csv").exists()

    @pytest.mark.parametrize("method", METHODS)
    def test_rand_equals_the_campaign_row(self, tmp_path, method):
        # The CLI and a campaign trial call each method alike: on a trial's
        # amputed matrix, with its seed and the grid's settings, the CLI's
        # labels score the rand of that trial's report row exactly. The
        # clusters overlap, so a setting dropped on either side moves the rand.
        grid = ScenarioGrid.from_dict({
            "mixture": {"n": 80, "p": 6, "k": 3, "center_sd": 1.0, "noise_variance": 1.0},
            "k": 3, "mechanisms": ["mar"], "mar_columns": [0, 1], "rates": [0.1, 0.2],
            "methods": [method], "trials": 2, "base_seed": 31, "n_init": 2,
            "inner_max_iter": 7, "inner_tol": 1e-4, "max_mm_iter": 5, "mm_tol": 1e-3})
        rows = run_benchmark(grid, measure_time=False)
        assert [row.status for row in rows] == ["ok"] * 4
        for row, (r, t) in zip(rows, [(r, t) for r in range(2) for t in range(2)]):
            _, labels, masked = dataset_for_trial(grid, 0, r, t)
            write_masked_csv(masked, tmp_path / "trial.csv")
            assert run(["cluster", "--input", tmp_path / "trial.csv", "--output", tmp_path / "fit",
                        "--method", method, "--k", grid.k,
                        "--seed", derive_seed(grid.base_seed, "run", 0, r, t),
                        "--max-iter", grid.engine.max_iter, "--tol", grid.engine.tol,
                        "--n-init", grid.engine.n_init, "--max-mm-iter", grid.max_mm_iter,
                        "--mm-tol", grid.mm_tol]) == 0
            assert rand_index(labels, read_labels_csv(tmp_path / "fit_assignment.csv")) == row.rand


class TestEvaluate:
    def test_perfect_agreement(self, tmp_path, mixture_csv, capsys):
        _, labels = mixture_csv
        assert run(["evaluate", labels, labels]) == 0
        out = capsys.readouterr().out
        assert "rand=1.0" in out
        assert "adjusted_rand=1.0" in out

    def test_cluster_then_evaluate(self, tmp_path, mixture_csv, capsys):
        data, labels = mixture_csv
        prefix = tmp_path / "fit"
        run(["cluster", "--input", data, "--output", prefix, "--method", "kpod",
             "--k", 3, "--seed", 1])
        assert run(["evaluate", labels, tmp_path / "fit_assignment.csv"]) == 0
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("rand=")][0]
        assert 0.0 <= float(line.split("=")[1]) <= 1.0


class TestBenchmark:
    def test_single_trial_grid(self, tmp_path, capsys):
        config = {
            "mixture": {"n": 30, "p": 5, "k": 2},
            "k": 2,
            "mechanisms": ["mcar"],
            "rates": [0.2],
            "methods": ["kpod", "mean_impute"],
            "trials": 1,
            "base_seed": 4,
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        report = tmp_path / "report.csv"
        assert run(["benchmark", "--config", cfg_path, "--output", report]) == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 3  # header + 2 methods x 1 trial
        assert all(line.endswith("ok") for line in lines[1:])
        assert (tmp_path / "report_summary.csv").exists()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_is_exit_1(self, tmp_path, capsys, workers):
        config = {"mixture": {"n": 30, "p": 5, "k": 2}, "k": 2, "mechanisms": ["mcar"],
                  "rates": [0.2], "trials": 1, "base_seed": 4}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        report = tmp_path / "report.csv"
        assert run(["benchmark", "--config", cfg_path, "--output", report,
                    "--workers", workers]) == 1
        assert capsys.readouterr().err == "error: workers must be an integer >= 1\n"
        assert not report.exists()

    def test_trials_come_from_the_config_and_no_timing_reproducible(self, tmp_path):
        config = {
            "mixture": {"n": 30, "p": 5, "k": 2},
            "k": 2,
            "mechanisms": ["mcar"],
            "rates": [0.3],
            "methods": ["kpod"],
            "trials": 2,
            "base_seed": 4,
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["benchmark", "--config", cfg_path, "--output", a, "--no-timing"])
        run(["benchmark", "--config", cfg_path, "--output", b, "--no-timing"])
        assert len(a.read_text().splitlines()) == 3
        assert a.read_bytes() == b.read_bytes()
        # The config is the one source of trials: there is no flag for them.
        assert run(["benchmark", "--config", cfg_path, "--output", a, "--trials", 1]) == 2


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run(["cluster"]) == 2
        assert run(["frobnicate"]) == 2

    def test_help_is_0(self):
        assert run(["--help"]) == 0

    def test_version_is_0(self):
        assert run(["--version"]) == 0


class TestMalformedCsv:
    @pytest.mark.parametrize("command, files", [
        (["cluster", "--k", 2, "--label-column", "c"], {"in.csv": "a,b,c\n1,2\n3,4\n"}),
        (["cluster", "--k", 2], {"in.csv": "a,b\n1,2\n3," + "0" * 131073 + "\n"}),
        (["evaluate"], {"truth.csv": "label\na\nb\n", "pred.csv": "label\na\n" + "b" * 131073}),
    ], ids=["narrow-row", "data-over-field-limit", "label-over-field-limit"])
    def test_is_an_error_line_not_a_traceback(self, tmp_path, capsys, command, files):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        paths = [tmp_path / name for name in files]
        if command[0] == "cluster":
            argv = command + ["--input", paths[0], "--output", tmp_path / "fit"]
        else:
            argv = command + paths
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(line " in err


@pytest.mark.parametrize("command, flag, value, name", [
    ("cluster", "--seed", -1, "seed"), ("simulate", "--seed", -1, "seed"),
    ("ampute", "--seed", -1, "seed"), ("ampute", "--rate", 2, "target_rate"),
    ("ampute", "--mechanism", "foo", "mechanism"),
])
@pytest.mark.parametrize("exists", [True, False], ids=["input", "no-input"])
def test_a_bad_setting_is_named_before_any_file_is_touched(tmp_path, mixture_csv, capsys, command,
                                                           flag, value, name, exists):
    # A seed is an integer >= 0. simulate reads no input, so its "no-input"
    # case writes into a missing directory instead.
    data = mixture_csv[0] if exists else tmp_path / "nope.csv"
    out = tmp_path / ("out.csv" if exists else "nope/out.csv")
    args = {
        "cluster": ["--input", data, "--output", out, "--k", 3],
        "simulate": ["--n", 20, "--p", 2, "--k", 2, "--output", out],
        "ampute": ["--input", data, "--output", out, "--mechanism", "mcar", "--rate", 0.2],
    }[command]
    files = sorted(tmp_path.rglob("*"))
    assert run([command, *args, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(rf"\b{name}\b", err), err
    assert "nope" not in err and sorted(tmp_path.rglob("*")) == files


def test_runs_as_a_module_from_a_checkout():
    # An uninstalled checkout has no `kpod` script; `python -m kpod.cli` is its entry.
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "kpod.cli", "--version"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "kpod 0.1.0\n"


def test_the_readme_command_lines_parse():
    # Parsed only, not run: each example must name a subcommand and options that exist.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line")[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("kpod ")]
    assert [line[1] for line in lines] == ["simulate", "ampute", "cluster", "evaluate", "benchmark"]
    for line in lines:
        assert build_parser().parse_args(line[1:]).command == line[1]
