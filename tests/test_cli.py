import json

import numpy as np
import pytest

from kpod import (EngineSettings, KPodConfig, delete_cluster, kpod_fit, mean_impute_cluster,
                  read_masked_csv, standardize)
from kpod.cli import cli


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

    def test_missing_input_is_exit_1(self, tmp_path):
        assert run(["cluster", "--input", tmp_path / "nope.csv", "--output",
                    tmp_path / "o", "--method", "kpod", "--k", 2]) == 1


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

    def test_trials_override_and_no_timing_reproducible(self, tmp_path):
        config = {
            "mixture": {"n": 30, "p": 5, "k": 2},
            "k": 2,
            "mechanisms": ["mcar"],
            "rates": [0.3],
            "methods": ["kpod"],
            "trials": 5,
            "base_seed": 4,
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["benchmark", "--config", cfg_path, "--output", a, "--trials", 2, "--no-timing"])
        run(["benchmark", "--config", cfg_path, "--output", b, "--trials", 2, "--no-timing"])
        assert len(a.read_text().splitlines()) == 3
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run(["cluster"]) == 2
        assert run(["frobnicate"]) == 2

    def test_help_is_0(self):
        assert run(["--help"]) == 0

    def test_version_is_0(self):
        assert run(["--version"]) == 0
