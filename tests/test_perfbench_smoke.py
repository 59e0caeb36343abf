"""Smallest-rung smoke test of the benchmark in ``perfbench/``.

The benchmark checks every result, and its tracer wraps kpod's public
functions by name and reads their arguments: it counts assign flops from the
``Centroids`` handed to ``assign_step``, for one. A refactor that renames such
a function or hands it a bare array breaks the benchmark without breaking any
other test; one traced run of a few seconds per workload catches that. So
does a private loop that bypasses a traced name: its layer then reads zero.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# fit_mcar_wide is the one workload past 1024 rows, so the one whose fits
# run the RowBounds warm sweeps.
@pytest.mark.parametrize("workload", ["cli_csv", "campaign_small", "fit_mcar_wide"])
def test_traced_run_passes_its_checks(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    for name in ("kmeans.sweeps", "mm.rounds", "kmeans.update_s", "kmeans.objective_s"):
        assert result["metrics"][name]["value"] > 0, name
