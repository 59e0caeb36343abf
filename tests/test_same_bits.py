"""A same-bits gate: digests of end-to-end outputs, pinned.

Each case hashes what public calls return: arrays by dtype, shape, strides
and bytes, floats by ``.hex()``, files by their bytes. The pins hold for the
numpy and BLAS recorded in ``perfbench/environment.json`` (numpy 2.4.6,
scipy-openblas 0.3.31); another numpy or BLAS may round differently and miss
them with no fault in the package. A change that alters these bits on
purpose, such as a fit that ends its rounds differently, updates the pins in
the same diff and records old -> new in CHANGES.md.

Results are set by the values and the seed, not by the caller's memory
layout: every in-process case runs on its inputs as built (C order), on
Fortran-ordered copies and on strided views, and all three must hit the one
pin, C strides included.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kpod import (KPodConfig, MaskedMatrix, Mechanism, MechanismSpec, MixtureSpec, ampute,
                  delete_cluster, fill_unobserved, init_fill, kpod_fit, lloyd,
                  mean_impute_cluster, perturb_dataset, simulate_mixture, standardize)
from kpod.cli import cli

ROOT = Path(__file__).resolve().parents[1]

LAYOUTS = {
    "C": np.ascontiguousarray,
    "Fortran": np.asfortranarray,
    "strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
}


def digest(*parts) -> str:
    """The first 16 hex digits of the SHA-256 of ``parts``: bytes as they
    are, floats by ``.hex()``, lists of floats item by item, and arrays by
    dtype, shape, strides and bytes."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, float):
            h.update(part.hex().encode())
        elif isinstance(part, list):
            h.update(" ".join(v.hex() for v in part).encode())
        else:
            a = np.asarray(part)
            h.update(f"{a.dtype.str}{a.shape}{a.strides}".encode())
            h.update(a.tobytes())
    return h.hexdigest()[:16]


def fit_parts(fit):
    return (fit.assignment.labels, fit.centroids.centers, fit.observed_objective_trace,
            str(fit.converged).encode(), fit.fitted_fill)


def kmeans_parts(result):
    return (result.assignment.labels, result.centroids.centers, result.objective,
            f"{result.iterations} {result.converged}".encode())


# name: (n, p, k, mechanism, rate). "two blocks" is past kmeans._BLOCK_ROWS,
# so its seeding is bounded and its warm sweeps run RowBounds.
DATASETS = {
    "small mcar": (60, 5, 3, Mechanism.MCAR, 0.3),
    "campaign mar": (200, 40, 5, Mechanism.MAR, 0.4),
    "nmar": (300, 10, 4, Mechanism.NMAR, 0.5),
    "two blocks": (2100, 20, 8, Mechanism.MCAR, 0.3),
}


@functools.cache
def dataset(name):
    """A mixture's values, with the mask its amputation drew, both C-ordered
    and read-only, since every case shares them. Its clusters overlap, so
    fits run several MM rounds."""
    n, p, k, kind, rate = DATASETS[name]
    values, _ = simulate_mixture(MixtureSpec(n=n, p=p, k=k, center_sd=3.0, seed=n + p))
    spec = MechanismSpec(kind=kind, target_rate=rate, seed=k,
                         mar_columns=tuple(range(p // 2)) if kind is Mechanism.MAR else None)
    observed = ampute(values, spec).observed
    values.flags.writeable = False
    return values, observed


def masked(name, layout):
    values, observed = dataset(name)
    return MaskedMatrix(values=layout(values), observed=layout(observed))


def fit(name, layout):
    """standardize, then kpod_fit: the benchmark's path."""
    z, stats = standardize(masked(name, layout))
    return (stats.means, stats.std_devs, z.values, z.observed,
            *fit_parts(kpod_fit(z, KPodConfig(k=DATASETS[name][2], seed=11))))


def ampute_all(name, layout):
    values, _ = dataset(name)
    mar_columns = tuple(range(0, values.shape[1], 2))
    parts = []
    for kind in Mechanism:
        x = ampute(layout(values), MechanismSpec(kind=kind, target_rate=0.35, seed=3,
                                                 mar_columns=mar_columns))
        parts += [x.values, x.observed]
    return parts


def fills(name, layout):
    values, _ = dataset(name)
    x = masked(name, layout)
    source = layout(np.ascontiguousarray(values[::-1] * -0.5))
    return init_fill(x), fill_unobserved(x, source)


def delete(layout):
    result, kept = delete_cluster(masked("campaign mar", layout), 5, seed=4)
    return (*kmeans_parts(result), str(kept).encode())


CASES = {
    **{f"kpod_fit {name}": functools.partial(fit, name) for name in DATASETS},
    **{f"ampute {name}": functools.partial(ampute_all, name) for name in ("small mcar", "nmar")},
    "mean_impute_cluster": lambda layout: kmeans_parts(
        mean_impute_cluster(masked("campaign mar", layout), 5, seed=4)),
    "delete_cluster": delete,
    "lloyd two blocks": lambda layout: kmeans_parts(
        lloyd(layout(dataset("two blocks")[0]), 8, seed=5, n_init=2)),
    "perturb_dataset": lambda layout: (perturb_dataset(layout(dataset("nmar")[0]), 0.1, seed=6),),
    "fills": functools.partial(fills, "campaign mar"),
}

# Computed on C-ordered inputs before the layout contract landed, so they
# also show that the contract left C input's bits where they were.
PINS = {
    "kpod_fit small mcar": "3b0d0ea01588424a",
    "kpod_fit campaign mar": "22331ff5866735dd",
    "kpod_fit nmar": "123e392d88850e60",
    "kpod_fit two blocks": "470dd6ef509c7ac7",
    "ampute small mcar": "ea7cb2026410f438",
    "ampute nmar": "5f96835e1559576c",
    "mean_impute_cluster": "0a2aa002f9bba9ca",
    "delete_cluster": "4c3d315022f8fd98",
    "lloyd two blocks": "f344db205a97e4c9",
    "perturb_dataset": "925a4e84307a6fd7",
    "fills": "a790b96c736d26d3",
    "campaign report": "bb9915bf8154461f",
    "cli pipeline": "a5ee127cd0eb7fa8",
}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("case", CASES)
def test_in_process_outputs(case, layout):
    assert digest(*CASES[case](LAYOUTS[layout])) == PINS[case]


# Three mechanisms, three methods, two trials: 18 runs, delete ones included.
CAMPAIGN = {"mixture": {"n": 60, "p": 6, "k": 3}, "k": 3, "mechanisms": ["mcar", "mar", "nmar"],
            "mar_columns": [0, 1, 2], "rates": [0.3], "trials": 2, "base_seed": 5}


@pytest.mark.parametrize("workers", [1, 2])
def test_no_timing_campaign_report(workers, tmp_path, capsys):
    config, report = tmp_path / "grid.json", tmp_path / "report.csv"
    config.write_text(json.dumps(CAMPAIGN))
    assert cli(["benchmark", "--config", str(config), "--output", str(report), "--no-timing",
                "--workers", str(workers)]) == 0
    summary = tmp_path / "report_summary.csv"
    assert digest(report.read_bytes(), summary.read_bytes()) == PINS["campaign report"]


def test_cli_pipeline_files(tmp_path, capsys):
    def run(*args):
        assert cli([str(arg) for arg in args]) == 0

    run("simulate", "--n", 120, "--p", 6, "--k", 3, "--seed", 2,
        "--output", tmp_path / "data.csv", "--labels", tmp_path / "truth.csv")
    run("ampute", "--input", tmp_path / "data.csv", "--output", tmp_path / "masked.csv",
        "--mechanism", "mar", "--mar-columns", "0,1,2", "--rate", 0.3, "--seed", 3)
    for method in ("kpod", "mean_impute", "delete"):
        run("cluster", "--input", tmp_path / "masked.csv", "--output", tmp_path / method,
            "--method", method, "--k", 3, "--seed", 1)
    files = sorted(tmp_path.iterdir())
    assert len(files) == 12
    assert digest(*(f.name.encode() + f.read_bytes() for f in files)) == PINS["cli pipeline"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fit_at_blas_threads(threads):
    # The two-block fit, whose GEMMs are the largest of these cases.
    code = ("import test_same_bits as t; "
            "print(t.digest(*t.fit('two blocks', t.LAYOUTS['C'])))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == PINS["kpod_fit two blocks"]
