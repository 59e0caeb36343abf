import importlib
import inspect
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import kpod

SRC = Path(__file__).resolve().parents[1] / "src"

# Only a pool of workers, seed derivation and a JSON config need these,
# so loading them with the package would only slow every start.
DEFERRED = ("concurrent.futures", "multiprocessing", "hashlib", "json")


def test_import_kpod_leaves_the_deferred_modules_unloaded():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import kpod\n"
        f"print(*sorted(m for m in {DEFERRED!r} if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.split() == []


def test_the_readme_package_table_names_every_module():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Package layout")[1].split("\n## ")[0]
    named = re.findall(r"^\| `kpod\.(\w+)` \|", table, re.M)
    modules = sorted(path.stem for path in (SRC / "kpod").glob("*.py") if path.stem != "__init__")
    assert sorted(named) == modules


def test_the_readme_library_quick_start_runs():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start")[1].split("\n## ")[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr


# Every module but the command line, in the order the package imports them.
MODULES = sorted(path.stem for path in (SRC / "kpod").glob("*.py") if path.stem not in ("__init__", "cli"))


def test_the_package_exports_exactly_the_module_lists():
    import kpod
    lists = [importlib.import_module(f"kpod.{name}").__all__ for name in MODULES]
    assert kpod.__all__ == [name for names in lists for name in names]
    assert len(set(kpod.__all__)) == len(kpod.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_is_defined_in_its_module(module):
    mod = importlib.import_module(f"kpod.{module}")
    for name in mod.__all__:
        value = getattr(mod, name)
        assert getattr(value, "__module__", mod.__name__) == mod.__name__, name


def test_a_star_import_binds_the_public_names():
    import kpod
    namespace = {}
    exec("from kpod import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(kpod.__all__)
    public = {name for name, value in vars(kpod).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(kpod.__all__)


DATA = np.arange(12.0).reshape(6, 2)
MASKED = kpod.MaskedMatrix(values=DATA, observed=np.ones(DATA.shape, dtype=bool))
# One call per seeded entry point of the package, on small valid inputs.
SEEDED = {
    "lloyd": lambda seed: kpod.lloyd(DATA, 2, seed=seed),
    "kmeanspp_init": lambda seed: kpod.kmeanspp_init(DATA, 2, seed=seed),
    "mean_impute_cluster": lambda seed: kpod.mean_impute_cluster(MASKED, 2, seed=seed),
    "delete_cluster": lambda seed: kpod.delete_cluster(MASKED, 2, seed=seed),
    "perturb_dataset": lambda seed: kpod.perturb_dataset(DATA, 0.1, seed=seed),
    "KPodConfig": lambda seed: kpod.KPodConfig(k=2, seed=seed),
    "MixtureSpec": lambda seed: kpod.MixtureSpec(n=5, p=2, k=2, seed=seed),
    "MechanismSpec": lambda seed: kpod.MechanismSpec(kind=kpod.Mechanism.MCAR, target_rate=0.2,
                                                     seed=seed),
}


def _parameters(value):
    try:
        return inspect.signature(value).parameters
    except (TypeError, ValueError):  # no signature, as for the exception classes
        return {}


def test_every_seeded_entry_point_is_listed():
    # A new seeded entry point fails here until SEEDED checks its seed.
    seeded = {name for name in kpod.__all__ if "seed" in _parameters(getattr(kpod, name))}
    assert seeded == set(SEEDED)


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_every_seeded_entry_point_checks_its_seed(name):
    # A seed numpy would refuse, or take as another seed, is an error naming it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (-1, 1.5, True):
            with pytest.raises(ValueError, match=r"\bseed\b"):
                SEEDED[name](bad)
        for good in (None, 2**64 - 1):
            SEEDED[name](good)
        if name in ("lloyd", "kmeanspp_init"):  # lloyd seeds from its own generator
            SEEDED[name](np.random.default_rng(0))


GRID_PARTS = dict(dataset=kpod.MixtureSpec(n=5, p=2, k=2),
                  mechanisms=(kpod.MechanismSpec(kind=kpod.Mechanism.MCAR, target_rate=0.2),),
                  rates=(0.2,), methods=("kpod",), trials=1, base_seed=0)
# One call per entry point of the package that takes k, on small valid inputs.
TAKES_K = {
    "lloyd": lambda k: kpod.lloyd(DATA, k, seed=0),
    "kmeanspp_init": lambda k: kpod.kmeanspp_init(DATA, k, seed=0),
    "update_step": lambda k: kpod.update_step(DATA, kpod.Assignment(labels=[0] * 6), k),
    "mean_impute_cluster": lambda k: kpod.mean_impute_cluster(MASKED, k, seed=0),
    "delete_cluster": lambda k: kpod.delete_cluster(MASKED, k, seed=0),
    "KPodConfig": lambda k: kpod.KPodConfig(k=k),
    "MixtureSpec": lambda k: kpod.MixtureSpec(n=5, p=2, k=k),
    "ScenarioGrid": lambda k: kpod.ScenarioGrid(k=k, **GRID_PARTS),
}
# Those that choose their centers from the rows of DATA.
CHOOSE_ROWS = ("lloyd", "kmeanspp_init", "mean_impute_cluster", "delete_cluster")


def test_every_entry_point_that_takes_k_is_listed():
    # A new entry point that takes k fails here until TAKES_K checks it.
    takes_k = {name for name in kpod.__all__ if "k" in _parameters(getattr(kpod, name))}
    assert takes_k == set(TAKES_K)


@pytest.mark.parametrize("name", sorted(TAKES_K))
def test_every_entry_point_that_takes_k_checks_it(name):
    # A k that is no count is a ValueError naming k, wherever it is given;
    # only more centers than rows, which depends on the data, is infeasible.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match=r"\bk\b"):
                TAKES_K[name](bad)
        TAKES_K[name](2)
        if name in CHOOSE_ROWS:
            with pytest.raises(kpod.InfeasibleError, match=r"\bk\b"):
                TAKES_K[name](len(DATA) + 1)


# One call per entry point whose first parameter is a raw data matrix.
TAKES_MATRIX = {
    "lloyd": lambda data: kpod.lloyd(data, 2, seed=0),
    "kmeanspp_init": lambda data: kpod.kmeanspp_init(data, 2, seed=0),
    "assign_step": lambda data: kpod.assign_step(data, kpod.Centroids(centers=[[0.0, 1.0]])),
    "update_step": lambda data: kpod.update_step(data, kpod.Assignment(labels=[0] * 6), 2),
    "kmeans_objective": lambda data: kpod.kmeans_objective(
        data, kpod.Assignment(labels=[0] * 6), kpod.Centroids(centers=[[0.0, 1.0]])),
    "MaskedMatrix": lambda data: kpod.MaskedMatrix(values=data,
                                                   observed=np.ones(np.shape(data), dtype=bool)),
    "ampute": lambda data: kpod.ampute(data, kpod.MechanismSpec(kind=kpod.Mechanism.MCAR,
                                                                target_rate=0.2, seed=0)),
    "perturb_dataset": lambda data: kpod.perturb_dataset(data, 0.1, seed=0),
}


def test_every_entry_point_that_takes_a_matrix_is_listed():
    # A new one fails here until TAKES_MATRIX checks its shape rule.
    takes = {name for name in kpod.__all__
             if list(_parameters(getattr(kpod, name)))[:1] in (["data"], ["values"])}
    assert takes == set(TAKES_MATRIX)


@pytest.mark.parametrize("name", sorted(TAKES_MATRIX))
def test_every_entry_point_that_takes_a_matrix_needs_two_dimensions(name):
    # The engine's one 2-D rule, with its error, wherever a matrix comes in.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (DATA.ravel()[:6], DATA.reshape(6, 1, 2)):
            with pytest.raises(kpod.ShapeMismatchError, match=r"^data must be 2-D"):
                TAKES_MATRIX[name](bad)
        TAKES_MATRIX[name](DATA)


# Operations that take a matrix in another place, or reach the rule by another branch:
# the exact path of a bounded assignment, one row at a time in its last block of 1024.
TAKES_MATRIX_TOO = {
    "project_observed": lambda data: kpod.project_observed(MASKED, data),
    "fill_unobserved": lambda data: kpod.fill_unobserved(MASKED, data),
    "lloyd-init": lambda data: kpod.lloyd(data, 2, init=kpod.Centroids(centers=DATA[:2])),
    "assign_step-bounds": lambda data: kpod.assign_step(
        np.concatenate([np.tile(DATA, (341, 1))[:2 * 1024 + 1 - len(data)], data]),
        kpod.Centroids(centers=DATA[:2]), bounds=kpod.kmeans.RowBounds(2 * 1024 + 1)),
    "perturb_dataset-0": lambda data: kpod.perturb_dataset(data, 0.0),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(TAKES_MATRIX) + sorted(TAKES_MATRIX_TOO))
def test_every_operation_that_takes_a_matrix_refuses_a_cell_not_finite(name, bad):
    # NaN, how most callers write a missing cell, is no value to cluster. One
    # bad cell in each row in turn, so that seeding also starts from it.
    call = {**TAKES_MATRIX, **TAKES_MATRIX_TOO}[name]
    # A MaskedMatrix holds its values, and judges them as a typed object does.
    error, message = ((ValueError, r"^observed entries must be finite$") if name == "MaskedMatrix"
                      else (kpod.InfeasibleError, r"^(data|values|model|source) must be finite$"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row in range(len(DATA)):
            data = DATA.copy()
            data[row, row % 2] = bad
            with pytest.raises(error, match=message):
                call(data)
        call(DATA)
