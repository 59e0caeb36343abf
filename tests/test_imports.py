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
