import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

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
