import re
import subprocess
import sys
from pathlib import Path

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
