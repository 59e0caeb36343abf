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
