import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_a_failing_property_is_reported_not_an_internal_error(tmp_path):
    # Reporting a failure makes hypothesis import modules that warn; the
    # warnings-as-errors setting must not turn that into a pytest crash.
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out[-3000:]
    assert done.returncode == 1, out[-3000:]
    assert "FAILED" in out
