"""The suite's pytest settings report a failing property test as a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # on failure hypothesis's plugin imports libcst, whose import warning the
    # "error" filter would raise inside a hook, ending the run before any
    # later test is reported
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_small(n):\n"
        "    assert n < 5\n"
    )
    (tmp_path / "test_plain.py").write_text("def test_plain():\n    assert True\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_property.py", "test_plain.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out, out
