"""The demos run to completion as scripts."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["constant_mode.py", "certificate_walkthrough.py"])
def test_demo_exits_cleanly(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
