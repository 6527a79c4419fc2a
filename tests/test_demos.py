"""The demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lacuna

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["constant_mode.py", "certificate_walkthrough.py"])
def test_demo_exits_cleanly(name):
    # the demos import the lacuna this suite imports, installed or not
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(lacuna.__file__).resolve().parents[1]),
    }
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
