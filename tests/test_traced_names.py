"""Every call the benchmark's tracer wraps still exists in the program."""

import ast
import importlib
from pathlib import Path

TRACED_PY = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _traced() -> dict:
    # read the TRACED literal without importing or running the script
    tree = ast.parse(TRACED_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACED_PY.name} assigns no TRACED literal")


def test_every_traced_name_is_callable():
    traced = _traced()
    assert traced
    missing = [
        f"lacuna.{module_name}.{name}"
        for module_name, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"lacuna.{module_name}"), name, None))
    ]
    assert missing == []
