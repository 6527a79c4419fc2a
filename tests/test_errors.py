"""Every package exception is raised somewhere and exported, and no other."""

import ast
import inspect
from pathlib import Path

import lacuna
from lacuna import errors

SRC = Path(lacuna.__file__).parent


def _error_classes() -> set[str]:
    return {
        name
        for name, value in vars(errors).items()
        if inspect.isclass(value) and value.__module__ == errors.__name__
    }


def _raised_names() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    dead = _error_classes() - {"LacunaError"} - _raised_names()
    assert not dead, f"exception classes no code raises: {sorted(dead)}"


def test_all_lists_exactly_the_error_classes():
    assert set(lacuna.__all__) == _error_classes() | {"__version__"}
    assert len(lacuna.__all__) == len(set(lacuna.__all__))
