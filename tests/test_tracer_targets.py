"""The traced benchmark run wraps program functions by name; every name it
lists must exist, or ``e2ebench/run.py --trace 1`` fails at start-up."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "e2ebench" / "tracer.py"


def traced_names() -> dict:
    # read the table without importing the file, so nothing is written there
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_function_exists():
    traced = traced_names()
    assert traced
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"doubletrace.{module}"), name, None))
    ]
    assert missing == []
