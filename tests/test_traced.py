"""Every function the benchmark tracer binds by name exists in the package."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> tuple[str, ...]:
    """The tracer's TRACED tuple, read from its source without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no TRACED tuple")


def test_traced_names_resolve():
    names = _traced_names()
    assert names, "the tracer lists no functions"
    for name in names:
        module, func = name.split(".")
        obj = getattr(importlib.import_module(f"mahlerlab.{module}"), func, None)
        assert callable(obj), f"{name} does not resolve to a function of mahlerlab"
