"""Every name a package module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mahlerlab"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, as ``"name (line n)"``.

    ``from __future__`` imports are compiler directives, and a name listed in
    ``__all__`` is read by whoever imports the module.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read | exported)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom x import a, b as c\n__all__ = ['a']\nsys.exit()\n"
    assert unused_imports(source) == ["c (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
