"""Every name a package module imports is read somewhere in that module."""

import ast
import re
from pathlib import Path

import pytest

import mahlerlab
from test_traced import _traced_names

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mahlerlab"
DEMOS = ROOT / "demos"
README = ROOT / "README.md"


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


def readers(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Each name read in the modules -> where: the module, or ``"module.function"`` inside a top-level function.

    A read is a name, an attribute or a ``from ... import`` of the name.
    """
    read: dict[str, set[str]] = {}
    for module, tree in trees.items():
        owners = {id(node): f"{module}.{node.name}" for node in tree.body if isinstance(node, ast.FunctionDef)}

        def visit(node: ast.AST, where: str) -> None:
            where = owners.get(id(node), where)
            if isinstance(node, ast.Name):
                read.setdefault(node.id, set()).add(where)
            elif isinstance(node, ast.Attribute):
                read.setdefault(node.attr, set()).add(where)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    read.setdefault(alias.name, set()).add(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, module)
    return read


def unread_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions that no module reads outside their own body, as ``"module.name"``.

    A recursive call inside the function's own body is no read.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = readers(trees)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not read.get(node.name, set()) - {f"{module}.{node.name}"}
    )


def test_the_check_finds_an_unread_private_function():
    sources = {
        "a": "def _used(): pass\ndef _recursive(n): return _recursive(n - 1)\ndef _unused(): pass\ndef public(): pass\n",
        "b": "from .a import _used\n_used()\n",
        "c": "import a\na._attr()\ndef _attr(): pass\n",
    }
    assert unread_private_functions(sources) == ["a._recursive", "a._unused"]


def test_every_private_function_has_a_package_reader():
    # a helper that only tests call belongs in tests/oracles.py
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_private_functions(sources) == []


def unread_public_names(
    package: dict[str, str], others: dict[str, str], readme: str, exempt=frozenset(), exported=()
) -> list[str]:
    """Public module-level functions and classes of ``package``, and the ``exported`` names, that nothing reads.

    A read counts in any module of ``package`` or ``others`` outside the
    name's own body, or as a word of ``readme``.  Definitions named
    ``"module.name"`` in ``exempt`` are not held to the rule.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    names = set(exported) | {
        node.name
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and f"{module}.{node.name}" not in exempt
    }
    read = readers(trees | {module: ast.parse(source) for module, source in others.items()})
    return sorted(
        name
        for name in names
        if not {where for where in read.get(name, ()) if where.rpartition(".")[2] != name}
        and not re.search(rf"\b{name}\b", readme)
    )


def test_the_check_finds_an_unread_public_name():
    package = {
        "a": "def used(): pass\ndef recursive(n): return recursive(n - 1)\ndef unused(): pass\nclass Told: pass\n",
        "b": "def traced(): pass\n",
    }
    demo = {"demo": "from a import used\ndef main(): used()\n"}
    found = unread_public_names(package, demo, "See `Told`.", exempt={"b.traced"}, exported=["gone"])
    assert found == ["gone", "recursive", "unused"]


def test_every_public_name_has_a_reader():
    # a public name that only the tests read belongs in tests/oracles.py; the
    # benchmark tracer binds its names from outside the package, so they are exempt
    package = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    demos = {path.stem: path.read_text(encoding="utf-8") for path in sorted(DEMOS.glob("*.py"))}
    readme = README.read_text(encoding="utf-8")
    assert unread_public_names(package, demos, readme, set(_traced_names()), mahlerlab.__all__) == []
