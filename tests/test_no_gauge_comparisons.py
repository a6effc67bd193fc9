"""The package tests a gauge against a constant only as the integer membership it equals.

On a body with the origin interior a gauge of 1 is the boundary and one above
1 the outside, and ``_row_membership`` decides both by comparing integers.
Comparing a ``_row_gauge(...)`` call with a constant builds a Fraction for
the same answer, so the check below keeps that form out of the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mahlerlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_gauge_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "_row_gauge"


def gauge_comparison_lines(source: str) -> list[int]:
    """Line numbers of the comparisons of a ``_row_gauge(...)`` call with a constant in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_gauge_call, operands)) and any(isinstance(o, ast.Constant) for o in operands):
                found.append(node.lineno)
    return sorted(found)


def test_the_check_finds_a_gauge_comparison():
    source = (
        "def f(p, x):\n"
        "    if _row_gauge(p, x, 1) != 1:\n"
        "        return 1 < polytope._row_gauge(p, x, 2)\n"
        "    return max(_row_gauge(p, y, 1) for y in x) == g\n"  # a variable, not a constant
    )
    assert gauge_comparison_lines(source) == [2, 3]


def test_package_compares_no_gauge_with_a_constant():
    found = {m.name: gauge_comparison_lines(m.read_text(encoding="utf-8")) for m in MODULES}
    assert {"graphs.py", "polytope.py", "stability.py", "volprod.py"} <= set(found)
    assert {name: lines for name, lines in found.items() if lines} == {}
