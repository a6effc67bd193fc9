"""The command line checks its facts with raised errors, never with ``assert``.

``python -O`` strips assert statements, so a check written as one would let
``verify`` print PASS without running it.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "mahlerlab" / "cli.py"


def assert_lines(source: str) -> list[int]:
    """Line numbers of the assert statements in the source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_the_check_finds_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\nassert f(1)\n"
    assert assert_lines(source) == [3, 5]


def test_cli_holds_no_assert_statement():
    assert assert_lines(CLI.read_text(encoding="utf-8")) == []
