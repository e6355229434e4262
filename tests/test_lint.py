"""Source rules that hold for every module of the package."""

import ast
from pathlib import Path

import wittcount


def test_no_bare_assert_in_the_package():
    # ``python -O`` strips assert statements, so every invariant of the
    # package raises AssertionError explicitly
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(wittcount.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
