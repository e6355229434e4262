"""Source rules that hold for every module of the package."""

import ast
import sys
from pathlib import Path

import wittcount


def _package_nodes():
    """(file name, node) for every AST node of every module of the package."""
    for path in sorted(Path(wittcount.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_bare_assert_in_the_package():
    # ``python -O`` strips assert statements, so every invariant of the
    # package raises AssertionError explicitly
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares ``dependencies = []``: every import is
    # relative or names a standard-library module
    found = []
    for name, node in _package_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [f"{name}:{node.lineno}:{module}" for module in modules
                  if module.partition(".")[0] not in sys.stdlib_module_names]
    assert not found, found
