"""Exact arithmetic only: no `float(...)` call or float literal in the package."""

import ast
import pathlib

import tropsing

PACKAGE = pathlib.Path(tropsing.__file__).parent


def _is_float(node):
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def test_package_has_no_floats():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _is_float(node)]
    assert found == []
