"""CLI output has one encoder: `jsonio.dumps`, not `json.dump`/`json.dumps`."""

import ast
import pathlib

import tropsing

PACKAGE = pathlib.Path(tropsing.__file__).parent
BANNED = {"dump", "dumps"}


def test_package_never_calls_json_dump():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            json_attr = (
                isinstance(node, ast.Attribute)
                and node.attr in BANNED
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            )
            json_import = (
                isinstance(node, ast.ImportFrom)
                and node.module == "json"
                and any(alias.name in BANNED for alias in node.names)
            )
            if json_attr or json_import:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
