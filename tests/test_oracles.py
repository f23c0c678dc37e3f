"""The brute-force oracles stay apart from the production path: only the
tests import ``rouxforge.oracles``."""

import ast
from pathlib import Path

import rouxforge

PACKAGE = Path(rouxforge.__file__).parent


def imports_oracles(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "oracles" for name in names):
            return True
    return False


def test_only_tests_import_oracles():
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(path.name == "oracles.py" for path in modules)
    assert [path.name for path in modules if path.name != "oracles.py" and imports_oracles(path)] == []
    assert "oracles" not in rouxforge.__all__
