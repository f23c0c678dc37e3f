"""The brute-force oracles stay apart from the production path: only the
tests import ``rouxforge.oracles``.  Code only the tests reach belongs
there, so every other module-level definition has a production use."""

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


def dead_definitions(package: Path) -> list[str]:
    """Module-level functions and classes of the production modules that
    no live production code references.

    The oracles and the ``__init__`` exports do not count as uses, nor
    does a definition's reference to itself, and a reference from inside
    a dead definition does not keep a name alive.
    """
    paths = [p for p in sorted(package.glob("*.py")) if p.name not in ("__init__.py", "oracles.py")]
    modules = {path.stem for path in paths}
    defs = {}  # "module.name" -> (name, names referenced in its body)
    outside = set()  # names referenced outside every definition
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            # module.name; other attributes (report.characters) are not these names
            used |= {
                n.attr
                for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules
            }
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = (node.name, used - {node.name})
            else:
                outside |= used
    dead: set = set()
    while True:
        live = set(outside).union(*(used for key, (_, used) in defs.items() if key not in dead))
        newly = {key for key, (name, _) in defs.items() if key not in dead and name not in live}
        if not newly:
            return sorted(dead)
        dead |= newly


def test_no_production_definition_is_dead():
    assert dead_definitions(PACKAGE) == []
