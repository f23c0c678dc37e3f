"""The brute-force oracles stay apart from the production path: only the
tests import ``rouxforge.oracles``.  Code only the tests reach belongs
there, so every other module-level definition, and every method and
property of a production class, has a production use."""

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


def production_paths(package: Path) -> list[Path]:
    return [p for p in sorted(package.glob("*.py")) if p.name not in ("__init__.py", "oracles.py")]


def dead_definitions(package: Path) -> list[str]:
    """Module-level functions and classes of the production modules that
    no live production code references.

    The oracles and the ``__init__`` exports do not count as uses, nor
    does a definition's reference to itself, and a reference from inside
    a dead definition does not keep a name alive.
    """
    paths = production_paths(package)
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


def attribute_loads(nodes) -> set:
    return {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def dead_members(package: Path) -> list[str]:
    """Non-dunder methods and properties of production classes whose
    attribute name no live production code loads.

    Live code is every production module-level definition that
    ``dead_definitions`` keeps, and a member's own body or the body of a
    dead member does not keep a name alive.  Names are matched as
    attribute names, whatever object they are loaded from.
    """
    dead_defs = set(dead_definitions(package))
    members = {}  # "module.Class.name" -> (name, attribute names its body loads)
    outside = set()  # attribute names loaded outside every member body
    for path in production_paths(package):
        for node in ast.parse(path.read_text()).body:
            if f"{path.stem}.{getattr(node, 'name', '')}" in dead_defs:
                continue
            inside = set()  # ids of the nodes in member bodies
            for cls in (n for n in ast.walk(node) if isinstance(n, ast.ClassDef)):
                for item in cls.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        body = list(ast.walk(item))
                        inside |= {id(n) for n in body}
                        members[f"{path.stem}.{cls.name}.{item.name}"] = (item.name, attribute_loads(body))
            outside |= attribute_loads(n for n in ast.walk(node) if id(n) not in inside)
    dead: set = set()
    while True:
        newly = set()
        for key, (name, _) in members.items():
            others = (used for k, (_, used) in members.items() if k != key and k not in dead)
            if key not in dead and name not in outside.union(*others):
                newly.add(key)
        if not newly:
            return sorted(dead)
        dead |= newly


def test_dead_members_flags_members_only_tests_reach(tmp_path):
    (tmp_path / "shapes.py").write_text(
        "class Box:\n"
        "    def __init__(self, w):\n"
        "        self.w = w\n"
        "    def area(self):\n"
        "        return self.w * self.w\n"
        "    def grow(self):\n"  # only the dead member below calls it
        "        return Box(self.w + 1)\n"
        "    def regrow(self):\n"
        "        return self.grow().regrow()\n"  # its own name keeps nothing alive
        "\n"
        "def report(box):\n"
        "    return box.area()\n"
        "\n"
        "print(report(Box(2)))\n"
    )
    assert dead_members(tmp_path) == ["shapes.Box.grow", "shapes.Box.regrow"]


def test_no_production_member_is_dead():
    assert dead_members(PACKAGE) == []


def loaded_names(tree: ast.AST) -> set:
    """Names a module loads, bare or as ``oracles.name``."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "oracles"
    }


def unreached_oracles(oracles: Path, tests: list[Path]) -> list[str]:
    """Module-level functions and classes of ``oracles`` that no test
    reaches, directly or through another oracle that a test reaches.  A
    test reaches a name by loading it; an import alone does not count."""
    defs = {
        node.name: loaded_names(node)
        for node in ast.parse(oracles.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    used = set().union(*(loaded_names(ast.parse(path.read_text())) for path in tests))
    reached = frontier = used & set(defs)
    while frontier:
        frontier = set().union(*(defs[name] for name in frontier)) & set(defs) - reached
        reached = reached | frontier
    return sorted(set(defs) - reached)


def test_unreached_oracles_follows_oracles_through_each_other(tmp_path):
    (tmp_path / "oracles.py").write_text(
        "def used():\n"
        "    return helper()\n"
        "\n"
        "def helper():\n"  # reached only through used
        "    return 1\n"
        "\n"
        "def imported_only():\n"
        "    return 2\n"
        "\n"
        "class Orphan:\n"
        "    pass\n"
    )
    (tmp_path / "test_it.py").write_text(
        "from oracles import imported_only, used\n"
        "\n"
        "def test_it():\n"
        "    assert used() == 1\n"
    )
    assert unreached_oracles(tmp_path / "oracles.py", [tmp_path / "test_it.py"]) == ["Orphan", "imported_only"]


def test_every_oracle_is_reached_from_a_test():
    # code moved into the oracles keeps a user, so it cannot rot unseen
    tests = sorted(Path(__file__).parent.glob("test_*.py"))
    assert unreached_oracles(PACKAGE / "oracles.py", tests) == []
