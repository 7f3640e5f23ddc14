"""Every name a package module imports is used: referenced in its code or listed in its __all__."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stiefelgen"

#: The one name imported for a reader outside the package: bench/tracer.py looks
#: exp_map up in augment, whose retraction reaches it only through geodesic.
UNUSED_ON_PURPOSE = {"augment.py": {"exp_map"}}


def imported_names(tree: ast.Module) -> set:
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_used(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported_names(tree) - referenced - exported_names(tree)
    assert unused == UNUSED_ON_PURPOSE.get(name, set())
