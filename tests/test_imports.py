"""Every name a package module imports is used: referenced in its code or listed in its __all__."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stiefelgen"

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


def bench_targets() -> tuple:
    """bench/tracer.py's TARGETS, read from the file by path: the bench is neither installed nor on sys.path."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, path", [(module, path) for module, path, _ in bench_targets()])
def test_every_name_the_bench_traces_resolves(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        assert hasattr(owner, attr), f"bench/tracer.py looks up {module}.{path}, which has no {attr}"
        owner = getattr(owner, attr)
    assert callable(owner)
