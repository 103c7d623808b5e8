"""The package's import structure: imports at module top, no cycles."""

import ast
import graphlib
from pathlib import Path

import remychain

PACKAGE = Path(remychain.__file__).parent
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}


def intra_package_imports(tree: ast.Module) -> set[str]:
    """Sibling modules named by the module's relative or absolute imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("remychain."):
                found.add(node.module.split(".")[1])
            elif node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:  # from . import a, b
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("remychain.")
            )
    return found


def test_no_import_inside_a_function():
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [
                    node.lineno
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
                assert not nested, f"{name}.py imports inside {fn.name} at lines {nested}"


def test_intra_package_imports_are_acyclic():
    graph = {name: intra_package_imports(tree) for name, tree in MODULES.items()}
    assert {"trees", "remy", "kernel"} <= set(graph)
    assert graph["remy"] == {"trees", "rng"}
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError
