"""The package is layered: every import sits at module level, and the
imports between its modules (the __init__ and __main__ entry points aside)
form no cycle."""

from __future__ import annotations

import ast
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "valsel"
ENTRY_POINTS = {"__init__", "__main__"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def siblings(node) -> list[str]:
    """The package modules a package-relative import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        return [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
    return []


def test_no_import_sits_inside_a_function():
    inside = [
        f"{name}.py:{node.lineno}"
        for name, tree in trees().items()
        for fn in ast.walk(tree)
        if isinstance(fn, FUNCTIONS)
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert inside == []


def test_module_imports_form_no_cycle():
    modules = trees()
    graph = {
        name: {dep for node in ast.walk(tree) for dep in siblings(node) if dep in modules}
        - ENTRY_POINTS
        for name, tree in modules.items()
        if name not in ENTRY_POINTS
    }
    assert graph["evaluate"] >= {"baselines", "classifiers"}  # the walk sees imports
    TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
