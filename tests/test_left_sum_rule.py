"""Floats are added left to right by one rule, data.left_sum: no other code
folds a sequence with reduce over add."""

from __future__ import annotations

import ast

from test_layering import trees

from valsel import data, metrics


def folds_with_add(call: ast.Call) -> bool:
    """A call reduce(add, ...) or functools.reduce(operator.add, ...)."""
    name = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", "")
    first = call.args[0] if call.args else None
    return name == "reduce" and (
        isinstance(first, ast.Name) and first.id == "add"
        or isinstance(first, ast.Attribute) and first.attr == "add"
        and isinstance(first.value, ast.Name) and first.value.id == "operator")


def sites(module: str, tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function, line) of each such fold."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call) and folds_with_add(node):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def test_only_left_sum_folds_with_add():
    found = [site for name, tree in trees().items() for site in sites(name, tree)]
    assert [f"{scope}:{line}" for scope, line in found if scope != "data.left_sum"] == []
    assert [scope for scope, _ in found] == ["data.left_sum"]  # the walk sees it


def test_the_pattern_names_each_spelling():
    spelled = ["reduce(add, xs, 0.0)", "reduce(operator.add, xs, done)",
               "functools.reduce(operator.add, xs)"]
    kept = ["reduce(mul, xs, 1)", "map(add, xs, ys)", "reduce(operator.and_, xs)",
            "reduce(lambda a, b: a + b, xs)"]
    calls = [next(n for n in ast.walk(ast.parse(s)) if isinstance(n, ast.Call)) for s in spelled + kept]
    assert list(map(folds_with_add, calls)) == [True] * 3 + [False] * 4


def test_left_sum_adds_from_its_start_left_to_right():
    assert data.left_sum([1e16, 1.0, -1e16], 0.5) == 0.0
    assert data.left_sum([0.25, 0.5], 0.25) == 1.0
    assert data.left_sum(iter([]), 2.0) == 2.0
    assert metrics.left_sum is data.left_sum
