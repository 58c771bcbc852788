"""A value-id column is looked up through a table by one rule, data.recode:
no other code appends an entry for MISSING to a table, save the two kernels
that read a table a slot at a time."""

from __future__ import annotations

import ast

from test_layering import trees

#: The functions allowed a table with an appended missing entry: recode
#: itself, and the per-slot tables of the (value, class) keys and the tree's
#: compiled routing (the latter built in a function nested in _compile).
PER_SLOT = ("data.recode", "metrics.class_keys", "classifiers.TreeModel._compile")


def missing_like(node) -> bool:
    """An entry that stands for a missing slot: None, "?", MISSING or a name
    that says missing."""
    if isinstance(node, ast.Constant):
        return node.value is None or node.value == "?"
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return "missing" in name.lower()


def appended_missing(node) -> bool:
    """A table with a missing entry after its last: `table + [missing]` or
    `(*table, missing)`, as a list or tuple."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        node, after_table = node.right, True
    else:
        after_table = False
    if not isinstance(node, (ast.List, ast.Tuple)) or not node.elts:
        return False
    *head, last = node.elts
    after_table = after_table or any(isinstance(e, ast.Starred) for e in head)
    return after_table and not isinstance(last, ast.Starred) and missing_like(last)


def sites(module: str, tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function, line) of each appended
    missing entry in a module."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
        if appended_missing(node):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def owner(scope: str) -> str | None:
    """The PER_SLOT function that scope is, or is nested in; None if none."""
    return next((f for f in PER_SLOT if scope == f or scope.startswith(f + ".")), None)


def test_only_recode_and_the_per_slot_kernels_append_a_missing_entry():
    found = [site for name, tree in trees().items() for site in sites(name, tree)]
    assert [f"{scope}:{line}" for scope, line in found if owner(scope) is None] == []
    assert {owner(scope) for scope, _ in found} == set(PER_SLOT)  # the walk sees each of them


def test_the_pattern_names_each_way_of_appending():
    spelled = ["t + [MISSING]", "t + (missing_token,)", "t + ['?']", "(*floats, None)",
               "(*range(b), *remap, MISSING)", "[*t, self.missing]"]
    kept = ["header + ['class']", "(*columns, label_ids)", "[0.0] + g", "(MISSING,) * n",
            "[MISSING if v is None else v for v in t]", "[header, *tables]"]
    assert [any(map(appended_missing, ast.walk(ast.parse(s)))) for s in spelled] == [True] * 6
    assert [any(map(appended_missing, ast.walk(ast.parse(s)))) for s in kept] == [False] * 6
