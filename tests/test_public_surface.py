"""The package holds no code that nothing uses: every function or method
defined in src/valsel is referenced elsewhere in the package, listed in
__all__, or named in README.md. The public surface is __all__ plus the
members the README names; anything else that nothing calls is dead weight.

References are matched by name, so a definition counts as used when any
other definition of the same name is."""

from __future__ import annotations

import ast
import re
from collections import Counter
from itertools import chain

from test_layering import PACKAGE, trees

README = PACKAGE.parent.parent / "README.md"
#: Called from outside the package: the `valsel` script pyproject.toml names.
ENTRY_POINTS = {"cli.main"}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree, prefix: str):
    """(qualified name, node) for every function and method under tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, *DEFS)):
            name = f"{prefix}.{node.name}"
            if isinstance(node, DEFS):
                yield name, node
            yield from definitions(node, name)


def referenced(tree) -> Counter:
    """How often each name appears under tree, as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def exported(modules) -> set[str]:
    """The names __init__.py lists in __all__."""
    for node in modules["__init__"].body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("__init__.py has no __all__")


def readme_names() -> set[str]:
    """Every identifier in README.md's code spans and Python blocks; the
    shell, config and layout blocks name commands, keys and files."""
    text = README.read_text(encoding="utf-8")
    code = re.findall(r"```python(.*?)```|```.*?```|`([^`]+)`", text, flags=re.S)  # a span may wrap a line
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(chain.from_iterable(code))))


def test_every_function_is_used_exported_or_documented():
    modules = trees()
    uses = sum(map(referenced, modules.values()), Counter())
    spared = exported(modules) | readme_names()
    unused = [
        name
        for module, tree in modules.items()
        for name, fn in definitions(tree, module)
        if not (fn.name.startswith("__") and fn.name.endswith("__"))
        and name not in ENTRY_POINTS and fn.name not in spared
        and uses[fn.name] == referenced(fn)[fn.name]  # only its own body names it
    ]
    assert uses["_nodes"] > 0 and "run_experiment" in spared  # the walks see uses and names
    assert not unused, "used nowhere, not in __all__, not in README.md: " + ", ".join(unused)
