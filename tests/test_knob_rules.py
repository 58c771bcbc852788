"""Every knob is checked by the rule of its kind in errors.py: no other
module builds a range or type message for a ConfigError of its own."""

from __future__ import annotations

import ast

from test_layering import trees

#: Message fragments that only errors.py's rules may build.
PHRASES = ("must lie in", "must be an integer", "must be a number", "must be >=")


def message_text(call: ast.Call) -> str:
    """The literal text of a call's first argument, f-string parts included."""
    if not call.args:
        return ""
    return "".join(node.value for node in ast.walk(call.args[0])
                   if isinstance(node, ast.Constant) and isinstance(node.value, str))


def test_only_errors_py_builds_a_knob_message():
    built = [
        f"{name}.py:{node.lineno}"
        for name, tree in trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ConfigError"
        and any(phrase in message_text(node.exc) for phrase in PHRASES)
    ]
    assert any(site.startswith("errors.py:") for site in built)  # the walk sees the rules
    assert [site for site in built if not site.startswith("errors.py:")] == []
