"""The library reports a failed check by a named exception of
``objred.errors`` or by a ValueError or TypeError, never by an ``assert``
(which ``python -O`` strips) or a bare RuntimeError or AssertionError."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "objred").glob("*.py"))
BANNED = {"RuntimeError", "AssertionError"}


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_library_module_asserts_or_raises_a_generic_error():
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and _raised_name(node) in BANNED:
                found.append(f"{path.name}:{node.lineno}: raise {_raised_name(node)}")
    assert found == []
