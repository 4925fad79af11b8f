"""The library reports a failed check by a named exception of
``objred.errors`` or by a ValueError or TypeError, never by an ``assert``
(which ``python -O`` strips) or a bare RuntimeError or AssertionError.  It
keeps no module-global cache: every fact lives on the object it is a fact
of, for as long as that object does.  And no module but the package's
``__init__`` imports the LP solver ``objred.simplex``."""

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


MUTATORS = {"append", "add", "update", "setdefault", "pop", "clear"}
CACHES = {"cache", "lru_cache"}


def _base(node: ast.expr) -> ast.expr:
    """The object at the root of a chain of subscripts and attributes."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node


def _module_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _global_writes(function: ast.FunctionDef | ast.AsyncFunctionDef, shared: set[str]) -> list[str]:
    """What ``function`` (nested functions included) does that keeps state
    across calls at module level: a write into a container bound at the top
    level and not shadowed in the function, a ``global``, or a memoizing
    decorator."""
    for node in ast.walk(function):
        if isinstance(node, ast.arg):
            shared = shared - {node.arg}
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            shared = shared - {node.id}
    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.Global):
            found.append(f"{node.lineno}: global {', '.join(node.names)}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                called = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = called.attr if isinstance(called, ast.Attribute) else getattr(called, "id", None)
                if name in CACHES:
                    found.append(f"{decorator.lineno}: @{name} on {node.name}")
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            base = _base(node)
            if isinstance(base, ast.Name) and base.id in shared:
                found.append(f"{node.lineno}: writes {base.id}[...]")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
            base = _base(node.func)
            if isinstance(base, ast.Name) and base.id in shared:
                found.append(f"{node.lineno}: {base.id}...{node.func.attr}(...)")
    return found


def test_no_library_function_keeps_a_module_global_cache():
    # Read-only tables built at import, such as linalg._SMALL and
    # engine._NOT_FOUND, are allowed; filling one from a function is not.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        shared = _module_names(tree)
        for node in tree.body:
            functions = node.body if isinstance(node, ast.ClassDef) else [node]
            for function in functions:
                if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found += [f"{path.name}:{line}" for line in _global_writes(function, shared)]
    assert found == []


def _cached_properties(node: ast.AST) -> set[str]:
    """The names of a class's methods decorated with ``cached_property``."""
    if not isinstance(node, ast.ClassDef):
        return set()
    names = set()
    for method in node.body:
        for decorator in getattr(method, "decorator_list", ()):
            name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", None)
            if name == "cached_property":
                names.add(method.name)
    return names


def test_a_dict_entry_is_written_only_by_the_class_it_caches_for():
    # A cached property keeps its value in the instance's __dict__, so an
    # entry written there fills that cache.  Only a method of the class
    # whose cached property it is may write one; anywhere else the writer
    # would rely on how that class caches.
    found = []
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            allowed = _cached_properties(top)
            for node in ast.walk(top):
                if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                    target, key = node.value, node.slice
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
                    target, key = node.func.value, None
                else:
                    continue
                if isinstance(target, ast.Attribute) and target.attr == "__dict__":
                    if not (isinstance(key, ast.Constant) and key.value in allowed):
                        found.append(f"{path.name}:{node.lineno}: writes {ast.unparse(node)}")
    assert found == []


def _imports_the_simplex(node: ast.AST) -> bool:
    """Whether ``node`` can load ``objred.simplex``: an import of ``objred``
    by its absolute name, ``from .simplex import ...``, ``from . import
    simplex``, or a call of ``__import__`` or ``import_module``."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "objred" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            return (node.module or "").split(".")[0] == "objred"
        if node.module:
            return node.module.split(".")[0] == "simplex"
        return any(alias.name == "simplex" for alias in node.names)
    if isinstance(node, ast.Call):
        called = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        return called in ("__import__", "import_module")
    return False


def test_no_library_module_imports_the_simplex():
    # objred exports objred.simplex as a public LP solver, and every
    # certificate is read off the integer phase 1 that decides its answer,
    # so no classify or reduce path may solve an LP.  Only the package's
    # __init__ and the solver itself may import it, at any scope: this
    # covers every path, not only the inputs a runtime guard would run.
    found = [path.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text())) if _imports_the_simplex(node)]
    assert found == ["__init__.py"]
