"""Rules checked on the library source itself."""

import ast
from pathlib import Path

import linkgraph


def _library_trees():
    modules = sorted(Path(linkgraph.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        yield path.name, ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )


def test_library_has_no_assert_statements():
    # python -O strips assert statements; library checks raise
    # InternalCheckError instead, so they keep running
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _library_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_imports_only_at_module_level():
    # no module pair imports each other in a cycle, so every dependency
    # shows at the top of its module
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _library_trees()
        for fn in ast.walk(tree)
        if isinstance(fn, functions)
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []
