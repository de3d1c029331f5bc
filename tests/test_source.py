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


def test_every_library_name_is_used():
    # a top-level function or class that nothing in the repository refers
    # to is dead API; names inside strings do not count
    root = Path(__file__).resolve().parents[1]
    used = set()
    for folder in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = [
        f"{name}:{node.name}"
        for name, tree in _library_trees()
        for node in tree.body
        if isinstance(node, definitions) and node.name not in used
    ]
    assert unused == []
