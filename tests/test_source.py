"""Rules checked on the library source itself."""

import ast
from pathlib import Path

import linkgraph


def test_library_has_no_assert_statements():
    # python -O strips assert statements; library checks raise
    # InternalCheckError instead, so they keep running
    modules = sorted(Path(linkgraph.__file__).parent.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
