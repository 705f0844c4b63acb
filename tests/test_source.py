from __future__ import annotations

import ast
from pathlib import Path

import pathcomb as pc


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so no library check may be one
    modules = sorted(Path(pc.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
