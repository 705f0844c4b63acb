from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pathcomb as pc

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so no library check may be one
    modules = sorted(Path(pc.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_traced_spans_resolve():
    # the benchmark wraps each (module, attribute) in SPANS; one that no
    # longer resolves would silently drop its span from the per-layer report
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SPANS" for t in node.targets))
    assert len(spans) >= 30
    missing = []
    for mod_name, attr, _key in spans:
        obj = importlib.import_module("pathcomb." + mod_name)
        owner, _, name = attr.rpartition(".")
        if owner:
            obj = vars(obj).get(owner)
            found = obj is not None and name in vars(obj)
        else:
            found = callable(vars(obj).get(name))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
