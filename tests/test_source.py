from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pathcomb as pc

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
ENUMERATION = Path(pc.__file__).parent / "enumeration.py"
TILINGS = Path(pc.__file__).parent / "tilings.py"
COMBING = Path(pc.__file__).parent / "combing.py"
SVG = Path(pc.__file__).parent / "svg.py"
CLI = Path(pc.__file__).parent / "cli.py"
# the general-region API and the explicit-path trio, which no other library
# code may name
ORACLE_API = {"Region", "EdgeSets", "EdgePathFamily", "region_edges", "tiling_to_paths",
              "paths_to_tiling", "aztec_region", "ExplicitPath", "explicit_paths",
              "family_from_paths"}


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


def test_oracles_stay_independent():
    # the brute-force oracles check combing, so they may reach combing only
    # through the comb and uncomb that verify_bijection puts under test, and
    # must not lean on the library's own validity or disjointness checks
    tree = ast.parse(ENUMERATION.read_text(), filename=str(ENUMERATION))
    imported = [alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module == "combing"
                for alias in node.names]
    assert imported == ["comb", "uncomb"]
    oracles = {"_schroder_rows", "_points", "enumerate_disjoint", "enumerate_schroder"}
    bodies = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in oracles]
    assert {node.name for node in bodies} == oracles
    banned = {"is_disjoint", "explicit_paths", "validate_family", "comb", "uncomb"}
    used = {getattr(node, "id", None) or getattr(node, "attr", None)
            for body in bodies for node in ast.walk(body)}
    assert used & banned == set()


def test_fast_bridge_stays_off_the_oracles():
    # the Aztec bridge is tested against the general-region API, so neither
    # the four bridge functions nor any module function they reach may name
    # it, build a Region, check tiles by the row decoder or go through
    # explicit paths
    tree = ast.parse(TILINGS.read_text(), filename=str(TILINGS))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    bridge = {"family_to_tiling", "tiling_to_family", "dual_family", "convention_paths"}
    assert bridge <= set(functions)
    reached, todo, used = set(), list(bridge), set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        names = {getattr(node, "id", None) or getattr(node, "attr", None)
                 for node in ast.walk(functions[name])}
        used |= names
        todo.extend(names & set(functions))
    assert {"_cover", "_partners", "_family", "_edge_paths", "_symmetry"} <= reached
    assert used & (ORACLE_API | {"_tile_rows"}) == set()
    # and no other function of the package names it either, so that the
    # general-region API and the explicit-path trio can leave the package
    # as they are
    naming = []
    for path in sorted(Path(pc.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name not in ORACLE_API:
                names = {getattr(node, "id", None) or getattr(node, "attr", None)
                         for node in ast.walk(top)}
                naming += [f"{path.stem}.{top.name} {name}" for name in sorted(names & ORACLE_API)]
    assert naming == []


def test_one_trace_capture_site():
    # every sweep and single step runs through _sweep, the one place that
    # builds a trace for a trace_sink
    tree = ast.parse(COMBING.read_text(), filename=str(COMBING))

    def trace_calls(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "_trace"]

    sweep = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_sweep")
    assert len(trace_calls(tree)) == len(trace_calls(sweep)) == 1


def test_svg_draws_straight_from_the_encoding():
    # the renderers walk (B, D) themselves; explicit paths stay the tests' oracle
    tree = ast.parse(SVG.read_text(), filename=str(SVG))
    used = {getattr(node, "id", None) or getattr(node, "attr", None)
            or getattr(node, "name", None) for node in ast.walk(tree)}
    assert used & {"explicit_paths", "ExplicitPath", "family_from_paths"} == set()


def test_layering():
    # the tiling layer rests on families alone, and the combing kernel reads
    # no explicit paths: the oracles that do live in tests/oracles.py
    def package_imports(path):
        tree = ast.parse(path.read_text(), filename=str(path))
        return {(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}

    assert {module for module, _ in package_imports(TILINGS)} == {"families"}
    assert {name for _, name in package_imports(COMBING)} & {
        "explicit_paths", "ExplicitPath", "family_from_paths"} == set()


def test_one_staging_site():
    # the column stages and single steps reach the sweep through one runner,
    # _stage_sweep; comb and uncomb pack the whole triangle themselves
    tree = ast.parse(COMBING.read_text(), filename=str(COMBING))
    callers: dict[str, set[str]] = {}
    for node in tree.body:
        caller = node.name if isinstance(node, ast.FunctionDef) else "<module>"
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                callers.setdefault(call.func.id, set()).add(caller)
    assert callers["_sweep"] == {"comb", "uncomb", "_stage_sweep", "_sweep"}
    assert callers["_pack"] == {"comb", "uncomb", "_stage_sweep"}
    assert callers["_by_slack"] == {"_tables"}


def test_packed_format_stays_in_tilings():
    # only tilings knows the bytes of a packed tiling (m, P): svg draws it
    # through the one decoder tilings._first_cells, takes none of the
    # module's tables and reads no byte of P, and cli writes the tiling file
    # through tilings as well.  The step bytes of a path, which the bridge
    # stores in P, are defined in families alone, beside the one shear walk,
    # and the point walk they replaced is gone
    def from_tilings(path):
        tree = ast.parse(path.read_text(), filename=str(path))
        return tree, {alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.module == "tilings"
                      for alias in node.names}

    def defined(path):
        names = set()
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names |= {name.id for target in node.targets for name in ast.walk(target)
                          if isinstance(name, ast.Name)}
        return names

    where: dict[str, set[str]] = {}
    for path in Path(pc.__file__).parent.glob("*.py"):
        for name in defined(path):
            where.setdefault(name, set()).add(path.stem)
    step_bytes = ("_steps", "_TURNS", "_BITS", "_sheared")
    assert {name: where.get(name) for name in step_bytes} == dict.fromkeys(step_bytes, {"families"})
    assert "_path_points" not in where
    tables = {name for name in defined(TILINGS) if name.startswith("_") and name.isupper()}
    assert "_UNITS" in tables
    svg, svg_names = from_tilings(SVG)
    assert "_first_cells" in svg_names
    assert svg_names & (tables | {"_black_rows"}) == set()
    assert [node.lineno for node in ast.walk(svg) if isinstance(node, ast.Subscript)
            and getattr(node.value, "id", None) == "P"] == []
    assert "_pairs" not in from_tilings(CLI)[1]
    # one bridge: cli takes no private name from tilings or svg, and the
    # packed entry points it used, which tilings and svg kept beside the
    # public functions, stay gone
    assert [alias.name for node in ast.walk(ast.parse(CLI.read_text(), filename=str(CLI)))
            if isinstance(node, ast.ImportFrom) and node.module in ("tilings", "svg")
            for alias in node.names if alias.name.startswith("_")] == []
    assert defined(TILINGS) & {"_packed", "_aztec"} == set()
    assert defined(SVG) & {"_tiling", "_overlay"} == set()


def test_no_unused_imports():
    # no linter runs on the package, so an import that nothing in its scope
    # reads is caught here; a name listed in a string, as __all__ is built,
    # counts as read
    def own_imports(scope):
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    yield node
            elif not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                todo.extend(ast.iter_child_nodes(node))

    modules = sorted(Path(pc.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef))]:
            read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
            read |= {node.value for node in ast.walk(scope)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)}
            unused += [f"{path.name}:{node.lineno} {alias.name}" for node in own_imports(scope)
                       for alias in node.names
                       if (alias.asname or alias.name).partition(".")[0] not in read]
    assert unused == []


def test_no_unused_module_names():
    # every module-level _name of the package is read somewhere in it other
    # than its own definition, so a helper whose last caller went does not
    # stay behind; a name given in a string, as cli's lazy table names what
    # it serves, counts as read
    modules = sorted(Path(pc.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in modules:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = {top.name}
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = {name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)}
            else:
                names = set()
            names = {name for name in names if name.startswith("_") and not name.endswith("__")}
            defined.update(dict.fromkeys(names, path.stem))
            # reads inside a name's own definition do not count for it
            mentions = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    mentions.add(node.id)
                elif isinstance(node, ast.Attribute):
                    mentions.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    mentions.add(node.value)
            read |= mentions - names
    assert len(defined) >= 30
    assert sorted(f"{module}.{name}" for name, module in defined.items() if name not in read) == []
