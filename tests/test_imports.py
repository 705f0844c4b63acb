"""What importing pathcomb and running each CLI command loads, and the lazy
public surface that keeps those loads small."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import pathcomb
import pathcomb.cli

# pathcomb's exports by defining submodule, in the order the package has
# always listed them
EXPORTED_FROM = {
    "combing": ["CombTrace", "InsufficientVerticalSteps", "ResidualVerticalSteps",
                "clify_step", "comb", "comb_column", "disj_step", "uncomb", "uncomb_column"],
    "delannoy": ["delannoy", "delannoy_matrix", "det_exact", "verify_reduction"],
    "enumeration": ["CapExceeded", "all_bit_triangles", "column_counts",
                    "diagonal_step_count", "enumerate_disjoint", "enumerate_schroder",
                    "intercolumn_counts", "joint_distribution", "row_counts",
                    "verify_bijection"],
    "families": ["BitTriangle", "ExplicitPath", "InvalidFamily", "MalformedPath",
                 "NotDisjoint", "ParseError", "PathFamily", "PreconditionViolation",
                 "Violation", "entry_levels", "explicit_paths", "family_from_bits",
                 "family_from_paths", "is_cliff_shaped", "is_disjoint", "validate_family"],
    "rng": ["SplitMix64", "random_triangle"],
    "tilings": ["Convention", "DominoTiling", "EdgePathFamily", "EdgeSets", "NotATiling",
                "Region", "aztec_region", "convention_paths", "dual_family",
                "family_to_tiling", "paths_to_tiling", "region_edges", "tiling_to_family",
                "tiling_to_paths"],
}
EXPORTS = [name for names in EXPORTED_FROM.values() for name in names]

# the names pathcomb.cli serves from the modules that define them: those it
# bound when it imported every module at its top
CLI_NAMES = {
    "comb": "combing", "comb_column": "combing", "uncomb": "combing",
    "verify_reduction": "delannoy",
    "column_counts": "enumeration", "diagonal_step_count": "enumeration",
    "enumerate_disjoint": "enumeration", "intercolumn_counts": "enumeration",
    "row_counts": "enumeration", "verify_bijection": "enumeration",
    "BitTriangle": "families", "ParseError": "families", "PathFamily": "families",
    "PreconditionViolation": "families", "_fields": "families", "family_from_bits": "families", "_plain_int": "fields",
    "random_triangle": "rng",
    "render_dual": "svg", "render_family": "svg", "render_overlay": "svg",
    "render_tiling": "svg",
    "Convention": "tilings", "DominoTiling": "tilings", "family_to_tiling": "tilings",
    "tiling_to_family": "tilings",
}

BASE = {"pathcomb", "pathcomb.delannoy"}
CLI = BASE | {"pathcomb.cli", "pathcomb.fields"}
FAMILIES = CLI | {"pathcomb.families"}
COMBING = FAMILIES | {"pathcomb.combing"}
ENUMERATION = COMBING | {"pathcomb.enumeration"}
# the tiling layer depends on families alone
TILINGS = FAMILIES | {"pathcomb.tilings"}
SVG = TILINGS | {"pathcomb.svg"}

# (statement or argv, pathcomb modules loaded after it, dataclasses loaded)
LOADS = [
    ("import pathcomb", BASE, False),
    ("import pathcomb.cli", CLI, False),
    (["det", "--n", "5"], CLI, False),
    (["det", "--n", "45"], CLI, False),
    (["sample", "--n", "4", "--seed", "1"], COMBING | {"pathcomb.rng"}, False),
    (["sample", "--n", "4", "--seed", "1", "--svg", "out"], COMBING | SVG | {"pathcomb.rng"},
     False),
    (["comb", "--input", "triangle.txt", "--stages", "stages"], COMBING | SVG, False),
    (["uncomb", "--input", "family.txt", "--output", "out"], COMBING, False),
    (["verify", "--n", "3"], ENUMERATION, False),
    (["enumerate", "--n", "3", "--stat", "rows"], ENUMERATION, False),
    (["tile", "--input", "family.txt", "--direction", "to-tiling", "--output", "out"],
     TILINGS, False),
    (["tile", "--input", "tiling.txt", "--direction", "to-family", "--output", "out"],
     TILINGS, False),
    (["render", "--input", "family.txt", "--style", "paths", "--output", "out"], SVG, False),
    (["render", "--input", "family.txt", "--style", "dual", "--output", "out"], SVG, False),
    (["render", "--input", "tiling.txt", "--style", "tiling", "--output", "out"], SVG, False),
    (["render", "--input", "tiling.txt", "--style", "overlay", "--output", "out"], SVG, False),
]

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pathcomb.__file__)))
PROBE = """\
import json, sys
sys.path.insert(0, {src!r})
{run}
loaded = sorted(m for m in sys.modules if m == "pathcomb" or m.startswith("pathcomb."))
flags = [name in sys.modules for name in ("dataclasses", "inspect", "decimal")]
print(json.dumps([loaded, *flags]))
"""


def probe(code: str, cwd) -> tuple[set[str], bool, bool, bool]:
    """The pathcomb modules a fresh interpreter holds after running code, and
    whether it loaded dataclasses, inspect and decimal."""
    proc = subprocess.run([sys.executable, "-c", PROBE.format(src=SRC, run=code)],
                          capture_output=True, text=True, cwd=cwd, check=True)
    loaded, dataclasses, inspect, decimal = json.loads(proc.stdout.splitlines()[-1])
    return set(loaded), dataclasses, inspect, decimal


@pytest.mark.parametrize("run,modules,dataclasses", LOADS,
                         ids=[r if isinstance(r, str) else " ".join(r) for r, _, _ in LOADS])
def test_each_command_loads_only_its_modules(run, modules, dataclasses, tmp_path):
    f = pathcomb.comb(pathcomb.random_triangle(4, 2))
    (tmp_path / "family.txt").write_text(f.to_text())
    (tmp_path / "triangle.txt").write_text(pathcomb.random_triangle(4, 2).to_text())
    (tmp_path / "tiling.txt").write_text(pathcomb.family_to_tiling(f).to_text())
    if not isinstance(run, str):
        run = f"from pathcomb.cli import main\nassert main({run!r}) == 0"
    # inspect, which dataclasses loads, costs every command several ms, and
    # decimal about 2 ms
    assert probe(run, tmp_path) == (modules, dataclasses, False, False)


def test_det_loads_decimal_past_the_digit_limit(tmp_path):
    # 2^19900 has 5,991 digits, past the 4,300 that str(int) prints by default
    run = "from pathcomb.cli import main\nassert main(['det', '--n', '200']) == 0"
    assert probe(run, tmp_path) == (CLI, False, False, True)


class TestPublicSurface:
    def test_exports(self):
        assert pathcomb.__all__ == EXPORTS

    @pytest.mark.parametrize("module,name", [(module, name)
                                             for module, names in EXPORTED_FROM.items()
                                             for name in names])
    def test_each_export_is_its_submodules_object(self, module, name):
        source = importlib.import_module(f"pathcomb.{module}")
        assert getattr(pathcomb, name) is getattr(source, name)

    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from pathcomb import *", namespace)
        assert set(EXPORTS) <= set(namespace)
        assert all(namespace[name] is getattr(pathcomb, name) for name in EXPORTS)

    def test_dir_lists_every_export(self):
        assert set(EXPORTS) <= set(dir(pathcomb))

    def test_not_disjoint_is_one_class(self):
        from pathcomb import combing, families

        assert pathcomb.NotDisjoint is combing.NotDisjoint is families.NotDisjoint

    def test_delannoy_stays_the_function(self, tmp_path):
        code = ("import pathcomb\nbefore = pathcomb.delannoy\nimport pathcomb.delannoy\n"
                "assert pathcomb.delannoy is before and callable(before)\n"
                "assert pathcomb.delannoy(2, 3) == 25")
        assert probe(code, tmp_path)[0] == BASE
        assert pathcomb.delannoy is sys.modules["pathcomb.delannoy"].delannoy

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'combs'"):
            getattr(pathcomb, "combs")
        with pytest.raises(AttributeError, match="no attribute 'det_exact'"):
            getattr(pathcomb.cli, "det_exact")
        assert not hasattr(pathcomb, "_plain_int")

    def test_lookups_bind_nothing(self):
        def read_all():
            for name in EXPORTS:
                getattr(pathcomb, name)
            for name in [*CLI_NAMES, "STATISTICS"]:
                getattr(pathcomb.cli, name)

        read_all()  # loads every submodule, which binds it in the package
        before = dict(vars(pathcomb)), dict(vars(pathcomb.cli))
        read_all()
        assert (dict(vars(pathcomb)), dict(vars(pathcomb.cli))) == before

    @pytest.mark.parametrize("name", sorted(CLI_NAMES))
    def test_cli_names_read_through(self, name, monkeypatch):
        module = importlib.import_module(f"pathcomb.{CLI_NAMES[name]}")
        assert getattr(pathcomb.cli, name) is getattr(module, name)
        stand_in = object()
        monkeypatch.setattr(module, name, stand_in)
        assert getattr(pathcomb.cli, name) is stand_in

    def test_cli_statistics(self, monkeypatch):
        from pathcomb import enumeration

        stats = pathcomb.cli.STATISTICS
        assert stats == {"columns": enumeration.column_counts,
                         "intercolumns": enumeration.intercolumn_counts,
                         "rows": enumeration.row_counts,
                         "diagonals": enumeration.diagonal_step_count}
        monkeypatch.setattr(enumeration, "row_counts", len)
        assert pathcomb.cli.STATISTICS["rows"] is len
