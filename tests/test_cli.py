from __future__ import annotations

import importlib
import io
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import pathcomb as pc
import pathcomb.cli
import pathcomb.families
import pathcomb.svg
import pathcomb.tilings
import oracles
from conftest import (format_texts, oracle_convention_paths, oracle_dual, oracle_tiling,
                      seeded_tiling_text)
from pathcomb.svg import render_dual, render_family, render_overlay, render_tiling


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "pathcomb", *args],
                          capture_output=True, text=True, **kwargs)


def count_tags(svg_text: str, tag: str) -> int:
    root = ET.fromstring(svg_text)
    return sum(1 for el in root.iter() if el.tag.endswith("}" + tag))


def tri(*rows):
    return pc.BitTriangle.from_rows([(), *rows])


# the package's delannoy function hides the module of that name
DELANNOY = importlib.import_module("pathcomb.delannoy")
ORDER_COMMANDS = ("sample", "det", "enumerate", "verify")
FILE_COMMANDS = ("comb", "uncomb", "tile", "render")
# the one line a colliding family given to tile or render --style dual gives;
# each runs in a fresh interpreter, where only the tiling modules are loaded
NOT_DISJOINT = "error: NotDisjoint: only disjoint families correspond to tilings\n"


class TestSample:
    def test_empty_order(self):
        r = run_cli("sample", "--n", "0", "--seed", "3")
        assert r.returncode == 0
        assert r.stdout == "0\n0\n"

    def test_deterministic(self):
        a = run_cli("sample", "--n", "5", "--seed", "1")
        b = run_cli("sample", "--n", "5", "--seed", "1")
        assert a.returncode == 0 and a.stdout == b.stdout
        c = run_cli("sample", "--n", "5", "--seed", "2")
        assert c.stdout != a.stdout

    def test_output_files(self, tmp_path):
        fam = tmp_path / "f.txt"
        t = tmp_path / "t.txt"
        svg = tmp_path / "f.svg"
        r = run_cli("sample", "--n", "8", "--seed", "9",
                    "--out-family", str(fam), "--out-triangle", str(t),
                    "--svg", str(svg))
        assert r.returncode == 0
        family = pc.PathFamily.from_text(fam.read_text())
        triangle = pc.BitTriangle.from_text(t.read_text())
        assert pc.is_disjoint(family)
        assert pc.comb(triangle) == family
        assert count_tags(svg.read_text(), "path") == 8

    @pytest.mark.parametrize("svg,validations", [(False, 0), (True, 1)])
    def test_validates_only_to_draw(self, svg, validations, tmp_path, monkeypatch, capsys):
        # comb's output is disjoint by the theorem, so sample certifies
        # nothing itself; render_family validates what it draws
        validate = pathcomb.families.validate_family
        seen = []
        monkeypatch.setattr(pathcomb.families, "validate_family",
                            lambda g: seen.append(g) or validate(g))
        argv = ["sample", "--n", "30"] + (["--svg", str(tmp_path / "f.svg")] if svg else [])
        assert pathcomb.cli.main(argv) == 0
        capsys.readouterr()
        assert len(seen) == validations


class TestCombUncomb:
    def test_file_round_trip_byte_identical(self, tmp_path):
        tri_file = tmp_path / "t.txt"
        fam_file = tmp_path / "f.txt"
        back_file = tmp_path / "back.txt"
        tri_file.write_text(pc.random_triangle(7, 42).to_text())
        assert run_cli("comb", "--input", str(tri_file),
                       "--output", str(fam_file)).returncode == 0
        assert run_cli("uncomb", "--input", str(fam_file),
                       "--output", str(back_file)).returncode == 0
        assert back_file.read_bytes() == tri_file.read_bytes()

    def test_uncomb_rejects_intersecting(self, tmp_path):
        fam_file = tmp_path / "f.txt"
        fam_file.write_text(pc.family_from_bits(tri([0], [1, 0])).to_text())
        r = run_cli("uncomb", "--input", str(fam_file))
        assert r.returncode == 1
        assert r.stderr.startswith("error: NotDisjoint: ")
        assert r.stderr.count("\n") == 1

    def test_uncomb_rejects_invalid(self, tmp_path):
        fam_file = tmp_path / "f.txt"
        fam_file.write_text("3\nB: | D: 0\nB: 0 | D: 0 1\nB: 0 0 | D: 0 -1 3\n")
        r = run_cli("uncomb", "--input", str(fam_file))
        assert r.returncode == 1
        assert r.stderr.startswith("error: InvalidFamily: ")

    def test_comb_stages(self, tmp_path):
        tri_file = tmp_path / "t.txt"
        tri_file.write_text(pc.random_triangle(4, 0).to_text())
        stages = tmp_path / "stages"
        r = run_cli("comb", "--input", str(tri_file), "--stages", str(stages),
                    "--output", str(tmp_path / "f.txt"))
        assert r.returncode == 0
        assert sorted(p.name for p in stages.iterdir()) == [
            "stage-000.svg", "stage-001.svg", "stage-002.svg", "stage-003.svg"]

    def test_parse_error_reported(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n0\n1 oops\n")
        r = run_cli("comb", "--input", str(bad))
        assert r.returncode == 1
        assert "ParseError" in r.stderr


class TestDetVerifyEnumerate:
    def test_det(self):
        r = run_cli("det", "--n", "6")
        assert r.returncode == 0
        assert r.stdout.strip() == "32768 = 2^15"

    @pytest.mark.parametrize("n", [*range(13), 45])
    def test_det_prints_the_certified_power(self, n, capsys):
        e = n * (n - 1) // 2
        assert pathcomb.cli.main(["det", "--n", str(n)]) == 0
        assert capsys.readouterr() == (f"{2 ** e} = 2^{e}\n", "")

    @pytest.mark.parametrize("n", [170, 200])
    def test_det_past_the_digit_limit(self, n, capsys):
        # 2^e has more than the 4,300 digits str(int) prints by default
        e = n * (n - 1) // 2
        assert pathcomb.cli.main(["det", "--n", str(n)]) == 0
        out, err = capsys.readouterr()
        value, _, rest = out.partition(" = ")
        assert (rest, err) == (f"2^{e}\n", "")
        assert value.isdigit() and value[0] != "0" and Decimal(value) == 2 ** e

    def test_det_prints_every_digit_of_the_power(self, capsys):
        # the decimal power against the int conversion it replaced
        for n in range(201):
            e = n * (n - 1) // 2
            assert pathcomb.cli.main(["det", "--n", str(n)]) == 0
            assert capsys.readouterr() == (f"{Decimal(1 << e)} = 2^{e}\n", "")

    @pytest.mark.parametrize("raised,line", [
        (MemoryError(), "error: MemoryError: out of memory\n"),
        (MemoryError("cannot allocate the table"), "error: MemoryError: cannot allocate the table\n"),
    ], ids=["bare", "message"])
    def test_memory_error_is_one_line(self, raised, line, monkeypatch, capsys):
        # a failed allocation stands in for an order too large to hold: the
        # patched certificate raises at once and allocates nothing
        def exhausted(n):
            raise raised

        monkeypatch.setattr(DELANNOY, "verify_reduction", exhausted)
        assert pathcomb.cli.main(["det", "--n", "3000"]) == 1
        assert capsys.readouterr() == ("", line)

    def test_det_certifies_once(self, monkeypatch, capsys):
        # the reduction certificate is the one derivation: no Bareiss run, no
        # built matrix and one pass over the table's rows, wherever any of
        # them is reached from
        calls = Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for name in ("det_exact", "delannoy_matrix"):
            counted = counting(name, getattr(DELANNOY, name))
            for module in (DELANNOY, pathcomb.cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        table = DELANNOY._table

        def rows(n):
            calls["_table"] += 1
            for row in table(n):
                calls["rows"] += 1
                yield row

        monkeypatch.setattr(DELANNOY, "_table", rows)
        assert pathcomb.cli.main(["det", "--n", "8"]) == 0
        assert capsys.readouterr().out == "268435456 = 2^28\n"
        assert (calls["det_exact"], calls["delannoy_matrix"], calls["_table"], calls["rows"]) == (
            0, 0, 1, 8)

    def test_det_fails_on_a_bad_table(self, monkeypatch, capsys):
        table = DELANNOY._table

        def bad(n):
            rows = [list(row) for row in table(n)]
            rows[-1][-1] += 1
            return tuple(map(tuple, rows))

        monkeypatch.setattr(DELANNOY, "_table", bad)
        assert pathcomb.cli.main(["det", "--n", "8"]) == 1
        assert capsys.readouterr() == ("", "unitriangular reduction identity failed\n")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this interpreter has no int digit limit")
    @pytest.mark.parametrize("n", [60, 80])
    def test_det_under_a_lower_digit_limit(self, n, capsys):
        # 2^1770 has 533 digits, within a limit of 640; 2^3160 has 952
        e = n * (n - 1) // 2
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert pathcomb.cli.main(["det", "--n", str(n)]) == 0
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr() == (f"{Decimal(1 << e)} = 2^{e}\n", "")

    def test_verify(self):
        r = run_cli("verify", "--n", "4")
        assert r.returncode == 0
        assert "64/64" in r.stdout
        assert "PASS" in r.stdout

    def test_enumerate(self):
        r = run_cli("enumerate", "--n", "3")
        assert r.returncode == 0
        assert "8 disjoint families of order 3" in r.stdout

    def test_enumerate_histogram_sorted(self):
        r = run_cli("enumerate", "--n", "4", "--stat", "diagonals")
        assert r.returncode == 0
        rows = [line for line in r.stdout.splitlines() if " : " in line]
        assert [int(x.split(" : ")[1]) for x in rows] == [1, 6, 15, 20, 15, 6, 1]

    def test_enumerate_cap(self):
        r = run_cli("enumerate", "--n", "7")
        assert r.returncode == 1
        assert "CapExceeded" in r.stderr

    @pytest.mark.parametrize("argv", [["enumerate", "--n", "13", "--cap", "13"],
                                      ["verify", "--n", "7", "--cap", "7"]])
    def test_orders_above_six_exit_with_one_error_line(self, argv, no_enumeration, capsys):
        assert pathcomb.cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: CapExceeded: order {argv[2]} exceeds 6, the largest order enumerated\n")

    @pytest.mark.parametrize("command", ORDER_COMMANDS)
    def test_negative_order_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            pathcomb.cli.main([command, "--n", "-1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: pathcomb {command} ")
        assert err.endswith("error: argument --n: order must be nonnegative, got -1\n")


    @pytest.mark.parametrize("argv,message", [
        (["det", "--n", "1_0"], "argument --n: invalid order value: '1_0'"),
        (["det", "--n", "\u0663"], "argument --n: invalid order value: '\u0663'"),
        (["det", "--n", "+3"], "argument --n: invalid order value: '+3'"),
        (["sample", "--n", "2", "--seed", "\uff11"],
         "argument --seed: invalid int value: '\uff11'"),
        (["enumerate", "--n", "2", "--cap", "+1"], "argument --cap: invalid int value: '+1'"),
        (["verify", "--n", "2", "--cap", "1_0"], "argument --cap: invalid int value: '1_0'"),
        (["render", "--input", "t.txt", "--convention", "+1"],
         "argument --convention: invalid int value: '+1'"),
        (["render", "--input", "t.txt", "--convention", "\u0661"],
         "argument --convention: invalid int value: '\u0661'"),
        (["render", "--input", "t.txt", "--convention", " 1"],
         "argument --convention: invalid int value: ' 1'"),
    ])
    def test_integer_options_take_plain_integers(self, argv, message, capsys):
        # the tokens of the file formats' integer fields, and no others
        with pytest.raises(SystemExit) as exc:
            pathcomb.cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: pathcomb {argv[0]} ")
        assert err.endswith(f"pathcomb {argv[0]}: error: {message}\n")

    def test_plain_integers_still_parse(self, capsys):
        assert pathcomb.cli.main(["det", "--n", "007"]) == 0
        assert capsys.readouterr().out == "2097152 = 2^21\n"
        assert pathcomb.cli.main(["sample", "--n", "4", "--seed", "-5"]) == 0
        t = pc.random_triangle(4, -5)
        assert capsys.readouterr().out == t.to_text() + pc.comb(t).to_text()


class TestTile:
    def test_round_trip(self, tmp_path):
        fam_file = tmp_path / "f.txt"
        til_file = tmp_path / "t.txt"
        back_file = tmp_path / "b.txt"
        fam_file.write_text(pc.comb(pc.random_triangle(5, 11)).to_text())
        assert run_cli("tile", "--input", str(fam_file), "--direction", "to-tiling",
                       "--output", str(til_file)).returncode == 0
        assert run_cli("tile", "--input", str(til_file), "--direction", "to-family",
                       "--output", str(back_file)).returncode == 0
        assert back_file.read_bytes() == fam_file.read_bytes()

    def test_rejects_intersecting(self, tmp_path):
        fam_file = tmp_path / "f.txt"
        fam_file.write_text(pc.family_from_bits(tri([0], [1, 0])).to_text())
        r = run_cli("tile", "--input", str(fam_file), "--direction", "to-tiling")
        assert r.returncode == 1
        assert r.stderr == NOT_DISJOINT

    def test_repeated_domino_is_a_parse_error(self, tmp_path):
        til_file = tmp_path / "t.txt"
        # a complete order-1 tiling, then its first domino again, reversed
        til_file.write_text("1 -1 1 0\n2 -1 2 0\n1 0 1 -1\n")
        r = run_cli("tile", "--input", str(til_file), "--direction", "to-family")
        assert r.returncode == 1
        assert r.stderr == "error: ParseError: domino repeats line 1 (line 3)\n"


class TestRender:
    def test_empty_family(self):
        doc = render_family(pc.PathFamily((), ()))
        root = ET.fromstring(doc)
        groups = [el for el in root.iter() if el.tag.endswith("}g")]
        assert len(groups) == 1 and len(list(groups[0])) == 0

    def test_family_path_count(self):
        doc = render_family(pc.comb(tri([0], [1, 0])))
        assert count_tags(doc, "path") == 3

    def test_overlay_counts(self):
        # an order-2 diamond has 12 cells, so 6 dominoes, and carries 3 paths
        t = sorted(oracles.enumerate_tilings(pc.aztec_region(2)),
                   key=lambda x: x.to_text())[0]
        doc = render_overlay(t)
        assert count_tags(doc, "rect") == len(t.dominoes) == 6
        assert count_tags(doc, "path") == 3

    def test_tiling_rect_count(self):
        t = next(iter(oracles.enumerate_tilings(pc.aztec_region(1))))
        assert count_tags(render_tiling(t), "rect") == 2

    def test_dual_path_count(self):
        f = pc.comb(tri([0], [1, 0]))
        assert count_tags(render_dual(f), "path") == 6

    @staticmethod
    def drawn_points(doc):
        # the (x, y) vertices of each <path>; a one-point path ends "l 0 0"
        out = []
        for el in ET.fromstring(doc).iter():
            if el.tag.endswith("}path"):
                fields = el.get("d").split()
                nums = [float(x) for x in fields if x not in ("M", "L", "l")]
                pts = list(zip(nums[::2], nums[1::2]))
                out.append(pts[:-1] if "l" in fields else pts)
        return out

    def test_paths_follow_explicit_paths(self, schroder_by_n, disjoint_by_n):
        # the renderers walk (B, D) themselves; the explicit paths are the oracle
        S = pathcomb.svg.SCALE
        at = lambda v, c: (S * c, -S * v)

        def want(f, xy):
            return [[xy(v, c) for v, c in p.points()] for p in pc.explicit_paths(f)]

        for n in range(5):
            # the dual point (k, l) is drawn at (n - 1/2 - k, n - 1/2 - l)
            turned = lambda v, c: at(n - 0.5 - v, n - 0.5 - c)
            for f in schroder_by_n[n]:
                assert self.drawn_points(render_family(f)) == want(f, at)
            for f in disjoint_by_n[n]:
                g = pc.dual_family(f)
                assert self.drawn_points(render_dual(f)) == want(f, at) + want(g, turned)

    @staticmethod
    def view_box(doc):
        return [float(v) for v in ET.fromstring(doc).get("viewBox").split()]

    @staticmethod
    def boxed(points):
        # the viewBox of a drawing whose extreme points are given, as
        # _Canvas.document writes it
        xs, ys = [x for x, _ in points], [y for _, y in points]
        M = pathcomb.svg.MARGIN
        return [min(xs) - M, min(ys) - M, max(xs) - min(xs) + 2 * M, max(ys) - min(ys) + 2 * M]

    @staticmethod
    def drawn_rects(doc):
        return sorted((float(el.get("x")), float(el.get("y")), float(el.get("width")),
                       float(el.get("height")), el.get("fill"))
                      for el in ET.fromstring(doc).iter() if el.tag.endswith("}rect"))

    @pytest.mark.parametrize("n,seed", [(8, 3), (17, 5), (40, 7)])
    def test_large_orders_follow_the_oracles(self, n, seed):
        # the renderers draw chains of cell codes of the packed tiling; the
        # oracles walk explicit paths and the general-region API, and the
        # viewBox is the box of the oracles' points, rects and grid
        S = pathcomb.svg.SCALE
        at = lambda v, c: (S * c, -S * v)
        f = pc.comb(pc.random_triangle(n, seed))
        t = pc.DominoTiling.from_text(oracle_tiling(f).to_text())
        rects = sorted(
            (S * b, -S * max(a, c) - S, S * (1 + d - b), S * (1 + c - a),
             pathcomb.svg.DOMINO_FILL["h" if a == c else "v", (a - b) % 2])
            for (a, b), (c, d) in t.dominoes)
        corners = [xy for x, y, w, h, _ in rects for xy in ((x, y), (x + w, y + h))]
        for conv in pc.Convention:
            doc = render_overlay(t, conv)
            want = [[at(v, c) for v, c in path] for path in oracle_convention_paths(t, conv)]
            assert self.drawn_points(doc) == want
            assert self.drawn_rects(doc) == rects
            assert self.view_box(doc) == self.boxed(corners + [p for path in want for p in path])
        turned = lambda v, c: at(n - 0.5 - v, n - 0.5 - c)
        want = ([[at(v, c) for v, c in p.points()] for p in pc.explicit_paths(f)]
                + [[turned(v, c) for v, c in p.points()] for p in pc.explicit_paths(oracle_dual(f))])
        doc = render_dual(f)
        assert self.drawn_points(doc) == want
        grid = [at(0, 0), at(n - 1, n - 1)]
        assert self.view_box(doc) == self.boxed(grid + [p for path in want for p in path])

    @pytest.mark.parametrize("render", [render_family, render_dual])
    def test_validates_once(self, render, monkeypatch):
        # the order-65 family of the golden tests; render_dual's one
        # certificate is the walk inside tilings._partners
        f = pc.comb(pc.random_triangle(65, 5))
        validate = pathcomb.families.validate_family
        seen = []
        monkeypatch.setattr(pathcomb.families, "validate_family",
                            lambda g: seen.append(g) or validate(g))
        render(f)
        assert seen == [f]

    @pytest.mark.parametrize("render", [render_family, render_dual])
    def test_invalid_empty_family(self, render):
        with pytest.raises(pc.InvalidFamily):
            render(pc.PathFamily((), ((0,),)))

    def test_cli_render_family(self, tmp_path):
        fam_file = tmp_path / "f.txt"
        out = tmp_path / "f.svg"
        fam_file.write_text(pc.comb(tri([0], [1, 0])).to_text())
        r = run_cli("render", "--input", str(fam_file), "--style", "paths",
                    "--output", str(out))
        assert r.returncode == 0
        assert count_tags(out.read_text(), "path") == 3

    def test_cli_render_overlay_conventions(self, tmp_path):
        fam_file = tmp_path / "f.txt"
        til_file = tmp_path / "t.txt"
        fam_file.write_text(pc.comb(pc.random_triangle(3, 2)).to_text())
        run_cli("tile", "--input", str(fam_file), "--direction", "to-tiling",
                "--output", str(til_file))
        for conv in range(4):
            out = tmp_path / f"o{conv}.svg"
            r = run_cli("render", "--input", str(til_file), "--style", "overlay",
                        "--convention", str(conv), "--output", str(out))
            assert r.returncode == 0
            assert count_tags(out.read_text(), "path") == 3

    def test_cli_render_dual(self, tmp_path):
        fam_file = tmp_path / "f.txt"
        fam_file.write_text(pc.comb(pc.random_triangle(4, 3)).to_text())
        r = run_cli("render", "--input", str(fam_file), "--style", "dual")
        assert r.returncode == 0
        assert count_tags(r.stdout, "path") == 8

    def test_cli_render_dual_rejects_intersecting(self, tmp_path):
        fam_file = tmp_path / "f.txt"
        fam_file.write_text(pc.family_from_bits(tri([0], [1, 0])).to_text())
        r = run_cli("render", "--input", str(fam_file), "--style", "dual")
        assert r.returncode == 1
        assert r.stderr == NOT_DISJOINT
        assert r.stdout == ""

    def test_cli_render_tiling_rejects_non_tiling(self, tmp_path):
        til_file = tmp_path / "t.txt"
        # a non-adjacent pair, and cell (0, 0) covered twice
        til_file.write_text("0 0 5 5\n0 0 0 1\n")
        r = run_cli("render", "--input", str(til_file), "--style", "tiling")
        assert r.returncode == 1
        assert r.stderr.startswith("error: NotATiling: ")
        assert r.stdout == ""

    def test_cli_render_tiling_beyond_float_range(self, tmp_path):
        # an adjacent pair whose columns no float holds: main reports the
        # OverflowError of the drawing like a ValueError
        til_file = tmp_path / "t.txt"
        til_file.write_text(f"0 {10 ** 400} 0 {10 ** 400 + 1}\n")
        r = run_cli("render", "--input", str(til_file), "--style", "tiling")
        assert r.returncode == 1
        assert r.stderr == "error: OverflowError: int too large to convert to float\n"
        assert r.stdout == ""

    def test_style_kind_mismatch(self, tmp_path):
        fam_file = tmp_path / "f.txt"
        fam_file.write_text(pc.comb(tri([1], [1, 1])).to_text())
        r = run_cli("render", "--input", str(fam_file), "--style", "tiling")
        assert r.returncode == 1

    def test_usage_error_exit_code(self):
        r = run_cli("render", "--style", "nonsense")
        assert r.returncode == 2


def library_line(call) -> str | None:
    """The error line main prints for what call raises, or None when it
    returns."""
    try:
        call()
    except (ValueError, OverflowError) as exc:
        return f"error: {type(exc).__name__}: {exc}\n"
    return None


def run_main(argv) -> tuple[int, str]:
    """main's exit code and standard error; standard output is dropped."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = pathcomb.cli.main(argv)
    return code, err.getvalue()


def faulty_copies(text: str) -> dict[str, tuple[str, str]]:
    """One copy of a tiling file per fault, each with a part of the error
    line the library path gives for it."""
    lines = text.splitlines()
    cells = pc.DominoTiling.from_text(text).cells()

    def neighbours(line):
        a, b, c, d = map(int, line.split())
        return [nb for nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)) if nb != (c, d)]

    # a line past the first, which tells render the kind of file, whose
    # first cell lies on the boundary: it has neighbours inside and outside
    k = next(k for k in range(1, len(lines)) if not cells.issuperset(neighbours(lines[k])))
    a, b, c, d = map(int, lines[k].split())
    inside = next(nb for nb in neighbours(lines[k]) if nb in cells)
    outside = next(nb for nb in neighbours(lines[k]) if nb not in cells)

    def with_line(line):
        return "\n".join(lines[:k] + [line] + lines[k + 1:]) + "\n"

    return {
        "non-adjacent": (with_line(f"{a} {b} {c + 2} {d + 2}"), "are not adjacent"),
        # the partner of (a, b) left uncovered, a cell outside covered instead
        "outside": (with_line(f"{a} {b} {outside[0]} {outside[1]}"),
                    f"cell {outside} lies outside the order-20 diamond"),
        "covered twice": (with_line(f"{a} {b} {inside[0]} {inside[1]}"), "covered twice"),
        "repeated line": (text + lines[k] + "\n", f"domino repeats line {k + 1}"),
        "reversed repeat": (text + f"{c} {d} {a} {b}\n", f"domino repeats line {k + 1}"),
        "non-Aztec count": ("\n".join(lines[:k] + lines[k + 1:]) + "\n",
                            "838 cells is not an Aztec diamond cell count"),
        "three fields": (with_line(f"{a} {b} {c}"), "tiling line must hold four integers"),
        "plus sign": (with_line(f"+{a} {b} {c} {d}"), "non-integer cell coordinate"),
        # a field past the last "\n": the line count stays that of the diamond
        "field after the last line": (text + "5", "tiling line must hold four integers"),
    }


def aliased_copies(text: str) -> dict[str, tuple[str, str]]:
    """One copy of a tiling file of the order-20 diamond per fault that a
    reader forming the codes s*W + u + m + 1, W = 2m + 2 = 42, before its
    range check would miss or crash on: cells whose codes are those of
    cells inside, codes past either end of P, cells in the margin, and two
    margin cells whose codes differ by 1.  Each comes with the error line
    of the domino-by-domino check."""
    lines = text.splitlines()
    m, W = 20, 42
    k = len(lines) // 2
    a, b, c, d = map(int, lines[k].split())

    def with_line(*cells):
        return "\n".join(lines[:k] + [" ".join(map(str, cells))] + lines[k + 1:]) + "\n"

    def outside(cell):
        return f"error: NotATiling: cell {cell} lies outside the order-{m} diamond\n"

    return {
        # one row down and W columns right: the same codes as line k's cells
        "column alias": (with_line(a - 1, b + W, c - 1, d + W), outside((a - 1, b + W))),
        "row wrap below": (with_line(a - W, b, c - W, d), outside((a - W, b))),
        "row wrap above": (with_line(a + W, b, c + W, d), outside((a + W, b))),
        "row 0": (with_line(0, b, c - a, d), outside((0, b))),
        "row 2m+1": (with_line(2 * m + 1, b, 2 * m + 1 + c - a, d), outside((2 * m + 1, b))),
        # the last slot of row a and the first of row a + 1, codes one apart
        "margin pair": (with_line(a, m, a + 1, -m - 1),
                        f"error: NotATiling: cells {(a, m)} and {(a + 1, -m - 1)} "
                        f"are not adjacent\n"),
    }


class TestPackedTilingReader:
    """tile and render --style overlay read a tiling file straight into the
    packed tiling; a file that fails there is read again by the library
    path, so the exit code and error line are the library's."""

    def check_parity(self, text: str, path: str, conventions=range(4)) -> list[str | None]:
        """Run tile --direction to-family and render --style overlay on the
        file at path, whose text is text, against the library path; return
        the library's error lines."""
        out = path + ".out"
        runs = [(["tile", "--input", path, "--direction", "to-family", "--output", out],
                 lambda: pc.tiling_to_family(pc.DominoTiling.from_text(text)).to_text())]
        runs += [(["render", "--input", path, "--style", "overlay", "--convention", str(conv),
                   "--output", out],
                  lambda conv=conv: render_overlay(pc.DominoTiling.from_text(text),
                                                   pc.Convention(conv)))
                 for conv in conventions]
        return self.parity(runs, out)

    @staticmethod
    def parity(runs, out: str) -> list[str | None]:
        """Run main on each argv of runs, which writes to out, against its
        library call: the same file on success, else the same error line.
        Return the library's error lines."""
        wants = []
        for argv, library in runs:
            want = library_line(library)
            if want is None:
                assert run_main(argv) == (0, "")
                with open(out) as fh:
                    assert fh.read() == library()
            else:
                assert run_main(argv) == (1, want)
            wants.append(want)
        return wants

    @pytest.mark.parametrize("fault", list(faulty_copies(seeded_tiling_text(21, 19))))
    def test_each_fault_gives_the_library_error(self, fault, tmp_path):
        text, part = faulty_copies(seeded_tiling_text(21, 19))[fault]
        path = tmp_path / "t.txt"
        path.write_text(text)
        wants = self.check_parity(text, str(path))
        assert len(wants) == 5 and all(want is not None and part in want for want in wants)

    @pytest.mark.parametrize("fault", list(aliased_copies(seeded_tiling_text(21, 19))))
    def test_each_aliasing_fault_names_its_cell(self, fault, tmp_path):
        text, line = aliased_copies(seeded_tiling_text(21, 19))[fault]
        assert library_line(lambda: pc.DominoTiling.from_text(text).to_text()) is None
        path = tmp_path / "t.txt"
        path.write_text(text)
        assert self.check_parity(text, str(path)) == [line] * 5

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(format_texts("tiling"), st.integers(0, 3))
    def test_any_text_gives_the_library_outcome(self, text, conv):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.txt")
            with open(path, "w") as fh:
                fh.write(text)
            with open(path) as fh:
                text = fh.read()  # as the commands read it, line ends translated
            try:
                kind = pathcomb.cli._detect_kind(text)
            except pc.ParseError:
                kind = None
            # render checks the kind of file before it reads a tiling
            self.check_parity(text, path, [conv] if kind == "tiling" else [])
            if kind == "tiling":
                self.check_render_tiling(text, path)

    def check_render_tiling(self, text: str, path: str) -> str | None:
        """Run render --style tiling on the file at path, whose text is
        text, against render_tiling of the library reader; return the
        library's error line."""
        out = path + ".svg"
        return self.parity([(["render", "--input", path, "--style", "tiling", "--output", out],
                             lambda: render_tiling(pc.DominoTiling.from_text(text)))], out)[0]

    @pytest.mark.parametrize("fault", list(faulty_copies(seeded_tiling_text(21, 19))))
    def test_render_tiling_of_each_fault(self, fault, tmp_path):
        # render_tiling takes a tiling of any region, so only the faults of
        # the file itself, not the diamond's, are errors there
        text, part = faulty_copies(seeded_tiling_text(21, 19))[fault]
        path = tmp_path / "t.txt"
        path.write_text(text)
        want = self.check_render_tiling(text, str(path))
        assert (want is None) == (fault in ("outside", "non-Aztec count"))
        assert want is None or part in want

    def test_render_tiling_matches_the_library_byte_for_byte(self, tmp_path):
        texts = [pc.family_to_tiling(f).to_text()
                 for n in range(1, 6) for f in pc.enumerate_disjoint(n)]
        # the order-0 diamond is the empty file
        assert len(texts) == 1 + 2 + 8 + 64 + 1024 and texts[0] == ""
        texts += [pc.family_to_tiling(pc.comb(pc.random_triangle(n, seed))).to_text()
                  for n, seed in ((65, 5), (201, 21))]
        # a tiling of no Aztec diamond, which the library reader draws
        texts.append("-1 0 -1 1\n-2 0 -2 1\n0 -1 1 -1\n-1 2 -2 2\n")
        path = tmp_path / "t.txt"
        for text in texts:
            path.write_text(text)
            assert self.check_render_tiling(text, str(path)) is None

    def test_well_formed_files_build_no_domino_tiling(self, tmp_path, monkeypatch):
        # a well-formed file of an Aztec diamond is read into a tiling that
        # holds its packed form: no frozenset of dominoes is built, neither
        # by the library reader nor by DominoTiling nor by a decode of it
        text = seeded_tiling_text(21, 19)
        family = tmp_path / "f.txt"
        family.write_text(pc.tiling_to_family(pc.DominoTiling.from_text(text)).to_text())
        path = tmp_path / "t.txt"
        path.write_text(text)

        def refuse(what):
            def refused(*args):
                raise AssertionError(what)
            return refused

        monkeypatch.setattr(pathcomb.tilings, "frozenset", refuse("a frozenset was built"),
                            raising=False)
        monkeypatch.setattr(pc.DominoTiling, "__init__", refuse("a frozenset was built"))
        monkeypatch.setattr(pathcomb.tilings, "_records", refuse("the library reader ran"))
        out = str(tmp_path / "out")
        assert run_main(["tile", "--input", str(family), "--direction", "to-tiling",
                         "--output", out]) == (0, "")
        assert run_main(["tile", "--input", str(path), "--direction", "to-family",
                         "--output", out]) == (0, "")
        for conv in range(4):
            assert run_main(["render", "--input", str(path), "--style", "overlay",
                             "--convention", str(conv), "--output", out]) == (0, "")
        assert run_main(["render", "--input", str(path), "--style", "tiling",
                         "--output", out]) == (0, "")
        # a faulty file still reaches the library reader
        path.write_text(text + text.splitlines()[0] + "\n")
        for argv in (["tile", "--input", str(path), "--direction", "to-family"],
                     ["render", "--input", str(path), "--style", "overlay"],
                     ["render", "--input", str(path), "--style", "tiling"]):
            with pytest.raises(AssertionError, match="the library reader ran"):
                run_main(argv)

    @pytest.mark.parametrize("n,seed", [(65, 5), (200, 21)])
    def test_seeded_orders_match_the_library_byte_for_byte(self, n, seed, tmp_path):
        f = pc.comb(pc.random_triangle(n, seed))
        t = pc.family_to_tiling(f)
        family, tiling, back = (str(tmp_path / name) for name in ("f.txt", "t.txt", "b.txt"))
        with open(family, "w") as fh:
            fh.write(f.to_text())
        assert run_main(["tile", "--input", family, "--direction", "to-tiling",
                         "--output", tiling]) == (0, "")
        # family_to_tiling decodes P as the command does; the oracle does not
        with open(tiling) as fh:
            assert fh.read() == t.to_text() == oracle_tiling(f).to_text()
        assert run_main(["tile", "--input", tiling, "--direction", "to-family",
                         "--output", back]) == (0, "")
        with open(back) as fh:
            assert fh.read() == f.to_text()
        for conv in pc.Convention:
            assert run_main(["render", "--input", tiling, "--style", "overlay",
                             "--convention", str(int(conv)), "--output", back]) == (0, "")
            with open(back) as fh:
                assert fh.read() == render_overlay(t, conv)


LATER_FAULTS = [(copies, fault) for copies in (faulty_copies, aliased_copies)
                for fault in copies(seeded_tiling_text(21, 19))]


@pytest.mark.parametrize("copies, fault", LATER_FAULTS,
                         ids=[f"{copies.__name__}-{fault}" for copies, fault in LATER_FAULTS])
def test_a_fault_past_the_first_block_gives_the_library_error(copies, fault, tmp_path,
                                                              monkeypatch):
    # the canonical reader in blocks of one line, so that the fault lies in
    # a later block than the first: tile and render --style overlay give
    # the error line of the reader that goes domino by domino
    text, _ = copies(seeded_tiling_text(21, 19))[fault]
    fault_at = len(os.path.commonprefix([text, seeded_tiling_text(21, 19)]))
    assert fault_at > text.index("\n")
    with monkeypatch.context() as patch:
        patch.setattr(pathcomb.tilings, "_canonical", lambda _: None)
        want = library_line(lambda: pc.tiling_to_family(pc.DominoTiling.from_text(text)))
    assert want is not None
    monkeypatch.setattr(pathcomb.tilings, "_BLOCK", 1)
    path = tmp_path / "t.txt"
    path.write_text(text)
    out = str(tmp_path / "out")
    assert run_main(["tile", "--input", str(path), "--direction", "to-family",
                     "--output", out]) == (1, want)
    assert run_main(["render", "--input", str(path), "--style", "overlay",
                     "--output", out]) == (1, want)


@st.composite
def cli_runs(draw):
    """An argv for main, with DIR standing for a temporary directory, and the
    text of DIR/input.txt (None: the file is missing).  verify and enumerate
    sometimes get a --cap from [-3, 9].  Orders stay at most 6, and at most 5
    whenever a cap is drawn, so no run enumerates past order 5 (the default
    cap refuses order 6)."""
    command = draw(st.sampled_from(ORDER_COMMANDS + FILE_COMMANDS))
    argv, text = [command], None
    if command in ORDER_COMMANDS:
        cap = None
        if command in ("enumerate", "verify"):
            cap = draw(st.none() | st.integers(-3, 9))
        argv += ["--n", str(draw(st.integers(-3, 6 if cap is None else 5)))]
        if cap is not None:
            argv += ["--cap", str(cap)]
    else:
        argv += ["--input", "DIR/input.txt"]
        if draw(st.booleans()):
            argv += ["--output", "DIR/out"]
    reads = None  # the kind of file the command reads
    if command == "sample":
        argv += ["--seed", str(draw(st.integers(0, 9)))]
        for flag in sorted(draw(st.sets(st.sampled_from(
                ("--out-family", "--out-triangle", "--svg"))))):
            argv += [flag, "DIR/" + flag[2:]]
    elif command == "comb":
        reads = "triangle"
        if draw(st.booleans()):
            argv += ["--stages", "DIR/stages"]
    elif command == "uncomb":
        reads = "family"
    elif command == "enumerate" and draw(st.booleans()):
        argv += ["--stat", draw(st.sampled_from(sorted(pathcomb.cli.STATISTICS)))]
    elif command == "tile":
        direction = draw(st.sampled_from(("to-tiling", "to-family")))
        argv += ["--direction", direction]
        reads = "family" if direction == "to-tiling" else "tiling"
    elif command == "render":
        style = draw(st.sampled_from(("paths", "tiling", "overlay", "dual")))
        argv += ["--style", style, "--convention", str(draw(st.integers(0, 3)))]
        reads = "family" if style in ("paths", "dual") else "tiling"
    if reads:
        kind = st.sampled_from((reads, "triangle", "family", "region", "tiling"))
        text = draw(st.none() | kind.flatmap(format_texts))
    return argv, text


class TestMainContract:
    def test_parser_built_once(self, monkeypatch, capsys):
        build, built = pathcomb.cli.build_parser, []

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(pathcomb.cli, "build_parser", counted)
        pathcomb.cli._parser.cache_clear()
        for n in (3, 4):
            assert pathcomb.cli.main(["det", "--n", str(n)]) == 0
        assert len(built) == 1
        with pytest.raises(SystemExit):
            pathcomb.cli.main(["--help"])
        assert capsys.readouterr().out.endswith(build().format_help())
        assert len(built) == 1

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(cli_runs())
    def test_exit_status_and_error_line(self, run):
        argv, text = run
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as d:
            if text is not None:
                with open(os.path.join(d, "input.txt"), "w") as fh:
                    fh.write(text)
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = pathcomb.cli.main([a.replace("DIR", d) for a in argv])
                except SystemExit as exc:
                    code = exc.code
        if code == 2:
            assert argv[0] in ORDER_COMMANDS and int(argv[2]) < 0
            assert err.getvalue().startswith("usage: ")
        elif code == 1:
            assert re.fullmatch(r"error: \w+: [^\n]+\n", err.getvalue())
        else:
            assert code == 0 and err.getvalue() == ""
