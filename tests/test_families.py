from __future__ import annotations

import re

import pytest
from hypothesis import given

import pathcomb as pc
from pathcomb.families import D_STEP, H_STEP, V_STEP, _passes
from pathcomb.svg import render_dual, render_family

import oracles
from conftest import bit_triangles, path_families


def tri(*rows):
    return pc.BitTriangle.from_rows([(), *rows])


class TestBitTriangle:
    def test_empty(self):
        t = pc.BitTriangle(())
        assert t.n == 0

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            pc.BitTriangle(((0,),))
        with pytest.raises(ValueError):
            pc.BitTriangle.from_rows([[], [2]])

    @pytest.mark.parametrize("bit", [True, False, 1.0, 0.0, 2, -1, "1", None])
    def test_bits_are_exactly_int_0_or_1(self, bit):
        # True and 1.0 equal 1, but to_text would write them as True and 1.0
        with pytest.raises(ValueError,
                           match=re.escape(f"triangle entries must be bits, got {bit!r} in row 2")):
            pc.BitTriangle(((), (0,), (1, bit)))

    def test_from_rows_converts_to_int(self):
        t = pc.BitTriangle.from_rows([(), (True,), (1.0, 0)])
        assert t.bits == ((), (1,), (1, 0))
        assert {type(b) for row in t.bits for b in row} == {int}
        assert pc.comb(t).to_text() == pc.comb(tri([1], [1, 0])).to_text()

    def test_text_round_trip_examples(self):
        t = tri([0], [1, 0])
        assert t.to_text() == "3\n0\n1 0\n"
        assert pc.BitTriangle.from_text(t.to_text()) == t
        assert pc.BitTriangle.from_text("0\n") == pc.BitTriangle(())
        assert pc.BitTriangle.from_text("1\n").n == 1

    def test_parse_errors(self):
        with pytest.raises(pc.ParseError):
            pc.BitTriangle.from_text("")
        with pytest.raises(pc.ParseError):
            pc.BitTriangle.from_text("2\n0 1\n")
        with pytest.raises(pc.ParseError):
            pc.BitTriangle.from_text("3\n0\n1 7\n")
        with pytest.raises(pc.ParseError):
            pc.BitTriangle.from_text("1\njunk\n")

    @given(bit_triangles())
    def test_text_round_trip(self, t):
        assert pc.BitTriangle.from_text(t.to_text()) == t


class TestFamilyFromBits:
    def test_empty(self):
        f = pc.family_from_bits(pc.BitTriangle(()))
        assert f.n == 0 and f.B == () and f.D == ()

    def test_all_diagonal(self):
        f = pc.family_from_bits(tri([1], [1, 1]))
        assert tuple(f.D[i][i] for i in range(3)) == (0, 0, 0)
        assert all(step == D_STEP for p in pc.explicit_paths(f) for step in p.steps)

    def test_mixed(self):
        f = pc.family_from_bits(tri([0], [1, 0]))
        assert f.D[1][1] == 1 and f.D[2][2] == 1
        assert pc.validate_family(f) == []
        assert pc.is_cliff_shaped(f)

    @given(bit_triangles())
    def test_always_valid_and_cliff(self, t):
        f = pc.family_from_bits(t)
        assert pc.validate_family(f) == []
        assert pc.is_cliff_shaped(f)

    def test_injective(self, triangles_by_n):
        for n in range(6):
            families = {pc.family_from_bits(t) for t in triangles_by_n[n]}
            assert len(families) == 2 ** (n * (n - 1) // 2)


class TestExplicitPaths:
    def test_empty_path(self):
        f = pc.family_from_bits(pc.BitTriangle(((),)))
        (p,) = pc.explicit_paths(f)
        assert p.points() == [(0, 0)]

    def test_two_paths(self):
        f = pc.PathFamily.from_rows([[], [0]], [[0], [0, 1]])
        assert pc.explicit_paths(f)[1].points() == [(1, 0), (1, 1), (0, 1)]

    def test_cliff_path(self):
        f = pc.family_from_bits(tri([0], [1, 0]))
        assert pc.explicit_paths(f)[2].points() == [(2, 0), (1, 1), (1, 2), (0, 2)]

    def test_rejects_invalid(self):
        bad = pc.PathFamily.from_rows([[], [1]], [[0], [0, 1]])
        with pytest.raises(pc.InvalidFamily):
            pc.explicit_paths(bad)


class TestFamilyFromPaths:
    def test_empty(self):
        f = pc.family_from_paths([])
        assert f.n == 0

    def test_inverse_of_example(self):
        paths = [
            pc.ExplicitPath.from_points([(0, 0)]),
            pc.ExplicitPath.from_points([(1, 0), (0, 1)]),
            pc.ExplicitPath.from_points([(2, 0), (1, 1), (1, 2), (0, 2)]),
        ]
        f = pc.family_from_paths(paths)
        assert f.B[2] == (1, 0) and f.D[2][2] == 1

    def test_round_trip_exhaustive(self, schroder_by_n):
        for n in range(5):
            for f in schroder_by_n[n]:
                paths = pc.explicit_paths(f)
                assert pc.family_from_paths(paths) == f
                again = pc.explicit_paths(pc.family_from_paths(paths))
                assert [p.points() for p in again] == [p.points() for p in paths]

    @given(path_families())
    def test_round_trip_random(self, f):
        assert pc.family_from_paths(pc.explicit_paths(f)) == f

    def test_malformed(self):
        with pytest.raises(pc.MalformedPath):
            pc.family_from_paths([pc.ExplicitPath.from_points([(1, 0)])])
        with pytest.raises(pc.MalformedPath):
            pc.family_from_paths([pc.ExplicitPath.from_points([(0, 0), (0, 1)])])
        with pytest.raises(pc.MalformedPath):
            pc.ExplicitPath((0, 0), ((1, 1),))


class TestPredicates:
    @pytest.mark.parametrize("n", range(6))
    def test_all_diagonal_disjoint(self, n):
        t = pc.BitTriangle.from_rows([[1] * i for i in range(n)])
        assert pc.is_disjoint(pc.family_from_bits(t))

    def test_cliff_collision(self):
        f = pc.family_from_bits(tri([0], [1, 0]))
        assert not pc.is_disjoint(f)  # P_1 and P_2 both visit (1, 1)

    def test_combed_family_disjoint_not_cliff(self):
        f = pc.comb(tri([0], [1, 0]))
        assert pc.is_disjoint(f)
        assert f.D[2][1] == 1 and not pc.is_cliff_shaped(f)

    def test_disjoint_matches_supports_exhaustive(self, schroder_by_n):
        for n in range(6):
            for f in schroder_by_n[n]:
                assert pc.is_disjoint(f) == oracles.supports_disjoint(f)

    @pytest.mark.parametrize("n,seed", [(7, 1), (30, 2), (65, 5), (120, 3), (200, 4)])
    def test_disjoint_matches_supports_seeded(self, n, seed):
        f = pc.comb(pc.random_triangle(n, seed))
        assert pc.is_disjoint(f) and oracles.supports_disjoint(f)
        # paths 1 and 2 rerouted through (1, 1): no longer disjoint
        g = pc.PathFamily(f.B[:1] + ((0,), (1, 1)) + f.B[3:],
                          f.D[:1] + ((0, 1), (0, 0, 0)) + f.D[3:])
        assert pc.validate_family(g) == []
        assert not pc.is_disjoint(g) and not oracles.supports_disjoint(g)
        # the cliff family that comb starts from: its paths collide
        c = pc.family_from_bits(pc.random_triangle(n, seed))
        assert not pc.is_disjoint(c) and not oracles.supports_disjoint(c)

    def test_disjoint_rejects_invalid(self):
        f = pc.PathFamily.from_rows([[], [0], [0, 1]], [[0], [0, 0], [0, 0, 0]])
        with pytest.raises(pc.InvalidFamily) as explicit:
            pc.explicit_paths(f)
        with pytest.raises(pc.InvalidFamily) as disjoint:
            pc.is_disjoint(f)
        assert str(disjoint.value) == str(explicit.value)

    def test_single_path_cliff(self):
        assert pc.is_cliff_shaped(pc.family_from_bits(pc.BitTriangle(((),))))


# Single faults in one valid order-4 family, and the Violation lists that
# validate_family gave for each before it had a one-pass check (_passes):
# (id, B, D, [(kind, i, j, message), ...]).
_B = ((), (0,), (0, 1), (0, 0, 0))
_D = ((0,), (0, 1), (0, 0, 1), (0, 0, 1, 2))


def _entry(rows, i, j, value):
    row = list(rows[i])
    row[j] = value
    return rows[:i] + (tuple(row),) + rows[i + 1:]


def _row(rows, i, row):
    return rows[:i] + (row,) + rows[i + 1:]


_BALANCE_3_UP = [("descent-balance", 3, None, "row 3 steps descend 4 levels, expected 3"),
                 ("schroder", 3, 3, "path 3 drops below its anti-diagonal in column 3")]
SINGLE_FAULTS = [
    ("valid", _B, _D, []),
    ("B=2", _entry(_B, 2, 1, 2), _D, [("domain", 2, 1, "B[2][1] = 2 is not a bit")]),
    ("B=-1", _entry(_B, 2, 1, -1), _D, [("domain", 2, 1, "B[2][1] = -1 is not a bit")]),
    ("B=0.5", _entry(_B, 2, 1, 0.5), _D, [("domain", 2, 1, "B[2][1] = 0.5 is not a bit")]),
    ("B=True", _entry(_B, 2, 1, True), _D, []),
    ("B=None", _entry(_B, 2, 1, None), _D, [("domain", 2, 1, "B[2][1] = None is not a bit")]),
    ("B=list", _entry(_B, 2, 1, [1]), _D, [("domain", 2, 1, "B[2][1] = [1] is not a bit")]),
    ("B-flipped", _entry(_B, 3, 0, 1), _D, _BALANCE_3_UP),
    ("B=False", _entry(_B, 3, 0, False), _D, []),
    ("B=1.0", _entry(_B, 2, 1, 1.0), _D, [("domain", 2, 1, "B[2][1] = 1.0 is not a bit")]),
    ("B=0.0", _entry(_B, 3, 0, 0.0), _D, [("domain", 3, 0, "B[3][0] = 0.0 is not a bit")]),
    ("D+1-interior", _B, _entry(_D, 3, 2, 2), _BALANCE_3_UP),
    ("D-1-interior", _B, _entry(_D, 3, 2, 0),
     [("descent-balance", 3, None, "row 3 steps descend 2 levels, expected 3")]),
    ("D+1-final", _B, _entry(_D, 2, 2, 2),
     [("descent-balance", 2, None, "row 2 steps descend 3 levels, expected 2"),
      ("schroder", 2, 2, "path 2 drops below its anti-diagonal in column 2")]),
    ("D-1-final", _B, _entry(_D, 2, 2, 0),
     [("descent-balance", 2, None, "row 2 steps descend 1 levels, expected 2")]),
    ("D+1-column-0", _B, _entry(_D, 1, 0, 1),
     [("descent-balance", 1, None, "row 1 steps descend 2 levels, expected 1"),
      ("schroder", 1, 0, "path 1 drops below its anti-diagonal in column 0"),
      ("schroder", 1, 1, "path 1 drops below its anti-diagonal in column 1")]),
    ("D-negative-final", _B, _entry(_D, 3, 3, -1),
     [("domain", 3, 3, "D[3][3] = -1 is not a count")]),
    ("D-negative-interior", _B, _entry(_D, 3, 2, -1),
     [("domain", 3, 2, "D[3][2] = -1 is not a count")]),
    ("D=True", _B, _entry(_D, 2, 2, True), []),
    ("D=False", _B, _entry(_D, 3, 2, False),
     [("descent-balance", 3, None, "row 3 steps descend 2 levels, expected 3")]),
    ("D=1.0-interior", _B, _entry(_D, 3, 2, 1.0),
     [("domain", 3, 2, "D[3][2] = 1.0 is not a count")]),
    ("D=2.0", _B, _entry(_D, 3, 3, 2.0), [("domain", 3, 3, "D[3][3] = 2.0 is not a count")]),
    ("D=0.0", _B, _entry(_D, 0, 0, 0.0), [("domain", 0, 0, "D[0][0] = 0.0 is not a count")]),
    ("B-row-long", _row(_B, 2, (0, 1, 0)), _D,
     [("triangularity", 2, None, "B row 2 has length 3, expected 2")]),
    ("B-row-short", _row(_B, 2, (0,)), _D,
     [("triangularity", 2, None, "B row 2 has length 1, expected 2")]),
    ("D-row-short", _B, _row(_D, 3, (0, 0, 1)),
     [("triangularity", 3, None, "D row 3 has length 3, expected 4")]),
    ("D-row-long", _B, _row(_D, 1, (0, 1, 0)),
     [("triangularity", 1, None, "D row 1 has length 3, expected 2")]),
    ("B-row-list", _row(_B, 3, [0, 0, 0]), _D, []),
    ("D-row-list", _B, _row(_D, 2, [0, 0, 1]), []),
    ("B-fewer-rows", _B[:3], _D, [("triangularity", None, None, "B has 3 rows but D has 4")]),
    ("D-fewer-rows", _B, _D[:3], [("triangularity", None, None, "B has 4 rows but D has 3")]),
    ("B-extra-row", _B + ((0, 0, 0, 0),), _D,
     [("triangularity", None, None, "B has 5 rows but D has 4")]),
    ("B-empty", (), _D[:1], [("triangularity", None, None, "B has 0 rows but D has 1")]),
    # two faults whose sum keeps row 3's balance and its staying-above sums
    ("D-negative-balanced", _B, _row(_D, 3, (0, 0, -1, 4)),
     [("domain", 3, 2, "D[3][2] = -1 is not a count")]),
]


class TestValidateFamily:
    def test_valid(self):
        assert pc.validate_family(pc.family_from_bits(tri([1], [0, 1]))) == []

    def test_balance_violation(self):
        f = pc.PathFamily.from_rows([[], [1]], [[0], [0, 1]])
        kinds = {(v.kind, v.i) for v in pc.validate_family(f)}
        assert ("descent-balance", 1) in kinds

    def test_schroder_violation(self):
        f = pc.PathFamily.from_rows([[], [0]], [[0], [1, 0]])
        assert any(v.kind == "schroder" and (v.i, v.j) == (1, 0)
                   for v in pc.validate_family(f))

    def test_triangularity_violation(self):
        f = pc.PathFamily(((), (0, 1)), ((0,), (0, 0)))
        assert any(v.kind == "triangularity" for v in pc.validate_family(f))

    def test_disjoint_families_are_valid(self, disjoint_by_n):
        for n in range(5):
            for f in disjoint_by_n[n]:
                assert pc.validate_family(f) == []

    def test_one_pass_accepts_every_valid_family(self, schroder_by_n):
        for n in range(5):
            for f in schroder_by_n[n]:
                assert _passes(f.B, f.D)

    @pytest.mark.parametrize("B, D, expected", [row[1:] for row in SINGLE_FAULTS],
                             ids=[row[0] for row in SINGLE_FAULTS])
    def test_single_faults_keep_their_violations(self, B, D, expected):
        f = pc.PathFamily(B, D)
        assert pc.validate_family(f) == [pc.Violation(*v) for v in expected]
        if expected:
            assert not _passes(B, D)


@pytest.mark.parametrize("call", [pc.is_disjoint, pc.family_to_tiling, pc.dual_family,
                                  render_family, render_dual, pc.uncomb],
                         ids=["is_disjoint", "family_to_tiling", "dual_family", "render_family",
                              "render_dual", "uncomb"])
def test_float_bit_is_invalid(call):
    # 1.0 equals 1, but each call raised TypeError on it, past a validation
    # that took it for a bit; uncomb did so in a row of more than 8 bits
    B = [(1,) * i for i in range(10)]
    B[9] = (1, 1, 1, 1.0, 1, 1, 1, 1, 1)
    f = pc.PathFamily(tuple(B), tuple((0,) * (i + 1) for i in range(10)))
    with pytest.raises(pc.InvalidFamily) as raised:
        call(f)
    assert str(raised.value) == "B[9][3] = 1.0 is not a bit"


class TestFamilyText:
    def test_format(self):
        f = pc.comb(tri([0], [1, 0]))
        assert f.to_text() == "3\nB: | D: 0\nB: 1 | D: 0 0\nB: 0 0 | D: 0 1 1\n"
        assert pc.PathFamily.from_text(f.to_text()) == f

    def test_parse_errors(self):
        with pytest.raises(pc.ParseError):
            pc.PathFamily.from_text("1\nB: 0 | D: 0\n")
        with pytest.raises(pc.ParseError):
            pc.PathFamily.from_text("1\nD: 0 | B:\n")
        with pytest.raises(pc.ParseError):
            pc.PathFamily.from_text("1\nB: D: 0\n")

    @given(path_families())
    def test_round_trip(self, f):
        assert pc.PathFamily.from_text(f.to_text()) == f


class TestEntryLevels:
    def test_cliff_entry_levels(self):
        f = pc.family_from_bits(tri([1], [1, 0]))
        assert pc.entry_levels(f, 2) == (0, 0, 1)

    @given(path_families(max_n=5))
    def test_matches_geometry(self, f):
        # where a path has no vertical steps before column k, the entry
        # level equals the geometric top point of the path in that column
        paths = pc.explicit_paths(f)
        for k in range(f.n):
            levels = pc.entry_levels(f, k)
            for i in range(k, f.n):
                if all(f.D[i][j] == 0 for j in range(k)):
                    top = max(lev for lev, col in paths[i].points() if col == k)
                    assert levels[i] == top
