from __future__ import annotations

import time
from collections import Counter
from math import comb as choose

import pytest

import pathcomb as pc
from pathcomb.enumeration import _schroder_rows
from pathcomb.families import require_valid


def tri(*rows):
    return pc.BitTriangle.from_rows([(), *rows])


@pytest.mark.parametrize("call", [
    lambda: pc.random_triangle(-3, 0),
    lambda: pc.all_bit_triangles(-2),
    lambda: pc.enumerate_disjoint(-2),
    lambda: pc.enumerate_schroder(-2),
    lambda: pc.verify_bijection(-2),
    lambda: pc.delannoy_matrix(-2),
], ids=["random_triangle", "all_bit_triangles", "enumerate_disjoint", "enumerate_schroder",
        "verify_bijection", "delannoy_matrix"])
def test_negative_order_is_rejected(call):
    # not an order-0 result: a negative order is an error at the call
    with pytest.raises(ValueError, match="^order must be nonnegative$") as raised:
        call()
    assert type(raised.value) is ValueError


@pytest.mark.parametrize("call,n,largest", [
    (lambda: pc.enumerate_disjoint(13, cap=13), 13, 6),
    (lambda: pc.enumerate_schroder(6, cap=6), 6, 5),
    (lambda: pc.verify_bijection(7, cap=7), 7, 6),
], ids=["enumerate_disjoint", "enumerate_schroder", "verify_bijection"])
def test_orders_above_six_are_refused_whatever_the_cap(call, n, largest, no_enumeration):
    # enumerate_disjoint(13, cap=13) ran until it raised MemoryError, and
    # enumerate_schroder(6, cap=6) would keep 9,363,360 families; the
    # no_enumeration fixture fails at once if either starts listing rows
    with pytest.raises(pc.CapExceeded) as exc:
        call()
    assert str(exc.value) == f"order {n} exceeds {largest}, the largest order enumerated"


class TestSchroderRows:
    def test_counts_are_large_schroder_numbers(self):
        for i, count in enumerate([1, 2, 6, 22, 90, 394, 1806, 8558]):
            rows = list(_schroder_rows(i))
            assert len(set(rows)) == len(rows) == count
            # rows below i are the all-horizontal cliff paths, which are valid
            B = tuple((0,) * r for r in range(i))
            D = tuple((0,) * r + (r,) for r in range(i))
            for brow, drow in rows:
                assert pc.validate_family(pc.PathFamily(B + (brow,), D + (drow,))) == []

    def test_first_row_of_a_long_path(self):
        # one recursion level per column would pass the interpreter's limit here
        start = time.perf_counter()
        brow, drow = next(_schroder_rows(1000))
        assert time.perf_counter() - start < 1
        assert (len(brow), len(drow)) == (1000, 1001)


class TestEnumerateDisjoint:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 8), (4, 64), (5, 1024)])
    def test_counts(self, n, count, disjoint_by_n):
        assert len(disjoint_by_n[n]) == count

    def test_all_disjoint_and_valid(self, disjoint_by_n):
        for f in disjoint_by_n[4]:
            assert pc.validate_family(f) == []
            assert pc.is_disjoint(f)

    def test_equals_the_disjoint_valid_families(self, disjoint_by_n, schroder_by_n):
        for n in range(6):
            assert disjoint_by_n[n] == {f for f in schroder_by_n[n] if pc.is_disjoint(f)}

    def test_cap(self):
        with pytest.raises(pc.CapExceeded):
            pc.enumerate_disjoint(6)
        assert len(pc.enumerate_disjoint(6, cap=6)) == 2 ** 15

    def test_matches_determinant(self, disjoint_by_n):
        for n in range(6):
            assert len(disjoint_by_n[n]) == pc.det_exact(pc.delannoy_matrix(n))


class TestEnumerateSchroder:
    def test_counts_are_products_of_path_counts(self, schroder_by_n):
        # 1, 2, 6, 22 paths for the first four rows
        assert len(schroder_by_n[1]) == 1
        assert len(schroder_by_n[2]) == 2
        assert len(schroder_by_n[3]) == 2 * 6
        assert len(schroder_by_n[4]) == 2 * 6 * 22

    def test_includes_cliff_and_disjoint(self, schroder_by_n, disjoint_by_n,
                                         triangles_by_n):
        fams = schroder_by_n[3]
        assert disjoint_by_n[3] <= fams
        assert {pc.family_from_bits(t) for t in triangles_by_n[3]} <= fams

    def test_all_valid(self, schroder_by_n):
        for f in schroder_by_n[4]:
            assert pc.validate_family(f) == []


class TestStatistics:
    def test_all_diagonal_counts_are_zero(self):
        f = pc.family_from_bits(tri([1], [1, 1]))
        assert pc.column_counts(f) == (0, 0, 0)
        assert pc.intercolumn_counts(f) == (0, 0)
        assert pc.row_counts(f) == (0, 0, 0)

    def test_combed_example(self):
        f = pc.comb(tri([0], [1, 0]))
        assert pc.column_counts(f) == (0, 1, 1)
        assert pc.intercolumn_counts(f) == (1, 1)
        assert pc.row_counts(f) == (0, 1, 1)

    def test_cliff_column_counts_read_from_bits(self, triangles_by_n):
        for t in triangles_by_n[4]:
            f = pc.family_from_bits(t)
            assert pc.column_counts(f) == tuple(k - sum(t.bits[k]) for k in range(4))

    def test_row_and_column_totals_agree(self, disjoint_by_n):
        for f in disjoint_by_n[4]:
            assert sum(pc.row_counts(f)) == sum(pc.column_counts(f))

    @pytest.mark.parametrize("stat", [pc.column_counts, pc.intercolumn_counts,
                                      pc.row_counts, pc.diagonal_step_count])
    @pytest.mark.parametrize("f", [
        pc.PathFamily(((), (0,)), ((0,),)),  # D is a row short
        pc.PathFamily(((), (2,)), ((0,), (0, -1))),  # a B entry of 2, a D entry of -1
    ], ids=["short-D", "bad-entries"])
    def test_rejects_invalid(self, f, stat):
        with pytest.raises(pc.InvalidFamily) as expected:
            require_valid(f)
        with pytest.raises(pc.InvalidFamily) as raised:
            stat(f)
        assert str(raised.value) == str(expected.value)


class TestJointDistribution:
    def test_order_two(self):
        hist = pc.joint_distribution(2, pc.column_counts)
        assert hist == Counter({(0, 0): 1, (0, 1): 1})

    def test_diagonal_steps_binomial(self):
        hist = pc.joint_distribution(4, pc.diagonal_step_count)
        assert [hist[d] for d in range(7)] == [1, 6, 15, 20, 15, 6, 1]

    def test_column_counts_product_of_binomials(self):
        hist = pc.joint_distribution(4, pc.column_counts)
        want = Counter()
        for c1 in range(2):
            for c2 in range(3):
                for c3 in range(4):
                    want[(0, c1, c2, c3)] = choose(1, c1) * choose(2, c2) * choose(3, c3)
        assert hist == want

    def test_matches_triangle_statistics(self, triangles_by_n):
        # joint (column, inter-column) counts over disjoint families equal
        # joint (row zero-bits, column zero-bits) over all triangles
        fam_hist = pc.joint_distribution(
            4, lambda f: (pc.column_counts(f), pc.intercolumn_counts(f)))
        tri_hist = Counter()
        for t in triangles_by_n[4]:
            rows = tuple(i - sum(t.bits[i]) for i in range(4))
            cols = tuple(sum(1 for i in range(j + 1, 4) if t.bits[i][j] == 0)
                         for j in range(3))
            tri_hist[(rows, cols)] += 1
        assert fam_hist == tri_hist

    def test_row_count_marginals_binomial(self):
        # level r is binomial over r trials, scaled to the family count
        hist = pc.joint_distribution(4, pc.row_counts)
        for r in range(4):
            marginal = Counter()
            for counts, freq in hist.items():
                marginal[counts[r]] += freq
            for v in range(r + 1):
                assert marginal[v] == choose(r, v) * 2 ** (6 - r)


# The failures of the two broken harnesses below at order 3, in the order
# verify_bijection listed them before its image map hashed each family once.
TRIANGLES_3 = ["3\n0\n0 0\n", "3\n0\n0 1\n", "3\n0\n1 0\n", "3\n0\n1 1\n",
               "3\n1\n0 0\n", "3\n1\n0 1\n", "3\n1\n1 0\n", "3\n1\n1 1\n"]
_TWO_DOWN = ("row 1 steps descend 2 levels, expected 1; "
             "path 1 drops below its anti-diagonal in column 1")
_NONE_DOWN = "row 1 steps descend 0 levels, expected 1"
_ROWS_0 = "3\nB: | D: 0\n"
BROKEN_COMB_FAILURES = (
    *(f"round trip raised InvalidFamily({message!r}) for t = {t!r}"
      for message, t in zip([_TWO_DOWN] * 2 + [_NONE_DOWN] * 6, TRIANGLES_3)),
    *(f"comb image not disjoint: {_ROWS_0 + rows!r}" for rows in [
        "B: 0 | D: 0 0\nB: 1 1 | D: 0 0 0\n",
        "B: 0 | D: 0 0\nB: 0 0 | D: 0 0 2\n",
        "B: 0 | D: 0 0\nB: 0 0 | D: 0 1 1\n",
        "B: 1 | D: 0 1\nB: 0 1 | D: 0 0 1\n",
        "B: 0 | D: 0 0\nB: 0 1 | D: 0 1 0\n",
        "B: 1 | D: 0 1\nB: 0 0 | D: 0 0 2\n",
        "B: 0 | D: 0 0\nB: 0 1 | D: 0 0 1\n",
        "B: 0 | D: 0 0\nB: 1 0 | D: 0 0 1\n",
    ]),
    *(f"disjoint family not reached: {_ROWS_0 + rows!r}" for rows in [
        "B: 0 | D: 0 1\nB: 0 0 | D: 0 0 2\n",
        "B: 1 | D: 0 0\nB: 1 1 | D: 0 0 0\n",
        "B: 1 | D: 0 0\nB: 1 0 | D: 0 0 1\n",
        "B: 1 | D: 0 0\nB: 0 0 | D: 0 0 2\n",
        "B: 1 | D: 0 0\nB: 0 1 | D: 0 1 0\n",
        "B: 1 | D: 0 0\nB: 0 0 | D: 0 1 1\n",
        "B: 0 | D: 0 1\nB: 0 1 | D: 0 0 1\n",
        "B: 1 | D: 0 0\nB: 0 1 | D: 0 0 1\n",
    ]),
)


class TestVerifyBijection:
    @pytest.mark.parametrize("n", range(5))
    def test_passes(self, n):
        report = pc.verify_bijection(n)
        assert report.ok
        assert report.triangles == 2 ** (n * (n - 1) // 2)
        assert report.disjoint_families == report.triangles

    @pytest.mark.parametrize("n", range(5))
    def test_one_round_trip_per_triangle(self, n):
        # comb(uncomb(g)) == g is implied, so each function runs once per triangle
        calls = Counter()

        def counted(fn):
            def call(x):
                calls[fn.__name__] += 1
                return fn(x)
            return call

        report = pc.verify_bijection(n, comb_fn=counted(pc.comb), uncomb_fn=counted(pc.uncomb))
        assert report.ok
        assert calls == {"comb": 2 ** (n * (n - 1) // 2), "uncomb": 2 ** (n * (n - 1) // 2)}

    def test_detects_broken_comb(self):
        def skewed_comb(t):
            f = pc.comb(t)
            if t.n >= 2:  # deliberate off-by-one: flip one direction bit
                B = [list(r) for r in f.B]
                B[1][0] ^= 1
                return pc.PathFamily(tuple(map(tuple, B)), f.D)
            return f

        report = pc.verify_bijection(3, comb_fn=skewed_comb)
        assert not report.ok
        assert report.failures == BROKEN_COMB_FAILURES

    def test_detects_broken_uncomb(self):
        def lazy_uncomb(f):
            t = pc.uncomb(f)
            if t.n >= 3:
                rows = [list(r) for r in t.bits]
                rows[2][1] ^= 1
                return pc.BitTriangle(tuple(map(tuple, rows)))
            return t

        report = pc.verify_bijection(3, uncomb_fn=lazy_uncomb)
        assert not report.ok
        assert report.failures
        assert report.failures == tuple(f"uncomb(comb(t)) != t for t = {t!r}"
                                        for t in TRIANGLES_3)

    def test_cap(self):
        with pytest.raises(pc.CapExceeded):
            pc.verify_bijection(6)
