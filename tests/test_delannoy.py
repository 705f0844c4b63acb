from __future__ import annotations

import importlib
import random
import tracemalloc
from functools import cache

import pytest

import pathcomb as pc

# the package's delannoy function shadows the submodule of the same name
delannoy_module = importlib.import_module("pathcomb.delannoy")


def walk_count(i: int, j: int) -> int:
    """Count paths from (i, 0) to (0, j) by the three steps a path can take
    from each point, each point's count remembered for this call only."""

    @cache
    def rec(lev: int, col: int) -> int:
        if lev == 0 and col == j:
            return 1
        total = 0
        if col < j:
            total += rec(lev, col + 1)
            if lev > 0:
                total += rec(lev - 1, col + 1)
        if lev > 0:
            total += rec(lev - 1, col)
        return total

    return rec(i, 0)


def matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def transpose(m):
    return tuple(zip(*m))


def reduction_by_products(a) -> bool:
    """The conjugation identity E^T A E = [[1, 0], [0, 2*A']] by dense
    matrix products, A' being the leading block of A one order smaller."""
    n = len(a)
    e = tuple(tuple(1 if i == j else (-1 if j == i + 1 else 0) for j in range(n))
              for i in range(n))
    block = ((1,) + (0,) * (n - 1),) + tuple((0,) + tuple(2 * x for x in row[:n - 1])
                                              for row in a[:n - 1])
    return matmul(matmul(transpose(e), a), e) == block


def recurrence_table(top, left):
    """The square table with first row top, first column left and every
    other entry the sum of its upper, left and upper-left neighbours."""
    rows = [tuple(top)]
    for i in range(1, len(top)):
        row = [left[i]]
        for j in range(1, len(top)):
            row.append(rows[-1][j] + row[-1] + rows[-1][j - 1])
        rows.append(tuple(row))
    return tuple(rows)


def det_cofactor(m) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for c in range(n):
        minor = [row[:c] + row[c + 1:] for row in m[1:]]
        total += (-1) ** c * m[0][c] * det_cofactor(minor)
    return total


class TestDelannoy:
    def test_border(self):
        assert pc.delannoy(0, 5) == 1
        assert pc.delannoy(7, 0) == 1

    def test_small_values(self):
        assert pc.delannoy(1, 1) == 3
        assert pc.delannoy(2, 2) == 13

    def test_symmetry(self):
        for i in range(9):
            for j in range(9):
                assert pc.delannoy(i, j) == pc.delannoy(j, i)

    def test_against_path_walker(self):
        for i in range(7):
            for j in range(7):
                assert pc.delannoy(i, j) == walk_count(i, j)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pc.delannoy(-1, 0)
        with pytest.raises(ValueError):
            pc.delannoy(0, -1)

    def test_against_table_and_walker(self):
        a = recurrence_table((1,) * 25, (1,) * 25)
        for i in range(25):
            for j in range(25):
                assert pc.delannoy(i, j) == a[i][j] == walk_count(i, j)

    def test_one_entry_builds_no_table(self):
        # a (10^5 + 1)^2 table would not fit in memory
        assert pc.delannoy(10 ** 5, 0) == pc.delannoy(0, 10 ** 5) == 1
        # D(2, j) = 2j^2 + 2j + 1
        assert pc.delannoy(2, 10 ** 4) == pc.delannoy(10 ** 4, 2) == 2 * 10 ** 8 + 2 * 10 ** 4 + 1


class TestDetExact:
    def test_identity(self):
        assert pc.det_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_empty_and_singletons(self):
        assert pc.det_exact([]) == 1
        assert pc.det_exact([[7]]) == 7

    def test_delannoy_2_and_3(self):
        assert pc.delannoy_matrix(2) == ((1, 1), (1, 3))
        assert pc.det_exact(pc.delannoy_matrix(2)) == 2
        assert pc.det_exact(pc.delannoy_matrix(3)) == 8

    def test_pivot_swap(self):
        assert pc.det_exact([[0, 1], [1, 0]]) == -1

    def test_singular(self):
        assert pc.det_exact([[1, 2], [2, 4]]) == 0
        assert pc.det_exact([[0, 0], [5, 3]]) == 0

    def test_not_square(self):
        with pytest.raises(ValueError):
            pc.det_exact([[1, 2]])

    def test_against_cofactor_oracle(self):
        rng = random.Random(20260810)
        for _ in range(300):
            n = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert pc.det_exact(m) == det_cofactor(m)

    @pytest.mark.parametrize("n", range(1, 61))
    def test_matrix_matches_recurrence(self, n):
        assert pc.delannoy_matrix(n) == recurrence_table((1,) * n, (1,) * n)

    @pytest.mark.parametrize("n", range(9))
    def test_power_of_two(self, n):
        assert pc.det_exact(pc.delannoy_matrix(n)) == 2 ** (n * (n - 1) // 2)


class TestReduction:
    def test_degenerate(self):
        assert pc.verify_reduction(1)

    def test_order_two_block(self):
        a = pc.delannoy_matrix(2)
        e = ((1, -1), (0, 1))
        assert matmul(matmul(transpose(e), a), e) == ((1, 0), (0, 2))
        assert pc.verify_reduction(2)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_dense_products(self, n, monkeypatch):
        a = pc.delannoy_matrix(n)
        assert recurrence_table((1,) * n, (1,) * n) == a
        assert pc.verify_reduction(n) and reduction_by_products(a)
        # every single wrong entry, and every wrong border entry carried
        # through the recurrence, must fail both checks
        wrong = [tuple(tuple(x + (r == i and c == j) for c, x in enumerate(row))
                       for r, row in enumerate(a))
                 for i in range(n) for j in range(n)]
        for t in range(1, n):
            bumped = tuple(1 + (j == t) for j in range(n))
            wrong += [recurrence_table(bumped, (1,) * n), recurrence_table((1,) * n, bumped)]
        for bad in wrong:
            monkeypatch.setattr(delannoy_module, "_table", lambda m: bad)
            assert not pc.verify_reduction(n)
            assert not reduction_by_products(bad)

    @pytest.mark.parametrize("n", [12, 45])
    def test_symmetric_faults_fail(self, n, monkeypatch):
        # a check that trusted the table's symmetry could look at one
        # triangle only: a fault moved with its mirror image must still
        # fail, wherever it is
        a = pc.delannoy_matrix(n)
        rng = random.Random(20261019 + n)
        spots = {(i, i) for i in range(n)} | {(0, j) for j in range(n)} | {(n - 1, n - 1)}
        spots |= {tuple(sorted((rng.randrange(n), rng.randrange(n)))) for _ in range(40)}
        for i, j in sorted(spots):
            for d in (1, -1):
                rows = [list(row) for row in a]
                rows[i][j] += d
                if i != j:
                    rows[j][i] += d
                bad = tuple(map(tuple, rows))
                assert bad == tuple(zip(*bad))
                monkeypatch.setattr(delannoy_module, "_table", lambda m: bad)
                assert not pc.verify_reduction(n), (i, j, d)
                if n <= 12:
                    assert not reduction_by_products(bad)

    def test_tables_not_n_by_n_fail(self, monkeypatch):
        n = 6
        a = pc.delannoy_matrix(n)
        bigger = pc.delannoy_matrix(n + 1)
        tables = {
            "one row short": a[:-1],
            "one row more": a + (bigger[-1][:n],),
            "order n + 1": bigger,
            "every row cut": tuple(row[:-1] for row in a),
            "every row longer": tuple(row[:n + 1] for row in bigger[:n]),
            "last row cut": a[:-1] + (a[-1][:-1],),
            "first row longer": (bigger[0],) + a[1:],
            "empty": (),
            "empty rows": ((),) * n,
        }
        for name, bad in tables.items():
            monkeypatch.setattr(delannoy_module, "_table", lambda m: bad)
            assert not pc.verify_reduction(n), name
        # a table is checked by its entries, whatever sequences hold them
        monkeypatch.setattr(delannoy_module, "_table", lambda m: [list(row) for row in a])
        assert pc.verify_reduction(n)

    def test_holds_two_rows(self):
        # the whole order-600 table takes 44 MB, two of its rows 0.3 MB
        tracemalloc.start()
        try:
            assert pc.verify_reduction(600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    @pytest.mark.parametrize("n", range(1, 9))
    def test_holds(self, n):
        assert pc.verify_reduction(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            pc.verify_reduction(0)
