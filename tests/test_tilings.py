from __future__ import annotations

import copy
import dataclasses
import functools
import math
import pickle
import random
import re
from collections import Counter
from functools import partial
from typing import Iterator

import hypothesis.strategies as st
import pytest
from hypothesis import given

import pathcomb as pc
import pathcomb.families
import pathcomb.svg
import pathcomb.tilings
import oracles
from conftest import (
    aztec_order,
    oracle_convention_paths,
    oracle_dual,
    oracle_family,
    oracle_rejects,
    oracle_tiling,
)
from pathcomb.families import require_valid
from pathcomb.svg import render_dual, render_family, render_overlay, render_tiling
from pathcomb.tilings import (
    EdgePathFamily,
    _cover,
    _packed_text,
    _partners,
    _symmetry,
    _text,
    is_black,
)


def tri(*rows):
    return pc.BitTriangle.from_rows([(), *rows])


def random_region(rng: random.Random, max_cells: int = 24) -> pc.Region:
    """A random translated rectangle, or a rectangle minus a corner."""
    h = rng.randint(1, 6)
    w = rng.randint(1, max_cells // h)
    oi, oj = rng.randint(-5, 5), rng.randint(-5, 5)
    cells = {(oi + i, oj + j) for i in range(h) for j in range(w)}
    if rng.random() < 0.5 and h > 1 and w > 1:
        ch, cw = rng.randint(1, h - 1), rng.randint(1, w - 1)
        cells -= {(oi + i, oj + j) for i in range(h - ch, h) for j in range(w - cw, w)}
    return pc.Region(frozenset(cells))


def assert_runs_entries_to_exits(region, fam):
    edges = pc.region_edges(region)
    assert {p[0] for p in fam.paths} == edges.entries
    assert {p[-1] for p in fam.paths} == edges.exits


class TestRegionEdges:
    def test_empty(self):
        e = pc.region_edges(pc.Region(frozenset()))
        assert e.entries == e.interior == e.exits == frozenset()

    def test_single_black_cell(self):
        # one entry, nothing else: the right edge of the black cell has no
        # white region cell on its left, so it is not an exit
        e = pc.region_edges(pc.Region.from_cells([(0, 0)]))
        assert e.entries == {(0, 0)}
        assert e.interior == frozenset()
        assert e.exits == frozenset()

    def test_single_white_cell(self):
        e = pc.region_edges(pc.Region.from_cells([(0, 1)]))
        assert e.entries == frozenset()
        assert e.interior == frozenset()
        assert e.exits == {(0, 2)}

    def test_domino_region(self):
        e = pc.region_edges(pc.Region.from_cells([(0, 0), (0, 1)]))
        assert e.entries == {(0, 0)}
        assert e.interior == frozenset()
        assert e.exits == {(0, 2)}

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_aztec_entries_exits(self, m):
        e = pc.region_edges(pc.aztec_region(m))
        assert e.entries == {(i, -i) for i in range(1, m + 1)}
        assert e.exits == {(i, i) for i in range(1, m + 1)}

    @given(st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=20))
    def test_balance(self, cells):
        region = pc.Region(frozenset(cells))
        e = pc.region_edges(region)
        blacks = len(region.black_cells())
        whites = len(region.white_cells())
        assert blacks - whites == len(e.entries) - len(e.exits)


class TestAztecRegion:
    @pytest.mark.parametrize("m,cells", [(0, 0), (1, 4), (2, 12), (3, 24), (4, 40)])
    def test_cell_counts(self, m, cells):
        assert len(pc.aztec_region(m).cells) == cells

    def test_symmetric_under_half_turn(self):
        for m in (1, 2, 3):
            region = pc.aztec_region(m)
            rotated = {(2 * m + 1 - i, -1 - j) for i, j in region.cells}
            assert rotated == set(region.cells)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pc.aztec_region(-1)


class TestTilingToPaths:
    def test_white_left_of_black_is_silent(self):
        region = pc.Region.from_cells([(0, 1), (0, 2)])  # white then black
        t = pc.DominoTiling.from_pairs([((0, 1), (0, 2))])
        assert pc.tiling_to_paths(region, t).paths == ()

    def test_black_left_of_white_is_one_step(self):
        region = pc.Region.from_cells([(0, 0), (0, 1)])
        t = pc.DominoTiling.from_pairs([((0, 0), (0, 1))])
        fam = pc.tiling_to_paths(region, t)
        assert fam.paths == (((0, 0), (0, 2)),)

    def test_aztec_order_one(self):
        region = pc.aztec_region(1)
        tilings = oracles.enumerate_tilings(region)
        families = {pc.tiling_to_paths(region, t) for t in tilings}
        assert len(families) == 2
        assert all(len(f.paths) == 1 for f in families)

    def test_rejects_non_tiling(self):
        region = pc.aztec_region(1)
        with pytest.raises(pc.NotATiling):
            pc.tiling_to_paths(region, pc.DominoTiling(frozenset()))
        with pytest.raises(pc.NotATiling):
            pc.tiling_to_paths(region, pc.DominoTiling.from_pairs(
                [((1, -1), (1, 1))] * 1))


class TestPathsToTiling:
    def test_empty_family_on_silent_region(self):
        region = pc.Region.from_cells([(0, 1), (0, 2)])
        t = pc.paths_to_tiling(region, EdgePathFamily(()))
        assert t == pc.DominoTiling.from_pairs([((0, 1), (0, 2))])

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_round_trip_aztec(self, m):
        region = pc.aztec_region(m)
        for t in oracles.enumerate_tilings(region):
            fam = pc.tiling_to_paths(region, t)
            assert_runs_entries_to_exits(region, fam)
            assert pc.paths_to_tiling(region, fam) == t
            assert pc.tiling_to_paths(region, pc.paths_to_tiling(region, fam)) == fam

    def test_round_trip_random_regions(self):
        rng = random.Random(1729)
        checked = 0
        for _ in range(60):
            region = random_region(rng)
            for t in oracles.enumerate_tilings(region):
                fam = pc.tiling_to_paths(region, t)
                assert_runs_entries_to_exits(region, fam)
                assert pc.paths_to_tiling(region, fam) == t
                checked += 1
        assert checked > 100

    def test_rejects_incomplete_family(self):
        region = pc.aztec_region(1)
        with pytest.raises(pc.InvalidFamily):
            pc.paths_to_tiling(region, EdgePathFamily(()))
        with pytest.raises(pc.InvalidFamily):
            pc.paths_to_tiling(region, EdgePathFamily((((1, -1), (3, 1)),)))


class TestEnumerateTilings:
    @pytest.mark.parametrize("m,count", [(0, 1), (1, 2), (2, 8), (3, 64)])
    def test_aztec_counts(self, m, count):
        assert len(oracles.enumerate_tilings(pc.aztec_region(m))) == count

    def test_matches_family_count(self, disjoint_by_n):
        for m in (0, 1, 2, 3):
            assert len(oracles.enumerate_tilings(pc.aztec_region(m))) == len(disjoint_by_n[m + 1])

    def test_odd_region_has_none(self):
        assert oracles.enumerate_tilings(pc.Region.from_cells([(0, 0)])) == set()

    def test_cap(self):
        with pytest.raises(pc.CapExceeded):
            oracles.enumerate_tilings(pc.aztec_region(5))


class TestFamilyTilingBridge:
    def test_single_path_family(self):
        f = pc.family_from_bits(pc.BitTriangle(((),)))
        assert pc.family_to_tiling(f) == pc.DominoTiling(frozenset())
        assert pc.tiling_to_family(pc.DominoTiling(frozenset())) == f

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bijection_with_tilings(self, n, disjoint_by_n):
        tilings = oracles.enumerate_tilings(pc.aztec_region(n - 1))
        image = {pc.family_to_tiling(f) for f in disjoint_by_n[n]}
        assert image == tilings

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trips(self, n, disjoint_by_n):
        for f in disjoint_by_n[n]:
            assert pc.tiling_to_family(pc.family_to_tiling(f)) == f
        for t in oracles.enumerate_tilings(pc.aztec_region(n - 1)):
            assert pc.family_to_tiling(pc.tiling_to_family(t)) == t

    def test_path_count_matches_order(self):
        # a sampled large tiling: order m diamonds carry m+1 paths
        f = pc.comb(pc.random_triangle(21, seed=5))
        tiling = pc.family_to_tiling(f)
        assert len(tiling.cells()) == 2 * 20 * 21
        back = pc.tiling_to_family(tiling)
        assert back.n == 21 and back == f

    @pytest.mark.parametrize("n,seed", [(2, 1), (5, 2), (65, 5)])
    def test_one_frozenset_build(self, n, seed, monkeypatch):
        # the tiling holds its packed form: writing it out, reading its
        # family back or drawing it builds no frozenset of the dominoes, and
        # the first read of .dominoes, == or hash builds exactly one, from
        # pairs that come out sorted, so DominoTiling builds no second one
        f = pc.comb(pc.random_triangle(n, seed))
        want = oracle_tiling(f)
        builds = []

        def counted(*args):
            built = frozenset(*args)
            builds.append(len(built))
            return built

        monkeypatch.setattr(pathcomb.tilings, "frozenset", counted, raising=False)
        for read in (lambda t: t.dominoes, lambda t: t == want, hash):
            t = pc.family_to_tiling(f)
            assert t.to_text() == want.to_text()
            assert pc.tiling_to_family(t) == f
            assert render_tiling(t) == render_tiling(want)
            assert render_overlay(t) == render_overlay(want)
            assert builds == []
            read(t)
            assert builds == [(n - 1) * n]
            assert t.dominoes == want.dominoes and t == want and hash(t) == hash(want)
            assert all(p <= q for p, q in t.dominoes)
            assert builds == [(n - 1) * n]
            builds.clear()

    def test_rejects_intersecting(self):
        with pytest.raises(pc.NotDisjoint):
            pc.family_to_tiling(pc.family_from_bits(tri([0], [1, 0])))

    def test_rejects_non_aztec(self):
        t = pc.DominoTiling.from_pairs([((0, 0), (0, 1))])
        with pytest.raises(pc.NotATiling):
            pc.tiling_to_family(t)

    @pytest.mark.parametrize("n,seed", [(50, 1), (100, 2), (200, 3)])
    def test_round_trip_large_order(self, n, seed):
        f = pc.comb(pc.random_triangle(n, seed))
        t = pc.family_to_tiling(f)
        assert len(t.dominoes) == (n - 1) * n
        assert t == oracle_tiling(f)
        assert pc.tiling_to_family(t) == f
        for conv in pc.Convention:
            assert repr(pc.convention_paths(t, conv)) == repr(oracle_convention_paths(t, conv))

    def test_rejects_intersecting_large_order(self):
        f = pc.family_from_bits(pc.random_triangle(50, 4))
        assert pc.validate_family(f) == [] and not pc.is_disjoint(f)
        with pytest.raises(pc.NotDisjoint):
            pc.family_to_tiling(f)

    @pytest.mark.parametrize("bridge", [pc.family_to_tiling, pc.dual_family])
    def test_not_disjoint_exactly_when_paths_meet(self, bridge, schroder_by_n):
        # the bridge's one walk is its disjointness certificate
        for n in range(1, 6):
            for f in schroder_by_n[n]:
                if pc.is_disjoint(f):
                    bridge(f)
                else:
                    with pytest.raises(pc.NotDisjoint) as raised:
                        bridge(f)
                    assert str(raised.value) == "only disjoint families correspond to tilings"

    @pytest.mark.parametrize("bridge", [pc.family_to_tiling, pc.dual_family])
    @pytest.mark.parametrize("f", [
        pc.PathFamily(((), (0,)), ((0,),)),  # D has a row fewer than B
        pc.PathFamily(((), (2,)), ((0,), (0, -1))),  # a B entry of 2, a D entry of -1
        # P_1 dips below the anti-diagonal onto (0, 0), the point of P_0
        # that the walk does not count
        pc.PathFamily(((), (0,)), ((0,), (1, 0))),
    ], ids=["short-D", "bad-entries", "below-anti-diagonal"])
    def test_rejects_invalid(self, bridge, f):
        with pytest.raises(pc.InvalidFamily) as expected:
            require_valid(f)
        with pytest.raises(pc.InvalidFamily) as raised:
            bridge(f)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("call,walks", [
        (pc.family_to_tiling, [range(1, 65)]),
        (pc.dual_family, [range(1, 65)]),
        (pc.is_disjoint, [range(1, 65)]),
        (render_family, [range(65)]),
        # the shear walk of _partners alone: f and its dual are drawn from
        # the chains of the packed tiling, not from step bytes
        (render_dual, [range(1, 65)]),
    ], ids=["family_to_tiling", "dual_family", "is_disjoint", "render_family", "render_dual"])
    def test_one_walk_per_path(self, call, walks, monkeypatch):
        # the order-65 family of the golden tests: one call of the one path
        # walk, families._steps, for each path walked, wherever it is
        # reached from.  The shear walk (families._sheared) skips P_0, and
        # a drawing walks all 65 paths
        f = pc.comb(pc.random_triangle(65, 5))
        calls = []

        def counted(brow, drow):
            calls.append(len(brow))  # path i has i B entries
            return walk(brow, drow)

        walk = pathcomb.families._steps
        for module in (pathcomb.families, pathcomb.svg):
            monkeypatch.setattr(module, "_steps", counted)
        call(f)
        assert calls == [i for paths in walks for i in paths]

    def test_rejects_doubled_cell_large_order(self):
        # swap one domino for one that shares a cell with a neighbour: the
        # domino count stays an Aztec count, one cell is covered twice
        t = pc.family_to_tiling(pc.comb(pc.random_triangle(50, 5)))
        covered = t.cells()
        a, b = min(t.dominoes)
        c = next(nb for nb in ((a[0] + 1, a[1]), (a[0] - 1, a[1]), (a[0], a[1] + 1),
                               (a[0], a[1] - 1)) if nb != b and nb in covered)
        doubled = pc.DominoTiling.from_pairs((t.dominoes - {(a, b)}) | {(a, c)})
        assert len(doubled.dominoes) == len(t.dominoes)
        with pytest.raises(pc.NotATiling):
            pc.tiling_to_family(doubled)
        for conv in pc.Convention:
            with pytest.raises(pc.NotATiling):
                pc.convention_paths(doubled, conv)

    def test_rejects_translated_diamond(self):
        t = pc.family_to_tiling(pc.comb(pc.random_triangle(6, 6)))
        for di, dj in ((0, 2), (1, 1), (-2, 0)):
            moved = pc.DominoTiling.from_pairs(
                ((a + di, b + dj), (c + di, d + dj)) for (a, b), (c, d) in t.dominoes)
            with pytest.raises(pc.NotATiling):
                pc.tiling_to_family(moved)
            for conv in pc.Convention:
                with pytest.raises(pc.NotATiling):
                    pc.convention_paths(moved, conv)


def vertical_dominoes(t: pc.DominoTiling) -> int:
    """The dominoes whose two cells (i, j) share their column j."""
    return sum(a[1] == b[1] for a, b in t.dominoes)


def zero_bits(t: pc.BitTriangle) -> int:
    return sum(row.count(0) for row in t.bits)


class TestVerticalDominoes:
    """Combing carries the vertical-domino count of the Elkies-Kuperberg-
    Larsen-Propp weight pointwise: family_to_tiling(comb(t)) holds two
    vertical dominoes per zero bit of t.  The count reads only the
    dominoes, so a bridge or a comb that is wrong but still invertible,
    which the round trips pass, fails it."""

    def test_every_triangle_up_to_order_5(self, triangles_by_n):
        mismatches = [t for n in range(1, 6) for t in triangles_by_n[n]
                      if vertical_dominoes(pc.family_to_tiling(pc.comb(t))) != 2 * zero_bits(t)]
        assert sum(len(triangles_by_n[n]) for n in range(1, 6)) == 1099
        assert mismatches == []

    @pytest.mark.parametrize("n,seed", [(50, 13), (200, 14), (400, 18)])
    def test_seeded_large_orders(self, n, seed):
        t = pc.random_triangle(n, seed)
        assert vertical_dominoes(pc.family_to_tiling(pc.comb(t))) == 2 * zero_bits(t)

    def test_a_transposed_tiling_fails(self):
        # swapping the two coordinates of every cell is its own inverse, so a
        # bridge followed by it passes every round trip; it trades vertical
        # dominoes for horizontal ones
        t = pc.random_triangle(30, 15)
        tiling = pc.family_to_tiling(pc.comb(t))
        swapped = pc.DominoTiling.from_pairs(((a[1], a[0]), (b[1], b[0]))
                                             for a, b in tiling.dominoes)
        assert vertical_dominoes(swapped) != 2 * zero_bits(t)


def flips(dominoes: frozenset) -> Iterator[frozenset]:
    """The tilings one flip away: two parallel dominoes that fill a 2x2
    block turn a quarter, each found from its lower-left domino."""
    for p, q in dominoes:
        across = (q[1] - p[1], q[0] - p[0])
        p2 = (p[0] + across[0], p[1] + across[1])
        q2 = (q[0] + across[0], q[1] + across[1])
        if (p2, q2) in dominoes:
            yield dominoes - {(p, q), (p2, q2)} | {(p, p2), (q, q2)}


def flip_rank(t: pc.BitTriangle) -> int:
    return sum(2 * (i - 1 - j) + 1 for i, row in enumerate(t.bits)
               for j, b in enumerate(row) if b == 0)


def bottom_tiling(n: int) -> pc.DominoTiling:
    """The tiling of the all-ones triangle of order n, of flip rank 0."""
    return pc.family_to_tiling(pc.comb(pc.BitTriangle(tuple((1,) * i for i in range(n)))))


@functools.cache
def flip_distances(n: int) -> dict[frozenset, int]:
    """The dominoes of every tiling that 2x2 flips reach from the bottom
    tiling of order n, with the number of flips, breadth first."""
    bottom = bottom_tiling(n).dominoes
    distance, frontier = {bottom: 0}, [bottom]
    while frontier:
        ahead = []
        for tiling in frontier:
            for other in flips(tiling):
                if other not in distance:
                    distance[other] = distance[tiling] + 1
                    ahead.append(other)
        frontier = ahead
    return distance


def height_rank(t: pc.DominoTiling, n: int) -> int:
    """The flip rank of t over the bottom tiling of order n, read off the
    Thurston height function: (sum of h_t - sum of h_bottom) / 4."""
    rise = oracles.height_sum(t) - oracles.height_sum(bottom_tiling(n))
    assert rise % 4 == 0
    return rise // 4


class TestFlipRank:
    """Combing carries the flip rank of the Elkies-Kuperberg-Larsen-Propp
    weight pointwise: family_to_tiling(comb(t)) lies sum(2(i-1-j)+1) over
    the zero bits t.bits[i][j] flips above the tiling of the all-ones
    triangle, measured here by a breadth-first search over 2x2 flips and,
    at any order, by the Thurston height function.  Both read only the
    dominoes, so a bridge or a comb that is wrong but still invertible,
    which the round trips pass, fails them."""

    def test_every_triangle_up_to_order_5(self, triangles_by_n):
        reached = []
        for n in range(1, 6):
            distance = flip_distances(n)
            reached.append(len(distance))
            ranks = {pc.family_to_tiling(pc.comb(t)).dominoes: flip_rank(t)
                     for t in triangles_by_n[n]}
            assert ranks == distance
        assert reached == [1, 2, 8, 64, 1024]
        assert max(ranks.values()) == 30

    def test_height_function_matches_flip_distance(self):
        # the oracle of the large orders against the breadth-first search
        for n in range(1, 6):
            for dominoes, distance in flip_distances(n).items():
                assert height_rank(pc.DominoTiling(dominoes), n) == distance

    @pytest.mark.parametrize("n,seed", [(50, 16), (200, 17), (400, 19)])
    def test_seeded_large_orders(self, n, seed):
        t = pc.random_triangle(n, seed)
        assert height_rank(pc.family_to_tiling(pc.comb(t)), n) == flip_rank(t)

    def test_weight_enumerator_is_the_eklp_product(self, disjoint_by_n):
        # independently of comb: summed over every disjoint family, the
        # weight x^(v/2) q^r of its tiling is prod_{k<m} (1 + x q^(2k+1))^(m-k)
        for n in range(1, 6):
            m = n - 1
            product = Counter({(0, 0): 1})
            for k in range(m):
                for _ in range(m - k):
                    nxt = Counter(product)
                    for (a, b), c in product.items():
                        nxt[a + 1, b + 2 * k + 1] += c
                    product = nxt
            weights = Counter()
            for f in disjoint_by_n[n]:
                tiling = pc.family_to_tiling(f)
                weights[vertical_dominoes(tiling) // 2, height_rank(tiling, n)] += 1
            assert weights == product


class TestBridgeAgainstOracles:
    """The Aztec bridge against the general-region API it no longer calls
    (the oracles in conftest.py).  The orders 50, 100 and 200 are covered by
    test_round_trip_large_order and test_large_order_involution_and_crossings."""

    def test_every_disjoint_family_up_to_order_5(self, disjoint_by_n):
        for n in range(1, 6):
            for f in disjoint_by_n[n]:
                t = pc.family_to_tiling(f)
                assert t == oracle_tiling(f)
                # the one decoder, on the walk's P and on _fill's, which
                # also fills the white cells' slots; t holds the walk's P,
                # so _fill packs the tiling of the same frozenset
                for packed in (_partners(f), _cover(pc.DominoTiling(t.dominoes))):
                    assert _packed_text(*packed) == t.to_text()
                assert pc.tiling_to_family(t) == f == oracle_family(t)
                assert pc.dual_family(f) == oracle_dual(f)

    def test_conventions_up_to_order_4(self, disjoint_by_n):
        # repr tells -0.0 from 0.0, which the drawings print differently
        for n in range(1, 6):
            for f in disjoint_by_n[n]:
                t = pc.family_to_tiling(f)
                for conv in pc.Convention:
                    assert repr(pc.convention_paths(t, conv)) == \
                        repr(oracle_convention_paths(t, conv))

    @pytest.mark.parametrize("n,seed", [(65, 5), (200, 3)])
    def test_conventions_at_seeded_large_orders(self, n, seed):
        # the signed zeros of test_conventions_up_to_order_4, on orders
        # whose drawings reach far from the axes
        t = pc.family_to_tiling(pc.comb(pc.random_triangle(n, seed)))
        for conv in pc.Convention:
            assert repr(pc.convention_paths(t, conv)) == repr(oracle_convention_paths(t, conv))


class TestPackedText:
    """_packed_text against _text, which sorts the formatted lines: the
    packed writer sorts nothing, taking rows and columns in the order of
    their fields "s " and "u " as strings.  The orders 9 to 11 and 99 to
    100 put the digit counts of rows and columns on both sides of a
    boundary; the walk's P and _fill's, which fills white slots too, are
    both written."""

    @staticmethod
    def check(t):
        want = _text(a + b for a, b in t.dominoes)
        for packed in (t._held, _cover(pc.DominoTiling(t.dominoes))):
            assert _packed_text(*packed) == want

    @pytest.mark.parametrize("m", [9, 10, 11, 99, 100])
    def test_digit_count_boundaries(self, m):
        self.check(pc.family_to_tiling(pc.comb(pc.random_triangle(m + 1, m))))

    def test_every_tiling_up_to_order_4(self, disjoint_by_n):
        for n in range(1, 6):
            for f in disjoint_by_n[n]:
                self.check(pc.family_to_tiling(f))


def rect_lines(doc: str) -> list[str]:
    return [line for line in doc.splitlines() if line.startswith("<rect")]


class TestPackedBridgeAgainstReferences:
    """The step walk of _partners against the point walk it replaced
    (oracles.partners_by_points), and the rects that the overlay places
    straight from the packed tiling against those that render_tiling draws
    from the sorted pairs of a DominoTiling."""

    def test_walk_on_every_disjoint_family_up_to_order_5(self, disjoint_by_n):
        for n in range(1, 6):
            for f in disjoint_by_n[n]:
                assert _partners(f) == oracles.partners_by_points(f)

    @pytest.mark.parametrize("n,seed", [(65, 5), (200, 3)])
    def test_walk_at_seeded_large_orders(self, n, seed):
        f = pc.comb(pc.random_triangle(n, seed))
        assert _partners(f) == oracles.partners_by_points(f)

    def test_walk_rejects_meeting_families_alike(self, schroder_by_n, disjoint_by_n):
        meeting = [f for n in range(1, 5) for f in schroder_by_n[n] - disjoint_by_n[n]]
        assert len(meeting) == 4 + 200
        for f in meeting:
            with pytest.raises(pc.NotDisjoint) as expected:
                oracles.partners_by_points(f)
            with pytest.raises(pc.NotDisjoint) as raised:
                _partners(f)
            assert str(raised.value) == str(expected.value)

    def test_overlay_rects_up_to_order_5(self, disjoint_by_n):
        for n in range(1, 6):
            for f in disjoint_by_n[n]:
                t = pc.family_to_tiling(f)
                rects = rect_lines(render_tiling(t))
                for conv in pc.Convention:
                    assert rect_lines(render_overlay(t, conv)) == rects

    @pytest.mark.parametrize("n,seed", [(65, 5), (200, 3)])
    def test_overlay_rects_at_seeded_large_orders(self, n, seed):
        t = pc.family_to_tiling(pc.comb(pc.random_triangle(n, seed)))
        rects = rect_lines(render_tiling(t))
        assert len(rects) == n * (n - 1)
        for conv in pc.Convention:
            assert rect_lines(render_overlay(t, conv)) == rects


def _neighbours(c):
    return [(c[0] + 1, c[1]), (c[0] - 1, c[1]), (c[0], c[1] + 1), (c[0], c[1] - 1)]


def _mutants(t: pc.DominoTiling, rng: random.Random):
    """Tilings one edit away from t: moved, dropped, repeated, stretched and
    flipped dominoes, a translated diamond and non-Aztec counts."""
    dominoes = sorted(t.dominoes)
    cells = t.cells()
    picks = rng.sample(dominoes, 4)
    for p, q in picks:
        rest = t.dominoes - {(p, q)}
        for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0), (1, 1), (0, 2)):
            yield "move", rest | {((p[0] + di, p[1] + dj), (q[0] + di, q[1] + dj))}
        yield "drop", rest
        yield "add overlapping", t.dominoes | {(p, next(
            c for c in _neighbours(p) if c != q))}
        other = rng.choice(dominoes)
        if other != (p, q):
            # the same cells twice, once in each orientation
            yield "repeat reversed", rest | {(other[1], other[0])}
        yield "stretch", rest | {(p, (2 * q[0] - p[0], 2 * q[1] - p[1]))}
        yield "same cell twice", rest | {(p, p)}
        yield "diagonal", rest | {(p, (q[0] + q[1] - p[1], q[1] + q[0] - p[0]))}
        yield "swap for a neighbour", rest | {(p, next(
            c for c in _neighbours(p) if c != q and c in cells))}
        outside = [c for c in _neighbours(p) if c not in cells]
        if outside:
            yield "swap outward", rest | {(p, outside[0])}
    for di, dj in ((0, 2), (1, 1), (-2, 0), (0, -1)):
        yield "translate", frozenset(((a + di, b + dj), (c + di, d + dj))
                                     for (a, b), (c, d) in t.dominoes)
    yield "add a far domino", t.dominoes | {((100, 100), (100, 101))}
    flips = 0
    for (a, b), (c, d) in dominoes:
        if a == c and ((a + 1, b), (a + 1, d)) in t.dominoes:
            flips += 1
            yield "flip", (t.dominoes - {((a, b), (c, d)), ((a + 1, b), (a + 1, d))}) | {
                ((a, b), (a + 1, b)), ((a, d), (a + 1, d))}
            if flips == 3:
                break


# every reader of a tiling that checks its exact cover
COVER_CHECKED = [pc.tiling_to_family] + [partial(pc.convention_paths, conv=conv)
                                         for conv in pc.Convention]


def rejection(call, *args) -> str | None:
    """The NotATiling message of call(*args), or None when it returns."""
    try:
        call(*args)
    except pc.NotATiling as exc:
        return str(exc)
    return None


def assert_checks_match_the_reference(t: pc.DominoTiling) -> None:
    """render_tiling checks t against its own cells, and tiling_to_paths
    against the diamond its domino count names: each raises the message of
    the reference check (oracles.check_tiles) on that region, or returns
    when the reference passes."""
    own, diamond = pc.Region(t.cells()), pc.aztec_region(aztec_order(t))
    assert rejection(render_tiling, t) == rejection(oracles.check_tiles, own, t)
    assert rejection(pc.tiling_to_paths, diamond, t) == \
        rejection(oracles.check_tiles, diamond, t)


def two_fault_tiling() -> pc.DominoTiling:
    """A seeded order-64 tiling read from a file in which two dominoes are
    stretched apart: two faults, so a check names the first it meets."""
    lines = pc.family_to_tiling(pc.comb(pc.random_triangle(65, 5))).to_text().splitlines()
    for k in (768, 1719):
        a, b, c, d = map(int, lines[k].split())
        lines[k] = f"{a} {b} {c + 2} {d}"
    return pc.DominoTiling.from_text("\n".join(lines) + "\n")


class TestRejectionParity:
    """The fast checks reject exactly the tilings that the general-region
    exact-cover check rejects on the diamond the domino count names."""

    @pytest.mark.parametrize("n,seed", [(7, 11), (51, 12)])
    def test_mutants(self, n, seed):
        t = pc.family_to_tiling(pc.comb(pc.random_triangle(n, seed)))
        kinds = {}
        for kind, dominoes in _mutants(t, random.Random(seed)):
            mutant = pc.DominoTiling(frozenset(dominoes))
            assert_checks_match_the_reference(mutant)
            rejected = oracle_rejects(mutant)
            kinds.setdefault(kind, set()).add(rejected)
            if not rejected:
                assert pc.tiling_to_family(mutant) == oracle_family(mutant)
                for conv in pc.Convention:
                    assert repr(pc.convention_paths(mutant, conv)) == \
                        repr(oracle_convention_paths(mutant, conv))
                continue
            for call in COVER_CHECKED:
                with pytest.raises(pc.NotATiling) as err:
                    call(mutant)
                assert re.search(r"cells? \(-?\d+, -?\d+\)|is not an Aztec diamond cell count",
                                 str(err.value)), str(err.value)
        assert kinds["flip"] == {False}
        assert {k for k, seen in kinds.items() if seen == {True}} == set(kinds) - {"flip"}

    def test_two_fault_file(self):
        t = two_fault_tiling()
        assert_checks_match_the_reference(t)
        assert rejection(render_tiling, t) == "cells (27, 5) and (29, 6) are not adjacent"

    @pytest.mark.parametrize("dominoes,message", [
        ({((1, -1), (1, 0)), ((2, 0), (2, 1))}, "cell (2, 1) lies outside the order-1 diamond"),
        ({((1, -1), (1, 0)), ((1, 0), (2, 0))}, "cell (1, 0) covered twice"),
        ({((1, -1), (1, 0)), ((1, -1), (2, -1))}, "cell (1, -1) covered twice"),
        ({((1, -1), (1, 0)), ((2, -1), (1, 1))}, "cells (1, 1) and (2, -1) are not adjacent"),
        ({((1, -1), (2, -1)), ((1, 0), (1, 0))}, "cells (1, 0) and (1, 0) are not adjacent"),
        ({((1, -1), (1, 0))}, "2 cells is not an Aztec diamond cell count"),
    ])
    def test_messages_name_the_cell(self, dominoes, message):
        t = pc.DominoTiling(frozenset(dominoes))
        assert oracle_rejects(t)
        for call in COVER_CHECKED:
            with pytest.raises(pc.NotATiling) as err:
                call(t)
            assert str(err.value) == message


class TestDuality:
    def test_all_diagonal_self_dual(self):
        for n in (1, 2, 3, 4):
            t = pc.BitTriangle.from_rows([[1] * i for i in range(n)])
            f = pc.family_from_bits(t)
            assert pc.dual_family(f) == f

    def test_empty(self):
        f = pc.PathFamily((), ())
        assert pc.dual_family(f) == f

    def test_empty_invalid(self):
        # an order-0 family with a D row is invalid, not its own dual
        with pytest.raises(pc.InvalidFamily):
            pc.dual_family(pc.PathFamily((), ((0,),)))

    def test_involution(self, disjoint_by_n):
        for n in range(1, 5):
            for f in disjoint_by_n[n]:
                assert pc.dual_family(pc.dual_family(f)) == f

    @staticmethod
    def _step_starts(f, which):
        out = set()
        for p in pc.explicit_paths(f):
            lev, col = p.start
            for s in p.steps:
                if s == which:
                    out.add((lev, col))
                lev += s[0]
                col += s[1]
        return out

    def test_midpoint_crossings(self, disjoint_by_n):
        from pathcomb.families import H_STEP, V_STEP

        for n in range(1, 5):
            for f in disjoint_by_n[n]:
                g = pc.dual_family(f)
                # the dual point (k, l) sits at (n - 1/2 - k, n - 1/2 - l),
                # so its step starting at (n - k, n - 1 - l) crosses the
                # midpoint of a step of f starting at (k, l)
                reflect = lambda pts: {(n - k, n - 1 - l) for k, l in pts}
                assert reflect(self._step_starts(f, H_STEP)) == \
                    self._step_starts(g, V_STEP)
                assert reflect(self._step_starts(f, V_STEP)) == \
                    self._step_starts(g, H_STEP)

    @pytest.mark.parametrize("n,seed", [(50, 1), (100, 2), (200, 3)])
    def test_large_order_involution_and_crossings(self, n, seed):
        from pathcomb.families import H_STEP, V_STEP

        f = pc.comb(pc.random_triangle(n, seed))
        g = pc.dual_family(f)
        assert g == oracle_dual(f)
        assert g != f and pc.dual_family(g) == f
        reflect = lambda pts: {(n - k, n - 1 - l) for k, l in pts}
        assert reflect(self._step_starts(f, H_STEP)) == self._step_starts(g, V_STEP)
        assert reflect(self._step_starts(f, V_STEP)) == self._step_starts(g, H_STEP)

    def test_combed_example_crossings(self):
        from pathcomb.families import H_STEP

        f = pc.comb(tri([0], [1, 0]))
        g = pc.dual_family(f)
        assert len(self._step_starts(f, H_STEP)) == 2
        assert len(self._step_starts(g, H_STEP)) == 2


class TestConventions:
    @pytest.mark.parametrize("conv", list(pc.Convention))
    def test_symmetry_table(self, conv):
        # each symmetry maps a list of points in one pass, keeping their order
        for m in range(7):
            cell = _symmetry(conv, m, cells=True)
            point = _symmetry(conv, m, cells=False)
            region = sorted(pc.aztec_region(m).cells)
            mapped = cell(region)
            assert sorted(mapped) == region
            assert cell(mapped) == region
            centres = [(i + 0.5, j + 0.5) for i, j in region]
            assert point(centres) == [(i + 0.5, j + 0.5) for i, j in mapped]
            assert point(point(centres)) == centres
            edges = [(i + 0.5, float(j)) for i, j in region]
            assert point(point(edges)) == edges
            assert cell([]) == point([]) == []

    @pytest.mark.parametrize("conv", [-1, 4, 7])
    def test_out_of_range_convention(self, conv):
        # the symmetry table is indexed through Convention, so a value
        # outside 0..3 is a ValueError, not another convention or an IndexError
        t = pc.family_to_tiling(pc.comb(pc.random_triangle(4, 1)))
        with pytest.raises(ValueError, match=f"{conv} is not a valid Convention"):
            _symmetry(conv, 3, cells=True)
        with pytest.raises(ValueError, match=f"{conv} is not a valid Convention"):
            pc.convention_paths(t, conv)
        with pytest.raises(ValueError, match=f"{conv} is not a valid Convention"):
            render_overlay(t, conv)

    def test_zeros_of_one_sign_per_axis(self):
        # the SVG formats each axis by lattice value, where 0.0 and -0.0 are
        # one key: so on each axis of one picture every zero has one sign
        tilings = [t for m in (0, 1, 2) for t in oracles.enumerate_tilings(pc.aztec_region(m))]
        tilings.append(pc.family_to_tiling(pc.comb(pc.random_triangle(30, 8))))
        for t in tilings:
            for conv in pc.Convention:
                points = [p for poly in pc.convention_paths(t, conv) for p in poly]
                for axis in (0, 1):
                    signs = {math.copysign(1, p[axis]) for p in points if p[axis] == 0}
                    assert len(signs) <= 1

    def test_four_extractions(self):
        for m in (1, 2):
            for t in oracles.enumerate_tilings(pc.aztec_region(m)):
                for conv in pc.Convention:
                    polys = pc.convention_paths(t, conv)
                    assert len(polys) == m + 1
                    assert len(polys[0]) == 1  # the carrier of the empty path

    def test_canonical_matches_edge_paths(self):
        region = pc.aztec_region(2)
        for t in oracles.enumerate_tilings(region):
            fam = pc.tiling_to_paths(region, t)
            polys = pc.convention_paths(t, pc.Convention.CANONICAL)
            want = sorted([(e[0] + 0.5, float(e[1])) for e in path] for path in fam.paths)
            assert sorted(polys[1:]) == want

    def test_distinct_conventions_give_distinct_pictures(self):
        t = sorted(oracles.enumerate_tilings(pc.aztec_region(2)),
                   key=lambda x: x.to_text())[1]
        pictures = {tuple(sorted(map(tuple, pc.convention_paths(t, c))))
                    for c in pc.Convention}
        assert len(pictures) == 4


class TestSerialization:
    def test_region_round_trip(self):
        region = pc.aztec_region(2)
        assert pc.Region.from_text(region.to_text()) == region

    def test_tiling_round_trip_and_canonical(self):
        for t in oracles.enumerate_tilings(pc.aztec_region(2)):
            text = t.to_text()
            assert pc.DominoTiling.from_text(text) == t
            assert pc.DominoTiling.from_text(text).to_text() == text
        lines = sorted(oracles.enumerate_tilings(pc.aztec_region(1)),
                       key=lambda x: x.to_text())[0].to_text().splitlines()
        assert lines == sorted(lines)

    def test_parse_errors(self):
        with pytest.raises(pc.ParseError):
            pc.Region.from_text("1 2 3\n")
        with pytest.raises(pc.ParseError):
            pc.DominoTiling.from_text("1 2 3\n")
        with pytest.raises(pc.ParseError):
            pc.DominoTiling.from_text("a b c d\n")


    def test_two_faults_name_the_first_in_set_order(self):
        # _cover names the first fault in the iteration order of the set of
        # dominoes, which depends on how from_text builds it: here a set
        # built straight from the list of dominoes would name (51, -49)
        with pytest.raises(pc.NotATiling) as err:
            pc.tiling_to_family(two_fault_tiling())
        assert str(err.value) == "cells (27, 5) and (29, 6) are not adjacent"

    def test_repeated_cell_is_a_parse_error(self):
        with pytest.raises(pc.ParseError) as err:
            pc.Region.from_text("1 2\n3 4\n1 2\n")
        assert str(err.value) == "cell repeats line 1 (line 3)"
        assert err.value.line == 3

    def test_orientation_of_a_pair_does_not_matter(self):
        t = pc.DominoTiling(frozenset({((1, 0), (1, -1)), ((2, -1), (2, 0))}))
        assert t.dominoes == {((1, -1), (1, 0)), ((2, -1), (2, 0))}
        assert t.to_text() == "1 -1 1 0\n2 -1 2 0\n"
        assert t == pc.DominoTiling.from_pairs(t.dominoes)
        assert t == pc.DominoTiling.from_text(t.to_text())
        assert t == pc.family_to_tiling(pc.tiling_to_family(t))

    def test_from_pairs_rejects_a_repeated_domino(self):
        for second in (((0, 0), (0, 1)), ((0, 1), (0, 0))):
            with pytest.raises(pc.NotATiling, match="given twice"):
                pc.DominoTiling.from_pairs([((0, 0), (0, 1)), ((1, 0), (1, 1)), second])


class TestHeldTiling:
    """A tiling that holds its packed form, from family_to_tiling or read
    from a file of an Aztec diamond, keeps the records contract of the
    tiling of the same dominoes built from their frozenset, before and
    after the first read of its dominoes."""

    CHECKS = {
        "==": lambda t, plain: t == plain and plain == t and not t != plain,
        "hash": lambda t, plain: hash(t) == hash(plain) == hash((plain.dominoes,)),
        "repr": lambda t, plain: repr(t) == repr(plain),
        "pickle": lambda t, plain: all(
            type(back) is pc.DominoTiling and back == plain and hash(back) == hash(plain)
            for back in [pickle.loads(pickle.dumps(t, protocol))
                         for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            + [copy.copy(t), copy.deepcopy(t)]),
    }

    @staticmethod
    def frozen(t) -> bool:
        for name in ("dominoes", "_held"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, name)
        return True

    def check(self, f: pc.PathFamily) -> None:
        plain = pc.DominoTiling(pc.family_to_tiling(f).dominoes)
        assert plain._held is None
        text = plain.to_text()
        makers = (lambda: pc.family_to_tiling(f), lambda: pc.DominoTiling.from_text(text))
        for make in makers:
            for name, holds in [*self.CHECKS.items(), ("frozen", lambda t, _: self.frozen(t))]:
                before, after = make(), make()
                assert before._held is not None
                after.dominoes
                assert holds(before, plain) and holds(after, plain), name
                assert before.dominoes == after.dominoes == plain.dominoes
                assert before.to_text() == text

    def test_every_tiling_up_to_order_3(self, disjoint_by_n):
        for n in range(1, 5):
            for f in disjoint_by_n[n]:
                self.check(f)

    def test_seeded_order_64(self):
        self.check(pc.comb(pc.random_triangle(65, 64)))

    def test_every_other_construction_holds_no_packed_form(self):
        t = pc.family_to_tiling(pc.comb(pc.random_triangle(4, 1)))
        text = t.to_text()
        faulty = text + text.splitlines()[0] + "\n"
        others = [pc.DominoTiling(t.dominoes), pc.DominoTiling.from_pairs(t.dominoes),
                  pc.DominoTiling.from_text("0 0 0 1\n"), pickle.loads(pickle.dumps(t))]
        assert all(other._held is None for other in others)
        with pytest.raises(pc.ParseError, match="domino repeats line 1"):
            pc.DominoTiling.from_text(faulty)


class TestColors:
    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    def test_parity(self, cell):
        assert is_black(cell) == ((cell[0] - cell[1]) % 2 == 0)
        assert is_black(cell) != is_black((cell[0], cell[1] + 1))
