from __future__ import annotations

import functools

import hypothesis.strategies as st
import pytest

import pathcomb as pc
from pathcomb.tilings import Convention, EdgePathFamily, _symmetry
from oracles import check_tiles


@pytest.fixture(scope="session")
def triangles_by_n():
    return {n: list(pc.all_bit_triangles(n)) for n in range(6)}


@pytest.fixture(scope="session")
def disjoint_by_n():
    return {n: pc.enumerate_disjoint(n) for n in range(6)}


@pytest.fixture(scope="session")
def schroder_by_n():
    return {n: pc.enumerate_schroder(n) for n in range(6)}


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make the enumeration oracles fail as soon as they list a Schröder row
    or a triangle, so a test of an order they must refuse fails fast where
    they would start on it."""
    from pathcomb import enumeration

    def refuse(*args):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(enumeration, "_schroder_rows", refuse)
    monkeypatch.setattr(enumeration, "all_bit_triangles", refuse)


@st.composite
def bit_triangles(draw, max_n: int = 7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    rows = tuple(tuple(draw(st.integers(0, 1)) for _ in range(i)) for i in range(n))
    return pc.BitTriangle(rows)


@st.composite
def path_families(draw, max_n: int = 6):
    """Valid families at an arbitrary combing stage: cliff-shaped when the
    drawn stage is n, disjoint when it is 0."""
    t = draw(bit_triangles(max_n=max_n))
    f = pc.family_from_bits(t)
    stage = draw(st.integers(0, t.n)) if t.n else 0
    for k in range(t.n - 1, stage - 1, -1):
        f = pc.comb_column(f, k)
    return f


@st.composite
def schroder_rows(draw, i: int):
    """The B and D rows of one path from (i, 0) to (0, i) that stays on or
    above the anti-diagonal."""
    level, brow, drow = i, [], []
    for j in range(i):
        d = draw(st.integers(0, level - (i - j)))
        b = draw(st.integers(0, 1))
        level -= d + b
        brow.append(b)
        drow.append(d)
    drow.append(level)
    return tuple(brow), tuple(drow)


@st.composite
def valid_families(draw, max_n: int = 8):
    """Valid families that may be non-disjoint: a combed family with up to
    two of its paths replaced by arbitrary paths."""
    f = pc.comb(draw(bit_triangles(max_n=max_n)))
    if not f.n:
        return f
    B, D = list(f.B), list(f.D)
    for i in draw(st.sets(st.integers(0, f.n - 1), max_size=2)):
        B[i], D[i] = draw(schroder_rows(i))
    return pc.PathFamily(tuple(B), tuple(D))


def column_sums(rows) -> tuple[int, ...]:
    from itertools import zip_longest

    return tuple(sum(col) for col in zip_longest(*rows, fillvalue=0)) if rows else ()


TOKENS = ("0", "1", "2", "7", "-1", "+1", "10", "x", "B:", "D:", "|", "B:|")
soup_lines = st.one_of(st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join),
                       st.text(max_size=12))
cells = st.tuples(st.integers(-3, 3), st.integers(-3, 3))

VALID_TEXTS = {
    "triangle": bit_triangles(max_n=6).map(pc.BitTriangle.to_text),
    "family": valid_families(max_n=6).map(pc.PathFamily.to_text),
    "region": st.frozensets(cells, max_size=8).map(lambda s: pc.Region(s).to_text()),
    "tiling": st.one_of(
        bit_triangles(max_n=5).filter(lambda t: t.n).map(
            lambda t: pc.family_to_tiling(pc.comb(t)).to_text()),
        st.frozensets(st.tuples(cells, cells).map(lambda pair: tuple(sorted(pair))),
                      max_size=6).map(lambda s: pc.DominoTiling(s).to_text())),
}


@st.composite
def mutated(draw, texts):
    """A text with one to three lines deleted, inserted, repeated or edited."""
    lines = draw(texts).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(("delete", "insert", "repeat", "edit")))
        if op == "insert" or not lines:
            lines.insert(i, draw(soup_lines))
        elif op == "delete":
            del lines[i % len(lines)]
        elif op == "repeat":
            lines.insert(i, draw(st.sampled_from(lines)))
        else:
            fields = lines[i % len(lines)].split() or [""]
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i % len(lines)] = " ".join(fields)
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", "\n\n", "\r\n")))


def format_texts(kind: str):
    """Token soup, valid serializations of the given format, and mutations of them."""
    soup = st.lists(soup_lines, max_size=8).map(lambda lines: "\n".join(lines) + "\n")
    return st.one_of(soup, VALID_TEXTS[kind], mutated(VALID_TEXTS[kind]))


@functools.cache
def seeded_tiling_text(n: int, seed: int) -> str:
    """The tiling file of the seeded family of order n (an order n-1
    diamond): the combed random_triangle(n, seed)."""
    return pc.family_to_tiling(pc.comb(pc.random_triangle(n, seed))).to_text()


# Oracles for the Aztec bridge, built from the general-region API: the sheared
# explicit paths go through paths_to_tiling, and tilings come back through
# tiling_to_paths, both on aztec_region.

def aztec_order(t: pc.DominoTiling) -> int:
    m = 0
    while m * (m + 1) < len(t.dominoes):
        m += 1
    return m


def oracle_tiling(f: pc.PathFamily) -> pc.DominoTiling:
    """family_to_tiling's oracle, for a disjoint family."""
    edge_paths = [tuple((lev + col, col - lev) for lev, col in path.points())
                  for path in pc.explicit_paths(f)[1:]]
    return pc.paths_to_tiling(pc.aztec_region(f.n - 1), EdgePathFamily.from_paths(edge_paths))


def oracle_family(t: pc.DominoTiling) -> pc.PathFamily:
    """tiling_to_family's oracle, for a tiling of an Aztec diamond."""
    fam = pc.tiling_to_paths(pc.aztec_region(aztec_order(t)), t)
    paths = [pc.ExplicitPath((0, 0), ())]
    paths.extend(pc.ExplicitPath.from_points([((s - u) // 2, (s + u) // 2) for s, u in path])
                 for path in fam.paths)
    return pc.family_from_paths(paths)


def _pointwise(image):
    """A symmetry of _symmetry, which maps a list of points in one pass,
    applied to one point at a time."""
    return lambda p: image([p])[0]


def oracle_dual(f: pc.PathFamily) -> pc.PathFamily:
    """dual_family's oracle: the round trip through the half-turned tiling."""
    if f.n == 0:
        return f
    rot = _pointwise(_symmetry(Convention.HALF_TURN, f.n - 1, cells=True))
    return oracle_family(pc.DominoTiling.from_pairs(
        (rot(a), rot(b)) for a, b in oracle_tiling(f).dominoes))


def oracle_convention_paths(t: pc.DominoTiling, conv: Convention) -> list:
    """convention_paths' oracle, for a tiling of an Aztec diamond."""
    m = aztec_order(t)
    cell = _pointwise(_symmetry(conv, m, cells=True))
    point = _pointwise(_symmetry(conv, m, cells=False))
    mapped = pc.DominoTiling.from_pairs((cell(a), cell(b)) for a, b in t.dominoes)
    polylines = [[point((0.5, 0.0))]]
    for path in pc.tiling_to_paths(pc.aztec_region(m), mapped).paths:
        polylines.append([point((e[0] + 0.5, float(e[1]))) for e in path])
    return polylines


def oracle_rejects(t: pc.DominoTiling) -> bool:
    """True when t does not tile the Aztec diamond its domino count names."""
    m = aztec_order(t)
    if m * (m + 1) != len(t.dominoes):
        return True
    try:
        check_tiles(pc.aztec_region(m), t)
    except pc.NotATiling:
        return True
    return False
