from __future__ import annotations

import hypothesis.strategies as st
import pytest

import pathcomb as pc


@pytest.fixture(scope="session")
def triangles_by_n():
    return {n: list(pc.all_bit_triangles(n)) for n in range(6)}


@pytest.fixture(scope="session")
def disjoint_by_n():
    return {n: pc.enumerate_disjoint(n) for n in range(6)}


@pytest.fixture(scope="session")
def schroder_by_n():
    return {n: pc.enumerate_schroder(n) for n in range(6)}


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
