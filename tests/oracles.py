"""Reference checkers that the tests compare the library against and that no
library code calls.

They stay as simple as their definitions: in_pathfam_nk decides a stage of
combing by walking explicit paths point by point, enumerate_tilings lists
every domino tiling of a region by backtracking, height_sum adds up the
Thurston height function of a tiling vertex by vertex, supports_disjoint
compares the point sets of a family's paths, and partners_by_points packs
the tiling of a family by walking the lattice points of its paths.  The
last two read those points off explicit_paths, which no library code calls.
check_tiles is the exact-cover check of a tiling against a region, with its
messages, as the library ran it before render_tiling and tiling_to_paths
took their check from the one-pass row decoder tilings._tile_rows.
integers_by_lines is families._integers as it was before the canonical
layout was checked in one pass: every text is checked line by line.
detect_kind_by_lines is cli._detect_kind as it was before it stopped at
the first nonblank line: it splits the whole text into lines.
Keeping them here, outside the package, means the fast code they check
cannot come to share a helper with them.
"""

from __future__ import annotations

from pathcomb.enumeration import CapExceeded
from pathcomb.families import NotDisjoint, ParseError, PathFamily, _fields, _Memo, explicit_paths
from pathcomb.fields import _plain_int
from pathcomb.tilings import Cell, DominoTiling, NotATiling, Region, is_black


def in_pathfam_nk(f: PathFamily, k: int) -> bool:
    """Membership in the k-th intermediate stage of combing.

    True when no path has vertical steps in a non-final column before
    column k and the supports of P_k, ..., P_{n-1} are pairwise disjoint.
    Stage n is exactly the cliff-shaped families, stage 0 the disjoint
    ones.
    """
    if not 0 <= k <= f.n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={f.n}")
    for i in range(f.n):
        for j in range(min(k, i)):
            if f.D[i][j]:
                return False
    paths = explicit_paths(f)
    seen: set[tuple[int, int]] = set()
    for i in range(k, f.n):
        for pt in paths[i].points():
            if pt in seen:
                return False
            seen.add(pt)
    return True


def enumerate_tilings(s: Region, cap: int = 40) -> set[DominoTiling]:
    """All domino tilings of s, by backtracking on the first uncovered cell."""
    if len(s.cells) > cap:
        raise CapExceeded(f"{len(s.cells)} cells exceed cap {cap}")
    cells = sorted(s.cells)
    cellset = s.cells
    out: set[DominoTiling] = set()
    covered: set[Cell] = set()
    pairs: list[tuple[Cell, Cell]] = []

    def rec(start: int) -> None:
        idx = start
        while idx < len(cells) and cells[idx] in covered:
            idx += 1
        if idx == len(cells):
            out.add(DominoTiling(frozenset(pairs)))
            return
        c = cells[idx]
        covered.add(c)
        for di, dj in ((0, 1), (1, 0)):
            nb = (c[0] + di, c[1] + dj)
            if nb in cellset and nb not in covered:
                covered.add(nb)
                pairs.append((c, nb))
                rec(idx + 1)
                pairs.pop()
                covered.remove(nb)
        covered.remove(c)

    rec(0)
    return out


def check_tiles(s: Region, t: DominoTiling) -> None:
    """Raises NotATiling unless the dominoes of t are adjacent pairs that
    cover the cells of s exactly once, naming the first fault in the
    iteration order of t.dominoes."""
    seen: set[Cell] = set()
    for c1, c2 in t.dominoes:
        if abs(c1[0] - c2[0]) + abs(c1[1] - c2[1]) != 1:
            raise NotATiling(f"cells {c1} and {c2} are not adjacent")
        for c in (c1, c2):
            if c in seen:
                raise NotATiling(f"cell {c} covered twice")
            seen.add(c)
    if seen != s.cells:
        raise NotATiling("dominoes do not cover exactly the region")


def height_sum(t: DominoTiling) -> int:
    """The sum over the corners of the cells of t of Thurston's height
    function (Thurston, "Conway's tiling groups", 1990), which is 0 at the
    lower-left corner of the lowest, leftmost cell.

    Vertex (i, j) is the lower-left corner of cell (i, j).  Walking along a
    unit edge, the height moves +1 when the cell on the left is black and -1
    when it is white, if the edge bounds a domino; along the inner edge of
    a domino it moves -3 and +3 instead, so that the walk around any cell
    closes.  A flip turns two dominoes of a 2x2 block and moves the height
    of its centre by 4 alone, so on the tilings of one region the flip rank
    is the difference of height sums over 4.  Raises AssertionError when
    two walks give one vertex different heights, which a tiling rules out.
    """
    partner: dict[Cell, Cell] = {}
    for p, q in t.dominoes:
        partner[p], partner[q] = q, p
    if not partner:
        return 0
    start = min(partner)
    height = {start: 0}
    todo = [start]
    while todo:
        i, j = v = todo.pop()
        # each step: the vertex it reaches, the cell on its left, the cell on its right
        for w, left, right in (((i, j + 1), (i, j), (i - 1, j)),
                               ((i, j - 1), (i - 1, j - 1), (i, j - 1)),
                               ((i + 1, j), (i, j - 1), (i, j)),
                               ((i - 1, j), (i - 1, j), (i - 1, j - 1))):
            if left not in partner and right not in partner:
                continue
            step = 1 if is_black(left) else -1
            h = height[v] + (-3 * step if partner.get(left) == right else step)
            if w not in height:
                height[w] = h
                todo.append(w)
            assert height[w] == h, f"vertex {w} has heights {height[w]} and {h}"
    return sum(height.values())


def supports_disjoint(f: PathFamily) -> bool:
    """is_disjoint's reference: the supports of the explicit paths of f are
    pairwise disjoint when their union is as large as the sum of their sizes.
    Raises InvalidFamily, through explicit_paths, unless f is valid."""
    supports = [p.support() for p in explicit_paths(f)]
    return sum(map(len, supports)) == len(frozenset().union(*supports))


def partners_by_points(f: PathFamily) -> tuple[int, bytearray]:
    """tilings._partners' reference: the packed tiling (m, P) of a disjoint
    family, walked over the points (level, column) of each explicit path.
    Each point but the last shears onto a black cell, whose partner
    direction is read off the code of the next point; every other black
    cell of the diamond pairs left.  Raises what _partners raises, with the
    same messages."""
    if f.n < 1:
        raise ValueError("need at least one path")
    paths = explicit_paths(f)
    m = f.n - 1
    W, base = 2 * m + 2, m + 1
    P = bytearray(W * W)
    direction = {W + 1: 3, 2: 2, 1 - W: 4}
    points = 0
    for path in paths[1:]:
        codes = [lev * (W - 1) + col * (W + 1) + base for lev, col in path.points()]
        for c, c2 in zip(codes, codes[1:]):
            P[c] = direction[c2 - c]
        points += len(codes) - 1
    if len(P) - P.count(0) != points:
        raise NotDisjoint("only disjoint families correspond to tilings")
    for s in range(1, 2 * m + 1):
        for u in range(-m, m):
            inside = abs(2 * s - 2 * m - 1) + abs(2 * u + 1) < 2 * m + 1
            if inside and is_black((s, u)) and not P[s * W + u + base]:
                P[s * W + u + base] = 1
    return m, P


def integers_by_lines(text: str, width: int) -> list[int] | None:
    """families._integers' reference: the integers of text in order, each
    distinct field through _plain_int once, when every nonblank line holds
    width of them; else None.  Every line break is whitespace, so
    text.split() lists the fields of all lines."""
    if set(map(len, map(str.split, text.splitlines()))) <= {0, width}:
        try:
            return list(map(_Memo(_plain_int).__getitem__, text.split()))
        except ValueError:
            pass
    return None


def detect_kind_by_lines(text: str) -> str:
    """cli._detect_kind's reference: the kind of file by its first nonblank
    line, found among all the lines of text."""
    lines = text.splitlines()
    for ln, tokens in _fields(lines):
        if len(tokens) == 1:
            return "family"
        if len(tokens) == 4:
            return "tiling"
        raise ParseError(f"cannot tell input kind from line {lines[ln - 1]!r}", line=ln)
    return "tiling"
