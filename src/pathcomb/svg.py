"""SVG rendering of families and tilings.

One fixed transform: x = SCALE * column, y = -SCALE * level (level up is
y down), shifted by a margin.  Family paths are <path> elements, dominoes
are <rect> elements, grid lines are <line> elements.

render_family reads its paths straight off (B, D): the levels and columns
of each path are two running sums over its step bytes (families._steps),
after require_valid.  Each distinct level and column is formatted once,
through a memo keyed by the lattice value, and the family widens the
bounding box once, by its extreme values.

The Aztec renderers draw their paths as the chains of cells that
tilings._edge_paths walks through a packed tiling (m, P), and build no
point and no second family.  render_overlay draws the chains of the packed
tiling of tilings._cover under its convention, each cell at the row and
column of tilings._edge_axes, the map that convention_paths also reads.
render_dual draws f from the CANONICAL chains of its packed tiling
(tilings._partners, the one walk that validates f and certifies it
disjoint) and the dual from the HALF_TURN chains of the same array, each
cell at the diagonals of tilings._family_axes.  The drawn string of each
row, column or diagonal is formatted once, and each point is joined from
two of them (_draw_chains).  Only the empty paths' points are covered: a
family's points lie between f's empty path's point and its dual's, and the
chains of an overlay stay in the box of the diamond.

One rect drawer (_draw_rows) serves both tiling renderers, taking the
dominoes row by row as the first cell and kind of each from a decoder of
tilings, which checks the tiling first; each rect is joined from the head
of its column and one of four ends of its row, each formatted once.  A
tiling that holds its packed form (tilings explains when) is drawn from
_first_cells, the one reader of it, so this module reads no byte of it
(_draw_diamond) and builds no pairs; render_tiling draws any other tiling
from _tile_rows, whose one pass over the pairs checks them and groups them
by row.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, repeat
from operator import add
from typing import Callable, Iterable

from .families import _COLUMN_MOVES, _LEVEL_MOVES, PathFamily, _Memo, _steps, require_valid
from .tilings import (
    Convention,
    DominoTiling,
    _cover,
    _edge_axes,
    _edge_paths,
    _family_axes,
    _first_cells,
    _partners,
    _tile_rows,
)

SCALE = 24.0
MARGIN = 20.0
PATH_COLOR = "#1f77b4"
DUAL_COLOR = "#d62728"
GRID_COLOR = "#d8d8d8"
DOMINO_FILL = {
    ("h", 0): "#ffd54f",
    ("h", 1): "#aed581",
    ("v", 0): "#4fc3f7",
    ("v", 1): "#f48fb1",
}


class _Canvas:
    def __init__(self) -> None:
        self.parts: list[str] = []
        self.min_x = self.min_y = math.inf
        self.max_x = self.max_y = -math.inf

    def cover(self, lo_x: float, lo_y: float, hi_x: float, hi_y: float) -> None:
        # a bound moves only on a strict gain, so of 0.0 and -0.0 the first drawn stays
        if lo_x < self.min_x:
            self.min_x = lo_x
        if lo_y < self.min_y:
            self.min_y = lo_y
        if hi_x > self.max_x:
            self.max_x = hi_x
        if hi_y > self.max_y:
            self.max_y = hi_y

    def line(self, x1, y1, x2, y2, color=GRID_COLOR, width=1.0) -> None:
        self.cover(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        self.parts.append(
            f'<line x1="{x1:g}" y1="{y1:g}" x2="{x2:g}" y2="{y2:g}" '
            f'stroke="{color}" stroke-width="{width:g}"/>')

    def polyline_path(self, points: list[str], color: str, width=2.5) -> None:
        """One <path> through points, each formatted "x y"; the caller
        covers them."""
        if len(points) == 1:
            data = f"M {points[0]} l 0 0"
        else:
            data = "M " + " L ".join(points)
        self.parts.append(
            f'<path d="{data}" fill="none" stroke="{color}" '
            f'stroke-width="{width:g}" stroke-linecap="round" stroke-linejoin="round"/>')

    def document(self) -> str:
        if not self.parts:
            view = "0 0 40 40"
        else:
            view = (f"{self.min_x - MARGIN:g} {self.min_y - MARGIN:g} "
                    f"{self.max_x - self.min_x + 2 * MARGIN:g} "
                    f"{self.max_y - self.min_y + 2 * MARGIN:g}")
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">\n'
                f'<g class="canvas">\n{body}\n</g>\n</svg>\n')


def _x(column: float) -> float:
    return SCALE * column


def _y(level: float) -> float:
    return -SCALE * level


def _formatted(coord: Callable[[float], float]) -> _Memo:
    """The formatted drawing coordinates coord(v) of one axis of one batch,
    keyed by the lattice value v (a level or a column), not by coord(v), so
    that each distinct value is formatted once.

    0.0 and -0.0 are one key, but no batch draws both on one axis: family
    points are integers.  The dominoes, whose corners print "-0" above level
    -1, are a batch of their own."""
    return _Memo(lambda v: f"{coord(v):g}")


def _draw_grid(canvas: _Canvas, n: int) -> None:
    if n < 2:
        return
    top = n - 1
    for t in range(n):
        canvas.line(_x(0), _y(t), _x(top), _y(t))
        canvas.line(_x(t), _y(0), _x(t), _y(top))


def _draw_chains(canvas: _Canvas, m: int, P: bytes, conv: Convention, axes: Callable,
                 color: str, level_y: Callable[[float], float] = _y,
                 column_x: Callable[[float], float] = _x) -> None:
    """One <path> per path that the chains of the tiling (m, P) under conv
    carry, placed by axes (tilings._edge_axes or tilings._family_axes): the
    empty path's point first, then each chain (tilings._edge_paths), each
    point (level, column) drawn at (column_x(column), level_y(level)).  The
    drawn string of each row, column or diagonal is formatted once, and each
    point is joined from two of them.  The empty path's point is covered;
    the caller covers the chains."""
    (level, column), (levels, y_op, y_by), (columns, x_op, x_by) = axes(m, conv)
    ys = {key: f"{level_y(v):g}" for key, v in levels.items()}
    xs = {key: f"{column_x(v):g} " for key, v in columns.items()}
    x, y = column_x(column), level_y(level)
    canvas.polyline_path([f"{x:g} {y:g}"], color)
    canvas.cover(x, y, x, y)
    for path in _edge_paths(m, P, conv):
        canvas.polyline_path(list(map(add, map(xs.__getitem__, map(x_op, path, repeat(x_by))),
                                      map(ys.__getitem__, map(y_op, path, repeat(y_by))))),
                             color)


def _draw_family(canvas: _Canvas, f: PathFamily, color: str) -> None:
    # f is valid: render_family certifies it before drawing.  The levels and
    # columns of path i are two running sums over its step bytes, from (i, 0)
    ys, xs = _formatted(_y), _formatted(_x)
    for i, steps in enumerate(map(_steps, f.B, f.D)):
        canvas.polyline_path([f"{xs[col]} {ys[lev]}" for lev, col in zip(
            accumulate(map(_LEVEL_MOVES.__getitem__, steps), initial=i),
            accumulate(map(_COLUMN_MOVES.__getitem__, steps), initial=0))], color)
    if xs:
        # over the distinct values in the order met, so the first drawn wins a tie
        canvas.cover(min(map(_x, xs)), min(map(_y, ys)), max(map(_x, xs)), max(map(_y, ys)))


def _draw_rows(canvas: _Canvas, rows: Iterable[tuple[int, Iterable[tuple[int, int]]]]) -> None:
    """One <rect> per domino, its dominoes given row by row in sorted order
    as tilings._first_cells and tilings._tile_rows give them: each level s
    with the column u and kind k (1 horizontal, 2 vertical) of each first
    cell on it.  A rect has its top-left corner at the column of the first
    cell and above the level s + k - 1 of the second, and is sized and
    filled by its kind and its first cell's colour.  Each rect is joined
    from its column's head and one of its row's four ends, each formatted
    once.  The caller covers the rects."""
    heads = _Memo(lambda u: f'<rect x="{_x(u):g}" y="')
    ys = _formatted(lambda i: _y(i + 1))
    tails = {(1 if orient == "h" else 2, parity): (
        f'width="{SCALE * (2 if orient == "h" else 1):g}" '
        f'height="{SCALE * (1 if orient == "h" else 2):g}" '
        f'fill="{fill}" stroke="#333333" stroke-width="1"/>')
        for (orient, parity), fill in DOMINO_FILL.items()}
    for s, row in rows:
        # per kind, the top of the rect and its tail for an even and an odd
        # column u, the first cell's colour being the parity of s - u
        ends = (None, *((f'{ys[s + k - 1]}" {tails[k, s % 2]}',
                         f'{ys[s + k - 1]}" {tails[k, (s - 1) % 2]}') for k in (1, 2)))
        canvas.parts += [heads[u] + ends[k][u & 1] for u, k in row]


def render_family(f: PathFamily) -> str:
    """Family paths over a light grid; one <path> element per path.

    Raises InvalidFamily unless f is valid.
    """
    require_valid(f)
    canvas = _Canvas()
    _draw_grid(canvas, f.n)
    _draw_family(canvas, f, PATH_COLOR)
    return canvas.document()


def render_dual(f: PathFamily) -> str:
    """f and its dual family, the latter on the half-integer offset grid.

    Both are drawn from the chains of f's packed tiling (tilings._partners),
    f from its CANONICAL chains and the dual from its HALF_TURN chains, as
    tilings.dual_family reads the dual.  _partners is the one certificate of
    f: it raises InvalidFamily or NotDisjoint, and nothing is validated
    again.  The valid empty family is its own dual and draws nothing.
    """
    if f.n == 0:
        return render_family(f)
    m, P = _partners(f)
    canvas = _Canvas()
    # every point of a family has its level and column in 0..n-1, so the
    # box from f's empty path's point (0, 0) to the dual's, drawn at
    # (n - 1/2, n - 1/2), covers both families
    _draw_grid(canvas, f.n)
    _draw_chains(canvas, m, P, Convention.CANONICAL, _family_axes, PATH_COLOR)
    # dual point (k, l) sits at (n - 1/2 - k, n - 1/2 - l) in f's picture
    _draw_chains(canvas, m, P, Convention.HALF_TURN, _family_axes, DUAL_COLOR,
                 lambda k: _y(f.n - 0.5 - k), lambda l: _x(f.n - 0.5 - l))
    return canvas.document()


def render_tiling(t: DominoTiling) -> str:
    """Dominoes as filled rectangles.

    Raises NotATiling unless the dominoes tile their own cells: each is a
    pair of adjacent cells and no cell is covered twice.  A tiling that
    holds its packed form is drawn from it, and builds no dominoes.
    """
    canvas = _Canvas()
    if t._held:
        _draw_diamond(canvas, *t._held)
        return canvas.document()
    _draw_rows(canvas, _tile_rows(t))
    if t.dominoes:
        levels, columns = zip(*chain.from_iterable(t.dominoes))
        canvas.cover(_x(min(columns)), _y(max(levels) + 1), _x(max(columns) + 1), _y(min(levels)))
    return canvas.document()


def render_overlay(t: DominoTiling, conv: Convention = Convention.CANONICAL) -> str:
    """Tiling with its path family under the chosen edge convention, drawn
    from the packed tiling of tilings._cover.

    t is checked first: _cover raises NotATiling unless t tiles an Aztec
    diamond, and then the symmetry raises ValueError unless conv is one of
    the four conventions.
    """
    m, P = _cover(t)
    canvas = _Canvas()
    _draw_diamond(canvas, m, P)
    # the symmetry maps the diamond's box onto itself, and every chain cell
    # is drawn inside it, so only the empty path's point can widen it
    _draw_chains(canvas, m, P, conv, _edge_axes, PATH_COLOR)
    return canvas.document()


def _draw_diamond(canvas: _Canvas, m: int, P: bytes) -> None:
    """The rects of the packed tiling (m, P), covered by the bounding box of
    the diamond, levels 1..2m and columns -m..m-1: the box render_tiling
    takes from the dominoes of an Aztec tiling."""
    if m:
        _draw_rows(canvas, _first_cells(m, P))
        canvas.cover(_x(-m), _y(2 * m + 1), _x(m), _y(1))
