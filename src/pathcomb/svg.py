"""SVG rendering of families and tilings.

One fixed transform: x = SCALE * column, y = -SCALE * level (level up is
y down), shifted by a margin.  Family paths are <path> elements, dominoes
are <rect> elements, grid lines are <line> elements.

Family paths are read straight off (B, D): the levels and columns of each
path are two running sums over its step bytes (families._steps), the one
encoding of a path that the shear walk of is_disjoint and the Aztec bridge
also reads.  Each renderer certifies its family once: render_family with
require_valid, render_dual through dual_family, whose one walk validates f
and certifies it disjoint, and whose result is valid by construction.

Each batch of elements (the dominoes, or the paths of one family or one
convention) is drawn in one pass: every distinct level and column is
formatted once, through a memo keyed by the lattice value, and the batch
widens the bounding box once, by its extreme values.  One rect drawer
(_draw_rows) serves both tiling renderers, taking the dominoes row by row
as the first cell and kind of each from a decoder of tilings, which checks
the tiling first.  A tiling that holds its packed form (tilings explains
when) is drawn from _first_cells, the one reader of it, so this module
reads no byte of it (_draw_diamond) and builds no pairs; render_tiling
draws any other tiling from _tile_rows, whose one pass over the pairs
checks them and groups them by row.  render_overlay draws the packed
tiling of tilings._cover, held or packed from the dominoes.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from typing import Callable, Iterable, Sequence

from .families import _COLUMN_MOVES, _LEVEL_MOVES, PathFamily, _Memo, _steps, require_valid
from .tilings import (
    Convention,
    DominoTiling,
    _cover,
    _first_cells,
    _polylines,
    _tile_rows,
    dual_family,
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
    points are integers, and each axis of convention_paths carries zeros of
    one sign.  The dominoes, whose corners print "-0" above level -1, are a
    batch of their own."""
    return _Memo(lambda v: f"{coord(v):g}")


def _draw_grid(canvas: _Canvas, n: int) -> None:
    if n < 2:
        return
    top = n - 1
    for t in range(n):
        canvas.line(_x(0), _y(t), _x(top), _y(t))
        canvas.line(_x(t), _y(0), _x(t), _y(top))


def _draw_paths(canvas: _Canvas, paths: Iterable[Sequence[tuple[float, float]]], color: str,
                level_y: Callable[[float], float], column_x: Callable[[float], float]) -> None:
    """One <path> per sequence of lattice points (level, column), drawn at
    (column_x(column), level_y(level)), then one cover of them all."""
    ys, xs = _formatted(level_y), _formatted(column_x)
    for path in paths:
        canvas.polyline_path([f"{xs[col]} {ys[lev]}" for lev, col in path], color)
    if xs:
        # over the distinct values in the order met, so the first drawn wins a tie
        canvas.cover(min(map(column_x, xs)), min(map(level_y, ys)),
                     max(map(column_x, xs)), max(map(level_y, ys)))


def _draw_family(canvas: _Canvas, f: PathFamily, color: str, level_y=_y, column_x=_x) -> None:
    # f is valid: each renderer certifies it before drawing.  The levels and
    # columns of path i are two running sums over its step bytes, from (i, 0)
    paths = (zip(accumulate(map(_LEVEL_MOVES.__getitem__, steps), initial=i),
                 accumulate(map(_COLUMN_MOVES.__getitem__, steps), initial=0))
             for i, steps in enumerate(map(_steps, f.B, f.D)))
    _draw_paths(canvas, paths, color, level_y, column_x)


def _draw_rows(canvas: _Canvas, rows: Iterable[tuple[int, Iterable[tuple[int, int]]]]) -> None:
    """One <rect> per domino, its dominoes given row by row in sorted order
    as tilings._first_cells and tilings._tile_rows give them: each level s
    with the column u and kind k (1 horizontal, 2 vertical) of each first
    cell on it.  A rect has its top-left corner at the column of the first
    cell and above the level s + k - 1 of the second, and is sized and
    filled by its kind and its first cell's colour.  The caller covers the
    rects."""
    xs, ys = _formatted(_x), _formatted(lambda i: _y(i + 1))
    tails = {(1 if orient == "h" else 2, parity): (
        f'width="{SCALE * (2 if orient == "h" else 1):g}" '
        f'height="{SCALE * (1 if orient == "h" else 2):g}" '
        f'fill="{fill}" stroke="#333333" stroke-width="1"/>')
        for (orient, parity), fill in DOMINO_FILL.items()}
    for s, row in rows:
        tops = (None, ys[s], ys[s + 1])
        canvas.parts += [f'<rect x="{xs[u]}" y="{tops[k]}" {tails[k, (s - u) % 2]}'
                         for u, k in row]


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

    dual_family is the one certificate of f: it raises InvalidFamily or
    NotDisjoint, and nothing is validated again.
    """
    g = dual_family(f)
    canvas = _Canvas()
    _draw_grid(canvas, f.n)
    _draw_family(canvas, f, PATH_COLOR)
    # dual point (k, l) sits at (n - 1/2 - k, n - 1/2 - l) in f's picture
    _draw_family(canvas, g, DUAL_COLOR, lambda k: _y(f.n - 0.5 - k), lambda l: _x(f.n - 0.5 - l))
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
    _draw_paths(canvas, _polylines(m, P, conv), PATH_COLOR, _y, _x)
    return canvas.document()


def _draw_diamond(canvas: _Canvas, m: int, P: bytes) -> None:
    """The rects of the packed tiling (m, P), covered by the bounding box of
    the diamond, levels 1..2m and columns -m..m-1: the box render_tiling
    takes from the dominoes of an Aztec tiling."""
    if m:
        _draw_rows(canvas, _first_cells(m, P))
        canvas.cover(_x(-m), _y(2 * m + 1), _x(m), _y(1))
