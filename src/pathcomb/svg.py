"""SVG rendering of families and tilings.

One fixed transform: x = SCALE * column, y = -SCALE * level (level up is
y down), shifted by a margin.  Family paths are <path> elements, dominoes
are <rect> elements, grid lines are <line> elements.

Family paths are read straight off (B, D) with the point walk of
families._path_points, which is_disjoint and the Aztec bridge share.  Each
renderer certifies its family once: render_family with require_valid,
render_dual through dual_family, whose one walk validates f and certifies
it disjoint, and whose result is valid by construction.
"""

from __future__ import annotations

import math

from .families import PathFamily, _path_points, require_valid
from .tilings import (
    Convention,
    DominoTiling,
    Region,
    _check_tiles,
    convention_paths,
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

    def rect(self, x, y, w, h, fill) -> None:
        self.cover(x, y, x + w, y + h)
        self.parts.append(
            f'<rect x="{x:g}" y="{y:g}" width="{w:g}" height="{h:g}" '
            f'fill="{fill}" stroke="#333333" stroke-width="1"/>')

    def polyline_path(self, pts, color, width=2.5) -> None:
        xs, ys = zip(*pts)
        self.cover(min(xs), min(ys), max(xs), max(ys))
        if len(pts) == 1:
            x, y = pts[0]
            data = f"M {x:g} {y:g} l 0 0"
        else:
            data = "M " + " L ".join(f"{x:g} {y:g}" for x, y in pts)
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


def _xy(level: float, column: float) -> tuple[float, float]:
    return (SCALE * column, -SCALE * level)


def _draw_grid(canvas: _Canvas, n: int) -> None:
    if n < 2:
        return
    top = n - 1
    for t in range(n):
        canvas.line(*_xy(t, 0), *_xy(t, top))
        canvas.line(*_xy(0, t), *_xy(top, t))


def _draw_family(canvas: _Canvas, f: PathFamily, color: str, xy=_xy) -> None:
    # f is valid: each renderer certifies it before drawing
    for i, (brow, drow) in enumerate(zip(f.B, f.D)):
        canvas.polyline_path([xy(lev, j) for lev, j in _path_points(i, brow, drow)], color)


def _draw_tiling(canvas: _Canvas, t: DominoTiling) -> None:
    for c1, c2 in sorted(t.dominoes):
        (i1, j1), (i2, j2) = c1, c2
        orient = "h" if i1 == i2 else "v"
        parity = (min(c1, c2)[0] - min(c1, c2)[1]) % 2
        x, y = _xy(max(i1, i2) + 1, min(j1, j2))
        w = SCALE * (2 if orient == "h" else 1)
        h = SCALE * (1 if orient == "h" else 2)
        canvas.rect(x, y, w, h, DOMINO_FILL[(orient, parity)])


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
    _draw_family(canvas, g, DUAL_COLOR, lambda k, l: _xy(f.n - 0.5 - k, f.n - 0.5 - l))
    return canvas.document()


def render_tiling(t: DominoTiling) -> str:
    """Dominoes as filled rectangles.

    Raises NotATiling unless the dominoes tile their own cells: each is a
    pair of adjacent cells and no cell is covered twice.
    """
    _check_tiles(Region(t.cells()), t)
    canvas = _Canvas()
    _draw_tiling(canvas, t)
    return canvas.document()


def render_overlay(t: DominoTiling, conv: Convention = Convention.CANONICAL) -> str:
    """Tiling with its path family under the chosen edge convention."""
    canvas = _Canvas()
    _draw_tiling(canvas, t)
    for poly in convention_paths(t, conv):
        canvas.polyline_path([_xy(lev, col) for lev, col in poly], PATH_COLOR)
    return canvas.document()
