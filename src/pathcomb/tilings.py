"""Domino tilings of colored regions and their edge-path families.

Cells are unit squares indexed by (level, column); a cell is black when its
coordinates have equal parity.  Vertical edges are identified with the cell
to their right.  The edges of a region split into entries (black cell, no
white region cell to the left), interior edges (white region cell to the
left) and exits (white region cell to the left, black cell outside the
region).  Tilings of the region correspond bijectively to families of
disjoint paths routing every entry to an exit through interior edges, with
steps (1,1), (0,2), (-1,1).  region_edges, tiling_to_paths and
paths_to_tiling implement this for any region, checking every entry, exit,
interior edge and edge reuse; they are the general-region API and the
oracles the Aztec bridge below is tested against.  No other library code
calls them or builds a Region.

Specialised to the Aztec diamond of order m (placed here with rows 1..2m
centred on column -1/2), these edge paths are exactly the images of the
disjoint order-(m+1) path families under the shear (level, column) ->
(level+column, column-level), with the empty path P_0 carried by the
virtual edge at (0, 0) just outside the region.  The bridge works on that
picture directly and builds no Region.  A path's edge steps are the shears
of its lattice steps, so one rule pairs every crossed black cell: for
consecutive points p -> q of a path, the black cell shear(p) pairs with the
white cell shear(q) - (0, 1), left of the next edge.  A black cell no path
crosses pairs with the cell to its left.

Inside, the bridge keeps an order-m tiling packed as (m, P): P is one
bytearray indexed by the code s*(2m + 2) + u + m + 1 of each cell (s, u) of
the box of rows 0..2m+1 and columns -m-1..m, the diamond with a one-cell
margin, so that entries, exits and steps just outside land on empty slots
of their own.  The slot of each black cell holds the direction of its
white partner: 1 left, 2 right, 3 up, 4 down (_UNITS).  _partners takes P
from the shear walk of families (_sheared), which is_disjoint shares: it
writes the step bytes of P_1, ..., P_{n-1} (families._steps), each the
direction stored at the point the step leaves, and certifies the family
disjoint by its count of filled slots.  _canonical reads P from a tiling
file in the layout that _packed_text writes, a block of lines at a time:
the kind of each domino at its first cell, then the white cells' slots
too, with their black partner's direction, in bulk, and the exact cover as
one compare of the filled slots with the diamond's (_diamond).  _fill
writes the same P from the cells of any list of dominoes, domino by
domino, naming the first fault.  _kinds is the one decoder of P: three
translations of P, each shifted onto the code of a domino's first cell,
mark every first cell with its kind (horizontal or vertical) in one int.
A black slot alone, as _partners writes it, and both slots of a domino,
as _canonical and _fill write them, give the same mark.  _first_cells
reads the dominoes off its rows in sorted order, for the rects svg draws
from a packed tiling (svg._draw_rows) and for the decoded dominoes.
_packed_text writes the tiling file from _kinds in the line order of _text,
the writer of any other tiling: it formats each row and column once and
takes them in the order of their fields as strings, so that no line is
formatted per domino or sorted.  No other module reads a byte of P.
Beside _first_cells, _tile_rows gives the dominoes of any DominoTiling
in the same rows, once one pass over its pairs has checked that they tile
their own cells; render_tiling draws from it, and tiling_to_paths takes
its adjacency and double-cover check from it.

A DominoTiling from family_to_tiling (through _partners), or read by
DominoTiling.from_text from a well-formed tiling file of an Aztec diamond
(through _canonical, or in another layout from the integers that
families._integers lists, through _fill), holds its (m, P) in the slot
_held, P as bytes.  Its dominoes are decoded through
_first_cells on first read, into the one frozenset, and then kept; _cover
returns the held form, to_text writes through _packed_text, and svg draws
from it.  The held form is no field of the record: ==, hash, repr, pickle
and copy are those of the dominoes.  Every other tiling holds None there
and keeps its frozenset: one built from dominoes or pairs, and one read
from a file that _fill refuses or whose fields are not four integers a
line.  Such a file, of another region or faulty, is read again line by
line by the parser skeleton families._records, one _domino per line,
which names the first line at fault; no well-formed file of an Aztec
diamond reaches it.  _cover packs a tiling that holds None through _fill,
in the iteration order of its dominoes, and so names by its cell a fault
that no line shows, such as two cells that are not adjacent.
DominoTiling.from_text and Region.from_text read through that one
skeleton.

One chain walker, _edge_paths, serves all four conventions.  In the
tiling turned by a symmetry of _symmetry (the one table of the four
symmetries, mapping a whole list of cells or points in one pass), each
black cell's left edge steps to the edge right of its white partner; back
in P that is a step from each white partner w to the black cell w + delta,
with delta the image of (0, 1): (0, 1), (0, -1), (1, 0) and (-1, 0) for
conventions 0-3.  The walk starts at the image of each entry (i, -i).
tiling_to_family and dual_family read (B, D) off the partner directions
along each chain, turned by the symmetry as one translation of bytes into
the step bytes of families._steps.  Two maps send a chain cell's code to
a drawn point, each defined once: _edge_axes to the edge midpoint that
convention_paths draws (_polylines) and svg's overlay draws, one
translation read off _symmetry, and _family_axes to the point of the
family that _family reads off the chains, which svg's dual draws.

The module imports from families alone, NotDisjoint included, so loading it
loads neither the combing kernel nor the enumeration oracles.
"""

from __future__ import annotations

from collections import Counter
from enum import IntEnum
from itertools import chain, compress, repeat, starmap
from math import isqrt
from operator import add, floordiv, getitem, gt, itemgetter, mod, sub
from typing import Callable, Iterable, Iterator, Sequence

from .families import (
    InvalidFamily,
    NotDisjoint,
    PathFamily,
    _BITS,
    _integers,
    _Record,
    _records,
    _sheared,
    require_valid,
)

Cell = tuple[int, int]

EDGE_STEPS = ((1, 1), (0, 2), (-1, 1))


class NotATiling(ValueError):
    """The given dominoes do not tile the expected region."""


def is_black(cell: Cell) -> bool:
    return (cell[0] - cell[1]) % 2 == 0


class Region(_Record):
    """A finite set of cells; colors follow from coordinate parity."""

    __slots__ = ("cells",)

    def __init__(self, cells: frozenset[Cell]) -> None:
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_cells(cls, cells: Iterable[Cell]) -> "Region":
        return cls(frozenset((int(i), int(j)) for i, j in cells))

    def black_cells(self) -> frozenset[Cell]:
        return frozenset(c for c in self.cells if is_black(c))

    def white_cells(self) -> frozenset[Cell]:
        return frozenset(c for c in self.cells if not is_black(c))

    def to_text(self) -> str:
        return "".join(f"{i} {j}\n" for i, j in sorted(self.cells))

    @classmethod
    def from_text(cls, text: str) -> "Region":
        return cls(_records(text, 2, "region line must hold two integers", "cell", tuple))


class EdgeSets(_Record):
    """Entries, interior edges and exits of a region."""

    __slots__ = ("entries", "interior", "exits")

    def __init__(self, entries: frozenset[Cell], interior: frozenset[Cell],
                 exits: frozenset[Cell]) -> None:
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "exits", exits)


def _sorted_pairs(pairs: Iterable[tuple[Cell, Cell]]) -> list[tuple[Cell, Cell]]:
    """The pairs (p, q), each with its two cells sorted."""
    return [(p, q) if p <= q else (q, p) for p, q in pairs]


def _domino(v: list[int]) -> tuple[Cell, Cell]:
    """The domino of the tiling line a b c d, its two cells sorted."""
    a, b, c, d = v
    return ((a, b), (c, d)) if (a, b) <= (c, d) else ((c, d), (a, b))


class DominoTiling(_Record):
    """A partition of a region into adjacent cell pairs (each pair sorted).

    A tiling from family_to_tiling, or read by from_text from a file of an
    Aztec diamond, holds the packed tiling (m, P) in _held, P as bytes; its
    dominoes are decoded on first read (__getattr__) and then kept.  Any
    other tiling holds None there."""

    __slots__ = ("dominoes", "_held")

    def __init__(self, dominoes: frozenset[tuple[Cell, Cell]]) -> None:
        # the same dominoes in either orientation make the same tiling;
        # sorted pairs, as from_text and from_pairs give, are only checked
        if any(starmap(gt, dominoes)):
            dominoes = frozenset(_sorted_pairs(dominoes))
        object.__setattr__(self, "dominoes", dominoes)
        object.__setattr__(self, "_held", None)

    @classmethod
    def _holding(cls, m: int, P: bytes) -> "DominoTiling":
        """The tiling that holds the packed tiling (m, P)."""
        t = cls.__new__(cls)
        object.__setattr__(t, "_held", (m, bytes(P)))
        return t

    def __getattr__(self, name: str) -> object:
        # reached for a name not found, so for dominoes only until a held
        # tiling has decoded them: sorted, from _first_cells, so that the
        # one frozenset is built straight from them
        if name != "dominoes" or self._held is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        pairs = []
        for s, row in _first_cells(*self._held):
            above = s + 1  # one int for the second cells of the row's vertical dominoes
            pairs += [((s, u), (s, u + 1) if k == 1 else (above, u)) for u, k in row]
        object.__setattr__(self, "dominoes", frozenset(pairs))
        return self.dominoes

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Cell, Cell]]) -> "DominoTiling":
        """Raises NotATiling when a domino is given twice, in either orientation."""
        ordered = _sorted_pairs(pairs)
        dominoes = frozenset(ordered)
        if len(dominoes) != len(ordered):
            twice = next(pair for pair, count in Counter(ordered).items() if count > 1)
            raise NotATiling(f"domino {twice} given twice")
        return cls(dominoes)

    def cells(self) -> frozenset[Cell]:
        return frozenset(c for pair in self.dominoes for c in pair)

    def to_text(self) -> str:
        if self._held:
            return _packed_text(*self._held)
        return _text(starmap(add, self.dominoes))

    @classmethod
    def from_text(cls, text: str) -> "DominoTiling":
        """A file of an Aztec diamond's tiling in the canonical layout, as
        to_text writes it, is read straight into a held tiling
        (_canonical).  Any other well-formed file of an Aztec diamond's
        tiling goes from its integers (families._integers) to a held
        tiling through the checks of _fill.  Only the rest, a tiling of
        another region or a faulty text, is read line by line by the
        parser skeleton families._records, which names the line at fault."""
        held = _canonical(text)
        if held is not None:
            return cls._holding(*held)
        values = _integers(text, 4)
        if values is not None:
            try:
                return cls._holding(*_fill(values))
            except NotATiling:
                pass
        return cls(_records(text, 4, "tiling line must hold four integers", "domino", _domino))


class EdgePathFamily(_Record):
    """Paths over vertical edges, each from an entry to an exit."""

    __slots__ = ("paths",)

    def __init__(self, paths: tuple[tuple[Cell, ...], ...]) -> None:
        object.__setattr__(self, "paths", paths)

    @classmethod
    def from_paths(cls, paths: Iterable[Sequence[Cell]]) -> "EdgePathFamily":
        return cls(tuple(sorted(tuple(p) for p in paths)))


def region_edges(s: Region) -> EdgeSets:
    """Classify the vertical edges of s into entries, interior edges, exits.

    Part of the general-region API; the Aztec bridge does not call it.
    """
    cells = s.cells
    entries, interior, exits = set(), set(), set()
    for c in cells:
        i, j = c
        if (i - j) % 2 == 0:
            (interior if (i, j - 1) in cells else entries).add(c)
        elif (i, j + 1) not in cells:
            exits.add((i, j + 1))
    return EdgeSets(frozenset(entries), frozenset(interior), frozenset(exits))


def tiling_to_paths(s: Region, t: DominoTiling) -> EdgePathFamily:
    """The edge-path family of a tiling.

    Each domino contributes the pair (left edge of its black cell, right
    edge of its white cell); the pairs with distinct edges chain into
    maximal paths from entries to exits.  Works on any region, checking the
    exact cover against s.cells; the Aztec bridge is tested against it.
    """
    _tile_rows(t)  # for its adjacency and double-cover check; no row is read
    if t.cells() != s.cells:
        raise NotATiling("dominoes do not cover exactly the region")
    step_from: dict[Cell, Cell] = {}
    for c1, c2 in t.dominoes:
        black, (wi, wj) = (c1, c2) if (c1[0] - c1[1]) % 2 == 0 else (c2, c1)
        if black != (wi, wj + 1):
            step_from[black] = (wi, wj + 1)
    targets = set(step_from.values())
    paths = []
    for start in step_from:
        if start in targets:
            continue
        seq = [start]
        while seq[-1] in step_from:
            seq.append(step_from[seq[-1]])
        paths.append(tuple(seq))
    return EdgePathFamily.from_paths(paths)


def paths_to_tiling(s: Region, p: EdgePathFamily) -> DominoTiling:
    """Rebuild the tiling of s from an edge-path family; inverse of
    tiling_to_paths.

    A black cell pairs with the white cell across its left edge when that
    edge is off every path, and otherwise with the white cell one path step
    forward.  Works on any region and checks every entry, exit, interior
    edge and edge reuse, raising InvalidFamily; the Aztec bridge, which
    needs none of these checks past require_valid and its own pair count,
    is tested against it.
    """
    edges = region_edges(s)
    seen_edges: set[Cell] = set()
    next_edge: dict[Cell, Cell] = {}
    for path in p.paths:
        if len(path) < 2:
            raise InvalidFamily(f"path {path} must contain at least one step")
        if path[0] not in edges.entries:
            raise InvalidFamily(f"path start {path[0]} is not an entry")
        if path[-1] not in edges.exits:
            raise InvalidFamily(f"path end {path[-1]} is not an exit")
        if not edges.interior.issuperset(path[1:-1]):
            mid = next(e for e in path[1:-1] if e not in edges.interior)
            raise InvalidFamily(f"edge {mid} is not interior")
        for a, b in zip(path, path[1:]):
            if (b[0] - a[0], b[1] - a[1]) not in EDGE_STEPS:
                raise InvalidFamily(f"bad step {a} -> {b}")
            next_edge[a] = b
        # steps advance the column, so a path cannot meet itself
        if not seen_edges.isdisjoint(path):
            e = next(e for e in path if e in seen_edges)
            raise InvalidFamily(f"edge {e} lies on two paths")
        seen_edges.update(path)
    if {path[0] for path in p.paths} != edges.entries:
        raise InvalidFamily("every entry must lie on a path")
    if {path[-1] for path in p.paths} != edges.exits:
        raise InvalidFamily("every exit must lie on a path")
    blacks, whites = [c for c in s.cells if is_black(c)], s.white_cells()
    used: set[Cell] = set()
    pairs = []
    for black in blacks:
        i, j = next_edge.get(black, black)
        white = (i, j - 1)
        if white not in whites or white in used:
            raise InvalidFamily(f"black cell {black} cannot pair with {white}")
        used.add(white)
        pairs.append((black, white))
    if used != whites:
        raise InvalidFamily("some white cells stay uncovered")
    return DominoTiling(frozenset(pairs))


def aztec_region(order: int) -> Region:
    """The Aztec diamond of the given order: 2*order*(order+1) cells in rows
    1..2*order, centred on column -1/2."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    cells = []
    for i in range(1, 2 * order + 1):
        half = i if i <= order else 2 * order - i + 1
        cells.extend(zip(repeat(i), range(-half, half)))
    return Region(frozenset(cells))


# the partner directions 1-4 (left, right, up, down) as steps (level, column)
# from a black cell to its white partner; slot 0, the origin, marks no partner
_UNITS = ((0, 0), (0, -1), (0, 1), (1, 0), (-1, 0))


def _partners(f: PathFamily) -> tuple[int, bytearray]:
    """The packed tiling (m, P) of the order m = n-1 diamond carried by a
    disjoint order-n family.

    Raises ValueError for n < 1, InvalidFamily unless f is valid and
    NotDisjoint unless it is disjoint.  The box of the shear walk
    (families._sheared) is the box of (m, P), and the walk's codes are
    those of P.  The shear maps each point p of P_1, ..., P_{n-1} but its
    last onto a black cell, which pairs with the cell left of the shear of
    the next point q: a horizontal, diagonal or vertical step puts it up,
    right or down, the step byte the walk writes.  A black cell no path
    crosses pairs with the cell to its left.  Past the walk's certificate
    the theorem makes P a tiling, so nothing more is checked.
    """
    if f.n < 1:
        raise ValueError("need at least one path")
    P, disjoint = _sheared(f)
    if not disjoint:
        raise NotDisjoint("only disjoint families correspond to tilings")
    m = f.n - 1
    W, base = 2 * m + 2, m + 1
    # the black cells of row s = 1..2m: every other column from -half + (s > m) below half
    for s in range(1, 2 * m + 1):
        half = min(s, 2 * m + 1 - s)
        row = slice(s * W + base - half + (s > m), s * W + base + half, 2)
        P[row] = P[row].replace(b"\0", b"\1")
    return m, P


def _fill(values: list[int]) -> tuple[int, bytearray]:
    """The packed tiling (m, P) of the dominoes whose cells values lists,
    the integers a b c d of each domino in turn.

    Raises NotATiling unless there are m(m+1) dominoes, then at the first
    domino that is not a pair of adjacent cells inside the order-m diamond,
    or that covers a cell again, naming the cell at fault.  The m(m+1)
    dominoes then cover all 2m(m+1) cells.  Cell (i, j) lies inside when
    |2i - 2m - 1| + |2j + 1| < 2m + 1: rows 1..2m, row i spanning columns
    -h..h-1 with h = min(i, 2m + 1 - i).  Each cell's slot gets the
    direction of its partner, the white cells' too, as _canonical writes
    them.
    """
    count = len(values) // 4
    m = isqrt(count)
    if m * (m + 1) != count:
        raise NotATiling(f"{2 * count} cells is not an Aztec diamond cell count")
    W, base, top = 2 * m + 2, m + 1, 2 * m + 1
    direction = {-1: 1, 1: 2, W: 3, -W: 4}
    P = bytearray(W * W)
    it = iter(values)
    for a, b, c, d in zip(it, it, it, it):
        if abs(a - c) + abs(b - d) != 1:
            raise NotATiling(f"cells {(a, b)} and {(c, d)} are not adjacent")
        # the inside test above, on the diagonals i + j and i - j
        if not (0 <= a + b < top and 0 < a - b <= top):
            raise NotATiling(f"cell {(a, b)} lies outside the order-{m} diamond")
        if not (0 <= c + d < top and 0 < c - d <= top):
            raise NotATiling(f"cell {(c, d)} lies outside the order-{m} diamond")
        black, white = a * W + b + base, c * W + d + base
        if (a - b) % 2:
            black, white = white, black
        if P[black] or P[white]:
            twice = black if P[black] else white
            raise NotATiling(f"cell {(twice // W, twice % W - base)} covered twice")
        P[black] = direction[white - black]
        P[white] = direction[black - white]
    return m, P


# the bytes of a tiling file that _canonical reads at a time, few enough
# that the objects of one block's fields stay in a core's cache: on a Xeon
# with 2 MiB of L2 cache a core, the order-800 file read in 0.39 s, against
# 0.59 s in blocks of 1 MiB
_BLOCK = 1 << 16

# the partner directions of a domino's cells by its kind (1 horizontal, 2
# vertical): at its first cell, at the code after it and at the code W above
_KIND_HERE = bytes.maketrans(b"\1\2", b"\2\3")
_KIND_AFTER = bytes.maketrans(b"\1\2", b"\1\0")
_KIND_ABOVE = bytes.maketrans(b"\1\2", b"\0\4")


def _canonical(text: str) -> tuple[int, bytes] | None:
    """The packed tiling (m, P) of a tiling file in the canonical layout of
    _packed_text, or None when text is not such a file of a tiling of an
    Aztec diamond.

    The layout: ASCII, m(m+1) lines, each four fields of "-" and digits
    joined by single spaces and ended by "\\n".  It is checked a block of
    about _BLOCK bytes of whole lines at a time, so that only one block's
    fields are held at once: deleting "-" and the digits leaves three
    spaces and a "\\n" per line.  Each row field is looked up in a table of
    the rows 1..2m, giving the row's code, and each column field in one of
    the columns -m..m-1, so that a field outside that box, or one such as
    "-0", "007" or "+1" that the table does not spell, is no tiling here.
    Inside the box two cells are adjacent exactly when their codes differ by
    1 or W, the second cell after or above the first, and the kind of each
    domino is written at its first cell.  Last, every partner direction is
    built from the kinds in bulk, the inverse of _kinds, and the exact cover
    is one compare of the filled slots with the diamond's (_diamond).  That
    compare fails unless m(m+1) distinct first cells were written, so it
    also refuses a domino given twice, two that overlap and an empty field,
    which leaves its block fewer than four fields a line: a text that does
    not end in its last "\n" could make up the count with a field past it,
    so it is refused first.
    """
    count = text.count("\n")
    m = isqrt(count)
    if m * (m + 1) != count or not text.isascii() or text[-1:] not in ("", "\n"):
        return None
    W, base = 2 * m + 2, m + 1
    rows = {b"%d" % s: s * W + base for s in range(1, 2 * m + 1)}
    columns = {b"%d" % u: u for u in range(-m, m)}
    kind = {1: 1, W: 2}
    K = bytearray(W * W)
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        block = text[start:end].encode()
        if block.translate(None, b"-0123456789") != b"   \n" * block.count(b"\n"):
            return None
        fields = block.split()
        try:
            firsts = list(map(add, map(rows.__getitem__, fields[0::4]),
                              map(columns.__getitem__, fields[1::4])))
            seconds = map(add, map(rows.__getitem__, fields[2::4]),
                          map(columns.__getitem__, fields[3::4]))
            kinds = bytes(map(kind.__getitem__, map(sub, seconds, firsts)))
        except KeyError:
            return None
        for c, k in zip(firsts, kinds):
            K[c] = k
        del block, fields, firsts  # so that the next block's are not made beside them
        start = end
    P = (int.from_bytes(K.translate(_KIND_HERE), "little")
         | int.from_bytes(K.translate(_KIND_AFTER), "little") << 8
         | int.from_bytes(K.translate(_KIND_ABOVE), "little") << 8 * W).to_bytes(len(K), "little")
    if P.translate(_FILLED) != _diamond(m):
        return None
    return m, P


# any direction as a filled slot
_FILLED = bytes.maketrans(b"\2\3\4", b"\1\1\1")


def _diamond(m: int) -> bytes:
    """The slots of the order-m diamond's cells, each 1, in the box of (m, P):
    row s holds h = min(s, 2m + 1 - s) cells each side of the centre."""
    base = m + 1
    return b"".join(bytes(base - h) + b"\1" * (2 * h) + bytes(base - h)
                    for h in map(min, range(2 * base), reversed(range(2 * base))))


def _cover(t: DominoTiling) -> tuple[int, bytes]:
    """The packed tiling (m, P) of the Aztec diamond that t tiles: the one t
    holds, or else checked by _fill in the iteration order of t.dominoes."""
    return t._held or _fill(list(chain.from_iterable(chain.from_iterable(t.dominoes))))


# the kind of the domino whose first cell is at each code, 1 for horizontal
# and 2 for vertical, read off three codes of P: a right or up partner makes
# the cell itself first, a left partner the cell one code before it and a
# down partner the cell W codes before it.  A domino's two slots, as _fill
# writes them, name the same first cell and kind, and so does its black
# slot alone, as _partners writes it; an empty slot names nothing
_FIRST_HERE = bytes.maketrans(b"\1\2\3\4", b"\0\1\2\0")
_FIRST_BEFORE = bytes.maketrans(b"\1\2\3\4", b"\1\0\0\0")
_FIRST_BELOW = bytes.maketrans(b"\1\2\3\4", b"\0\0\0\2")


def _kinds(m: int, P: bytes) -> bytes:
    """The kind of the domino whose first cell is at each code of the packed
    tiling (m, P), 0 where none is: one int, the three translations of P
    each shifted to the first cell's code."""
    return (int.from_bytes(P.translate(_FIRST_HERE), "little")
            | int.from_bytes(P.translate(_FIRST_BEFORE), "little") >> 8
            | int.from_bytes(P.translate(_FIRST_BELOW), "little") >> 8 * (2 * m + 2)
            ).to_bytes(len(P), "little")


def _first_cells(m: int, P: bytes) -> Iterator[tuple[int, Iterator[tuple[int, int]]]]:
    """The dominoes of the packed tiling (m, P) in sorted order, row by row:
    each row s = 1..2m with the column u and kind k of each first cell on
    it, left to right.  Kind 1 is a horizontal domino, second cell
    (s, u + 1), and kind 2 a vertical one, second cell (s + 1, u).  Each
    row is read off the bytes of _kinds."""
    W = 2 * m + 2
    kinds = _kinds(m, P)
    # one int object per column, shared by every row
    columns = list(range(-m - 1, m + 1))
    for s in range(1, 2 * m + 1):
        row = kinds[s * W:s * W + W]
        yield s, zip(compress(columns, row), row.translate(None, b"\0"))


def _tile_rows(t: DominoTiling) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """The dominoes of t in sorted order, row by row, as _first_cells gives
    those of a packed tiling: each level s with the column u and kind k
    (1 horizontal, 2 vertical) of each first cell on it, left to right.

    Raises NotATiling unless t tiles its own cells.  One pass over
    t.dominoes, in set order, names the first pair that is not adjacent or
    the first cell covered twice, and groups the pairs by the level of
    their first cell; the check is over when this returns.  The second cell
    of a sorted adjacent pair is right of or above the first, so its kind
    is one more than its rise, and sorting a row by first cell sorts it.
    Each row is built as it is read.
    """
    seen: set[Cell] = set()
    rows: dict[int, list[tuple[Cell, Cell]]] = {}
    for pair in t.dominoes:
        c1, c2 = pair
        if abs(c1[0] - c2[0]) + abs(c1[1] - c2[1]) != 1:
            raise NotATiling(f"cells {c1} and {c2} are not adjacent")
        for c in pair:
            if c in seen:
                raise NotATiling(f"cell {c} covered twice")
            seen.add(c)
        rows.setdefault(c1[0], []).append(pair)
    first = itemgetter(0)
    return ((s, [(j, 1 + i2 - s) for (_, j), (i2, _) in sorted(row, key=first)])
            for s, row in sorted(rows.items()))


def _text(dominoes: Iterable[Sequence[int]]) -> str:
    """The tiling file of dominoes given by the integers a b c d of their
    two cells: one line a b c d per domino, the lines sorted as strings.
    They are sorted with their line breaks, which sort below every
    character of a line and so keep that order."""
    return "".join(sorted(f"{a} {b} {c} {d}\n" for a, b, c, d in dominoes))


def _packed_text(m: int, P: bytes) -> str:
    """The tiling file of the packed tiling (m, P), in the line order of
    _text, with no int formatted per domino.

    Each row's field "s " and each column's "u " and "u\\n" is formatted
    once, and each line is joined from four of them: kind k puts the second
    cell at (s + k - 1, u + 2 - k).  _text sorts whole lines, and each
    first cell (s, u) starts one line, so its order is that of the fields
    "s " and then "u ": a space sorts below "-" and every digit, so a field
    that starts a longer one sorts first, as its line does.  The rows are
    taken in that order, and the columns of the kinds (_kinds) are put in
    that order, so no line is sorted.
    """
    W = 2 * m + 2
    kinds = _kinds(m, P)
    levels = [f"{s} " for s in range(W)]
    columns = range(-m - 1, m + 1)
    fields = [f"{u} " for u in columns]
    order = sorted(range(W), key=fields.__getitem__)
    pick = itemgetter(*order)
    # per column, the last field of the line of each kind: u + 1 after a
    # horizontal domino, u after a vertical one
    heads, tails = pick(fields), pick([(None, f"{u + 1}\n", f"{u}\n") for u in columns])
    # the kinds column by column in that order, so that every W-th byte
    # from s on is row s in that order
    turned = b"".join(kinds[r::W] for r in order)
    pieces: list[str] = []
    for s in sorted(range(1, 2 * m + 1), key=levels.__getitem__):
        row = turned[s::W]
        ks = row.translate(None, b"\0")
        pieces += chain.from_iterable(zip(
            repeat(levels[s]), compress(heads, row),
            map((None, levels[s], levels[s + 1]).__getitem__, ks),
            map(getitem, compress(tails, row), ks)))
    return "".join(pieces)


def _edge_paths(m: int, P: bytes, conv: Convention) -> list[list[int]]:
    """The codes of the cells that the edge paths of the tiling (m, P) turned
    by conv cross, in the order of their entries (i, -i), each up to its
    exit (i, i) outside the diamond.  The cells are those of (m, P), not of
    the turned tiling, whose cells are their images under _symmetry.

    In the turned tiling each black cell's left edge steps to the edge right
    of its white partner.  The symmetry is an involution, so the walk starts
    at the image of each entry and steps from each white partner w to the
    black cell w + delta, delta the image of the step (0, 1).

    P must pair the cells of an exact cover, as _fill and _partners
    guarantee.  Then no chain meets a black cell paired with the cell
    before it, since that cell is the previous step's white partner; so
    every chain ends at its exit, whose slot in the margin is empty.
    """
    W, base = 2 * m + 2, m + 1
    cell = _symmetry(conv, m, cells=True)
    (s0, u0), (s1, u1) = cell([(0, 0), (0, 1)])
    delta = (s1 - s0) * W + u1 - u0
    # per direction: from the black cell to its partner, then delta
    jump = (0, delta - 1, delta + 1, delta + W, delta - W)
    paths = []
    for s, u in cell([(i, -i) for i in range(1, m + 1)]):
        c = s * W + u + base
        path = [c]
        while d := P[c]:
            c += jump[d]
            path.append(c)
        paths.append(path)
    return paths


def _family(m: int, P: bytes, conv: Convention = 0) -> PathFamily:
    """The order m+1 family whose P_1, ..., P_m shear onto the edge paths of
    the tiling (m, P) turned by conv: an edge step one row up is a
    horizontal step, one along the row a diagonal step and one row down a
    vertical step.  Each path is read off the partner directions along its
    chain, turned by the symmetry as one translation of bytes."""
    cell = _symmetry(conv, m, cells=True)
    (s0, u0), *ends = cell(_UNITS)
    turn = bytes.maketrans(b"\1\2\3\4",
                           bytes(_UNITS.index((s - s0, u - u0)) for s, u in ends))
    B: list[tuple[int, ...]] = [()]
    D: list[tuple[int, ...]] = [(0,)]
    for path in _edge_paths(m, P, conv):
        steps = bytes(map(P.__getitem__, path[:-1])).translate(turn)
        B.append(tuple(steps.translate(_BITS, b"\4")))
        # the vertical steps between column steps, column by column
        D.append(tuple(map(len, steps.replace(b"\2", b"\3").split(b"\3"))))
    return PathFamily(tuple(B), tuple(D))


# one axis of a map from the code c of a chain cell to its drawn point: the
# cell is drawn at values[op(c, d)] on that axis
_Axis = tuple[dict[int, float], Callable[[int, int], int], int]


def _edge_axes(m: int, conv: Convention) -> tuple[tuple[float, float], _Axis, _Axis]:
    """Where convention_paths draws the cells that the chains of the tiling
    (m, P) under conv cross (_edge_paths): the point (level, column) of the
    empty path, on the virtual edge (0, 0), and the level and column axes of
    the chain cells, W = 2m + 2 codes wide: the cell of code s*W + r is drawn
    at the level of its row s = c // W and the column of its column r =
    c % W.

    Each cell is mapped to the turned tiling, its left edge moved by +1/2 to
    the edge midpoint, and drawn back through the symmetry.  The two
    symmetries are one involution, so these steps compose to a translation:
    the cell of code s*W + r is drawn at (s + a, r + b).  Each axis is drawn
    as z - (k - x), which keeps the sign of a zero (see _symmetry): on a
    half-integer axis k = 0 and z is the shift, on an integer axis z is the
    zero that the steps draw there.
    """
    W = 2 * m + 2
    cell = _symmetry(conv, m, cells=True)
    point = _symmetry(conv, m, cells=False)

    def drawn(s: int, r: int) -> tuple[float, float]:
        (level, column), = cell([(s, r - m - 1)])
        return point([(level + 0.5, float(column))])[0]

    ks = [0 if shift % 1 else -int(shift) for shift in drawn(0, 0)]
    (z0, k0), (z1, k1) = [(drawn(k, k)[axis], k) for axis, k in enumerate(ks)]
    return (point([(0.5, 0.0)])[0], ({s: z0 - (k0 - s) for s in range(W)}, floordiv, W),
            ({r: z1 - (k1 - r) for r in range(W)}, mod, W))


def _family_axes(m: int, conv: Convention) -> tuple[tuple[int, int], _Axis, _Axis]:
    """The points of the order m+1 family that _family reads off the chains
    of the tiling (m, P) under conv: its empty path's point (0, 0), on no
    chain, and the level and column axes of the chain cells, W = 2m + 2:
    the point at the cell of code c has the level keyed by c % (W + 1) and
    the column keyed by c % (W - 1).

    The family's point (i, j) shears onto the cell (i + j, j - i) of the
    turned tiling, the image under _symmetry of a cell (s, u) of (m, P).
    Each symmetry maps s - u to +-(s - u) and s + u to +-(s + u), each plus
    a constant, so the level i is fixed by the diagonal r - s and the
    column j by the antidiagonal s + r of the cell's code s*W + r.  The
    code is r - s modulo W + 1 and s + r modulo W - 1, and on the points
    0 <= i, j <= m of the family each diagonal takes m + 1 values two
    apart, 2m apart at most, so each residue names one level or one column.
    A level is read off the image of the point (i, 0) and a column off that
    of the point (0, j).
    """
    W, base = 2 * m + 2, m + 1
    cell = _symmetry(conv, m, cells=True)
    ends = range(m + 1)
    firsts = cell([(i, -i) for i in ends])  # the points (i, 0), sheared
    lasts = cell([(j, j) for j in ends])  # the points (0, j), sheared
    return ((0, 0), ({(u + base - s) % (W + 1): i for i, (s, u) in zip(ends, firsts)}, mod, W + 1),
            ({(s + u + base) % (W - 1): j for j, (s, u) in zip(ends, lasts)}, mod, W - 1))


def _polylines(m: int, P: bytes, conv: Convention) -> list[list[tuple[float, float]]]:
    """convention_paths of the packed tiling (m, P): the empty path's point,
    then each chain (_edge_paths) drawn cell by cell where _edge_axes puts
    it."""
    empty, (levels, y_op, y_by), (columns, x_op, x_by) = _edge_axes(m, conv)
    return [[empty], *([(levels[y_op(c, y_by)], columns[x_op(c, x_by)]) for c in path]
                       for path in _edge_paths(m, P, conv))]


def family_to_tiling(f: PathFamily) -> DominoTiling:
    """The tiling of the order n-1 Aztec diamond carried by a disjoint
    order-n family.

    Built straight from (B, D): after require_valid, one walk over the
    paths P_1, ..., P_{n-1}, the shear walk that is_disjoint shares, packs
    every black cell's partner and certifies that the paths are disjoint
    (_partners).  The tiling holds that packed form, and its dominoes are
    decoded from it on first read.  P_0 sits on the virtual edge (0, 0)
    outside the diamond and is dropped.  Raises ValueError for n < 1,
    InvalidFamily and NotDisjoint.
    """
    return DominoTiling._holding(*_partners(f))


def tiling_to_family(t: DominoTiling) -> PathFamily:
    """The disjoint order m+1 family of a tiling of the order-m Aztec
    diamond; inverse of family_to_tiling.

    A tiling that holds its packed form is read from it; any other is
    packed in one pass over its dominoes, which checks the exact cover
    (_cover raises NotATiling, naming the cell at fault).  The step chains
    from the entries (i, -i) are then written as the B and D rows of
    P_1, ..., P_m.
    """
    return _family(*_cover(t))


class Convention(IntEnum):
    """The four edge conventions for extracting paths from one tiling."""

    CANONICAL = 0
    HALF_TURN = 1
    TRANSPOSE = 2
    ANTITRANSPOSE = 3


def _symmetry(conv: Convention, m: int, cells: bool) -> Callable:
    """The involution of the order-m diamond under convention conv, as a map
    from an iterable of points (level, column) to the list of their images,
    in one pass.

    On drawing points it is p -> (s0*q0 - c0, s1*q1 - c1), with q the point
    p, transposed for the transposing conventions.  On cells it is the same
    map seen at the cell centres c + 1/2, which moves each offset by
    (1 - s)/2.  The offsets are subtracted because x - 0 keeps the sign of a
    zero where x + 0 does not, and the drawings print -0.0 as "-0".  Raises
    ValueError unless conv is one of the four conventions.
    """
    swap, s0, s1, k0, k1 = ((False, 1, 1, 0, 0), (False, -1, -1, -2, 0),
                            (True, 1, 1, -1, 1), (True, -1, -1, -1, -1))[Convention(conv)]
    c0, c1 = k0 * (m + 1), k1 * (m + 1)
    if cells:
        c0, c1 = c0 + (1 - s0) // 2, c1 + (1 - s1) // 2

    def image(points):
        if swap:
            return [(s0 * q1 - c0, s1 * q0 - c1) for q0, q1 in points]
        return [(s0 * q0 - c0, s1 * q1 - c1) for q0, q1 in points]
    return image


def dual_family(f: PathFamily) -> PathFamily:
    """The family extracted from the same tiling under the opposite edge
    convention, in reflected coordinates.

    The half-turn of the diamond keeps cell colours, so it maps each
    (black, white) domino of f's forward pass (_partners) straight to a
    domino of the turned tiling, whose (B, D) is read off its step chains.
    f is walked once, and no tiling is built or validated again.  Raises
    what family_to_tiling raises, except that the valid empty family is its
    own dual (an invalid one raises InvalidFamily).  An involution; every
    horizontal step of f is crossed at its midpoint by a vertical step of
    the dual and vice versa.
    """
    if f.n == 0:
        require_valid(f)
        return f
    return _family(*_partners(f), Convention.HALF_TURN)


def convention_paths(t: DominoTiling, conv: Convention) -> list[list[tuple[float, float]]]:
    """Edge-midpoint polylines of an Aztec tiling under one of the four
    conventions, in (level, column) drawing coordinates.

    _cover checks the exact cover, naming cells as t gives them; the
    symmetry of conv keeps colours, adjacency and the diamond, so it maps
    the partners of t to those of the mapped tiling, whose step chains are
    drawn back through the symmetry, all points in one pass.  The first
    polyline is the single-point carrier of the empty path, so an order-m
    tiling always yields m+1 polylines.  Raises NotATiling, and ValueError
    unless conv is one of the four conventions.
    """
    return _polylines(*_cover(t), conv)
