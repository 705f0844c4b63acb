"""Lattice path families with horizontal, diagonal and vertical steps.

An order-n family consists of paths P_0, ..., P_{n-1}, where P_i runs from
(i, 0) to (0, i).  Coordinates are (level, column) with the level increasing
upward, and the basic steps are (0, +1) horizontal, (-1, +1) diagonal and
(-1, 0) vertical.  A family is encoded by a pair of ragged triangular
matrices (B, D): B[i][j] in {0, 1} is the direction of the step of P_i from
column j to column j+1 (0 horizontal, 1 diagonal), and D[i][j] counts the
vertical steps of P_i in column j.  Vertical steps inside one column are
necessarily consecutive (any other step leaves the column), so the encoding
is lossless.

A family is "cliff-shaped" when every vertical step sits in the final
column of its path, so it is determined by a triangular array of n(n-1)/2
free bits.  It is "disjoint" when the supports of all paths are pairwise
disjoint.

validate_family accepts a valid family in one pass over (B, D), and only a
family that fails that pass is checked again, phase by phase, to list its
violations.  A B entry is a bit when it is an int equal to 0 or 1, so True
is one and 1.0 is not.  The text readers take each integer field as an
optional minus sign followed by ASCII digits, and nothing else that int
would accept.

A path is read off (B, D) as one bytes object of step bytes (_steps), one
byte per step: 2 diagonal, 3 horizontal, 4 vertical.  The SVG drawings sum
them into levels and columns, and the tiling layer stores them as partner
directions.  One shear walk over those bytes (_sheared) maps every point
onto one slot of a bytearray and certifies disjointness by counting the
filled slots: is_disjoint is that certificate, and the Aztec bridge of the
tiling layer packs its tiling in the same walk.

NotDisjoint, under PreconditionViolation, is defined beside is_disjoint:
the combing kernel and the tiling layer both raise it, and neither loads
the other for that.  ExplicitPath, explicit_paths and family_from_paths
rebuild paths step by step; no library code calls them, and the tests
check the step-byte walk against them.

The frozen records of the package, here and in combing, enumeration and
tilings, derive from _Record.  Each lists its fields as __slots__ and sets
them in its own __init__, which also makes the record's checks; a slot
whose name starts with "_" is no field.  The base
gives == and hash on the tuple of the fields, the repr Name(field=value,
...), pickling and copying through __init__, and
dataclasses.FrozenInstanceError on assignment or deletion.  It does not
load dataclasses, whose import loads inspect, so no command pays for that
at start-up.
"""

from __future__ import annotations

from itertools import accumulate, count
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .fields import _plain_int

H_STEP = (0, 1)
D_STEP = (-1, 1)
V_STEP = (-1, 0)
STEP_VECTORS = (H_STEP, D_STEP, V_STEP)


class InvalidFamily(ValueError):
    """A PathFamily violates its structural invariants."""


class MalformedPath(ValueError):
    """An explicit path has bad endpoints or step vectors."""


class ParseError(ValueError):
    """A text serialization could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


def _frozen(message: str) -> AttributeError:
    """dataclasses.FrozenInstanceError(message), the error a frozen record
    raises on assignment or deletion; dataclasses is loaded on this error
    path only."""
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class _Record:
    """Base of a frozen record whose fields are its __slots__ not starting
    with "_", in order.

    A subclass sets each field in its own __init__ with object.__setattr__.
    Two records are equal when they are of one class and their tuples of
    fields are equal, and a record hashes as that tuple.  A slot starting
    with "_" may hold another form of the fields, outside ==, hash, repr
    and pickle.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # attrgetter reads the fields in C, but given one name it returns
        # the value itself, not a 1-tuple: == compares that value directly,
        # and hash, repr and pickle read the 1-tuple
        cls._names = names = [name for name in cls.__slots__ if name[0] != "_"]
        get = attrgetter(*names)
        cls._key = staticmethod(get)
        cls._values = staticmethod(get if len(names) > 1 else lambda self: (get(self),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._names, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")


def _fields(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) of each nonblank line, numbering from start."""
    for ln, line in enumerate(lines, start):
        fields = line.split()
        if fields:
            yield ln, fields


def _order(text: str) -> tuple[list[str], int]:
    """The lines of a triangle or family file, and the order n on line 1."""
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise ParseError("missing order header", line=1)
    try:
        n = _plain_int(lines[0].strip())
    except ValueError:
        raise ParseError(f"bad order header {lines[0]!r}", line=1) from None
    if n < 0:
        raise ParseError("order must be nonnegative", line=1)
    return lines, n


def _rows(lines: list[str], first: int, n: int, what: str) -> Iterator[tuple[int, int, str]]:
    """Yield (i, line number, line) for rows i = first..n-1, one per line below
    the header, then require only blank lines after them.  The caller checks
    each row before the next is read, so the first bad line is reported."""
    for ln, i in enumerate(range(first, n), 2):
        if ln > len(lines):
            raise ParseError(f"missing row {i}", line=ln)
        yield i, ln, lines[ln - 1]
    end = max(n - first, 0) + 1
    for ln, _ in _fields(lines[end:], end + 1):
        raise ParseError(f"trailing content after {what}", line=ln)


class _Memo(dict):
    """fn(key) for each key looked up, computed once per key.  Callers
    build one per call, so nothing is kept between calls."""

    def __init__(self, fn: Callable[[Hashable], object]) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key: Hashable) -> object:
        value = self[key] = self.fn(key)
        return value


def _integers(text: str, width: int) -> list[int] | None:
    """The integers of text in order, each distinct field through _plain_int
    once, when every nonblank line holds width of them; else None.  Every
    line break is whitespace, so text.split() lists the fields of all lines."""
    if set(map(len, map(str.split, text.splitlines()))) <= {0, width}:
        try:
            return list(map(_Memo(_plain_int).__getitem__, text.split()))
        except ValueError:
            pass
    return None


def _records(text: str, width: int, wrong_width: str, noun: str,
             key: Callable[[list[int]], Hashable]) -> frozenset:
    """The keys of the records on the nonblank lines, read line by line:
    each line must hold width integers, and key maps the integers of one
    line to its record's key.  The first line that holds a wrong number of
    fields, a field that is no integer, or a key met on an earlier line is
    a ParseError naming that line.  The set iterates its keys in the order
    of their lines."""
    line_of: dict = {}
    for ln, fields in _fields(text.splitlines()):
        if len(fields) != width:
            raise ParseError(wrong_width, line=ln)
        try:
            record = list(map(_plain_int, fields))
        except ValueError:
            raise ParseError("non-integer cell coordinate", line=ln) from None
        k = key(record)
        if line_of.setdefault(k, ln) != ln:
            raise ParseError(f"{noun} repeats line {line_of[k]}", line=ln)
    return frozenset(line_of)


# a bit as a byte to its digit
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class BitTriangle(_Record):
    """A strictly lower triangular array of bits: rows 0..n-1, row i has i bits."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[tuple[int, ...], ...]) -> None:
        # a bit is exactly the int 0 or 1: True and 1.0 equal 1 but are
        # written differently.  The identity tests pass the interpreter's
        # shared 0 and 1, which nearly every bit is, faster than the
        # equality test they skip; any other object takes the exact test.
        zero, one = 0, 1
        for i, row in enumerate(bits):
            if not isinstance(row, tuple) or len(row) != i:
                raise ValueError(f"triangle row {i} must be a tuple of length {i}")
            for b in row:
                if b is not zero and b is not one and (type(b) is not int or b not in (0, 1)):
                    raise ValueError(f"triangle entries must be bits, got {b!r} in row {i}")
        object.__setattr__(self, "bits", bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BitTriangle":
        return cls(tuple(tuple(int(b) for b in row) for row in rows))

    def to_text(self) -> str:
        # each row whole: __init__ admits only the ints 0 and 1, so its
        # bytes are its bits, and joining the characters of the digits
        # spaces them
        lines = [str(self.n)]
        lines += [" ".join(bytes(row).translate(_DIGITS).decode()) for row in self.bits[1:]]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BitTriangle":
        lines, n = _order(text)
        rows: list[tuple[int, ...]] = [()]
        for i, ln, line in _rows(lines, 1, n, "triangle"):
            fields = line.split()
            if len(fields) != i:
                raise ParseError(f"row {i} must hold {i} bits", line=ln)
            for col, field in enumerate(fields):
                if field not in ("0", "1"):
                    raise ParseError(f"bad bit {field!r}", line=ln, column=col)
            rows.append(tuple(map(int, fields)))
        return cls(tuple(rows[:n]))


class ExplicitPath(_Record):
    """A concrete path: a start point and a sequence of step vectors."""

    __slots__ = ("start", "steps")

    def __init__(self, start: tuple[int, int], steps: tuple[tuple[int, int], ...]) -> None:
        for s in steps:
            if s not in STEP_VECTORS:
                raise MalformedPath(f"bad step vector {s!r}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "steps", steps)

    @property
    def end(self) -> tuple[int, int]:
        lev, col = self.start
        for dl, dc in self.steps:
            lev += dl
            col += dc
        return (lev, col)

    def points(self) -> list[tuple[int, int]]:
        pts = [self.start]
        lev, col = self.start
        for dl, dc in self.steps:
            lev += dl
            col += dc
            pts.append((lev, col))
        return pts

    def support(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.points())

    @classmethod
    def from_points(cls, points: Sequence[tuple[int, int]]) -> "ExplicitPath":
        if not points:
            raise MalformedPath("a path needs at least its start point")
        steps = []
        for (al, ac), (bl, bc) in zip(points, points[1:]):
            steps.append((bl - al, bc - ac))
        return cls(tuple(points[0]), tuple(steps))


class PathFamily(_Record):
    """The (B, D) encoding of an order-n family.

    The constructor performs no validation so that diagnostics can be
    produced for arbitrary input; see validate_family.
    """

    __slots__ = ("B", "D")

    def __init__(self, B: tuple[tuple[int, ...], ...], D: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "D", D)

    @property
    def n(self) -> int:
        return len(self.B)

    @classmethod
    def from_rows(cls, B: Iterable[Iterable[int]], D: Iterable[Iterable[int]]) -> "PathFamily":
        return cls(
            tuple(tuple(int(x) for x in row) for row in B),
            tuple(tuple(int(x) for x in row) for row in D),
        )

    def to_text(self) -> str:
        lines = [str(self.n)]
        for i in range(self.n):
            tokens = ["B:"]
            tokens += [str(b) for b in self.B[i]]
            tokens += ("|", "D:")
            tokens += [str(d) for d in self.D[i]]
            lines.append(" ".join(tokens))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PathFamily":
        lines, n = _order(text)
        B, D = [], []
        value = _Memo(_plain_int).__getitem__  # each distinct field checked once
        for i, ln, line in _rows(lines, 0, n, "family"):
            if "|" not in line:
                raise ParseError("row must contain '|'", line=ln)
            left, _, right = line.partition("|")
            lfields = left.split()
            rfields = right.split()
            if not lfields or lfields[0] != "B:":
                raise ParseError("row must start with 'B:'", line=ln)
            if not rfields or rfields[0] != "D:":
                raise ParseError("second half must start with 'D:'", line=ln)
            try:
                brow = tuple(map(value, lfields[1:]))
                drow = tuple(map(value, rfields[1:]))
            except ValueError:
                raise ParseError("non-integer entry", line=ln) from None
            if len(brow) != i or len(drow) != i + 1:
                raise ParseError(f"row {i} must hold {i} B entries and {i + 1} D entries",
                                 line=ln)
            B.append(brow)
            D.append(drow)
        return cls(tuple(B), tuple(D))


class Violation(_Record):
    """One invariant violation found by validate_family."""

    __slots__ = ("kind", "i", "j", "message")

    def __init__(self, kind: str, i: int | None, j: int | None, message: str) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "message", message)


def _passes(B: Sequence[Sequence[int]], D: Sequence[Sequence[int]]) -> bool:
    """True only when validate_family finds nothing in (B, D).  One pass
    over each row checks its lengths, its entries (B entries the int 0 or
    1, D entries of type int and >= 0) and its slack s, the column index
    less the levels descended before the column: each D[i][j] <= s for
    j < i, and D[i][i] == s.  False at the first entry off, and also for an
    int subclass such as bool, which validate_family's phases then decide:
    a B entry passes only as the interpreter's shared 0 or 1, which the
    identity tests find at no cost, as in BitTriangle."""
    if len(B) != len(D):
        return False
    zero, one = 0, 1
    for i, brow, drow in zip(count(), B, D):
        if len(brow) != i or len(drow) != i + 1:
            return False
        s = 0
        for b, d in zip(brow, drow):
            if type(d) is not int or not 0 <= d <= s or b is not zero and b is not one:
                return False
            s += 1 - d - b
        d = drow[i]
        if type(d) is not int or d != s:
            return False
    return True


def _non_bits(first: int, rows: Iterable[Sequence[object]]) -> list[Violation]:
    """The domain violations of the B rows first, first + 1, ... that rows
    lists: one for each entry that is not an int equal to 0 or 1.  True and
    False are bits, 1.0 is not."""
    return [Violation("domain", i, j, f"B[{i}][{j}] = {b!r} is not a bit")
            for i, row in enumerate(rows, first) for j, b in enumerate(row)
            if not isinstance(b, int) or b not in (0, 1)]


def _shape_violations(f: PathFamily, rows: Iterable[int]) -> list[Violation]:
    """The triangularity violations of f: B and D differing in their number
    of rows, or else, for each given row i, B[i] not of length i and D[i]
    not of length i + 1."""
    if len(f.B) != len(f.D):
        return [Violation("triangularity", None, None,
                          f"B has {len(f.B)} rows but D has {len(f.D)}")]
    out = []
    for i in rows:
        if len(f.B[i]) != i:
            out.append(Violation("triangularity", i, None,
                                 f"B row {i} has length {len(f.B[i])}, expected {i}"))
        if len(f.D[i]) != i + 1:
            out.append(Violation("triangularity", i, None,
                                 f"D row {i} has length {len(f.D[i])}, expected {i + 1}"))
    return out


def validate_family(f: PathFamily) -> list[Violation]:
    """Report every violated invariant of the (B, D) encoding.

    Checks triangular shape and entry domains, the descent balance
    sum(B[i]) + sum(D[i]) = i, and the staying-above condition
    sum_{j'<j}(B[i][j'] + D[i][j']) + D[i][j] <= j for all j <= i.

    A family that passes the one-pass check (_passes) is valid.  Any other
    family goes through the three phases below, shape, then domains, then
    balance and staying above, and the first phase that finds a violation
    reports all of its own.
    """
    if _passes(f.B, f.D):
        return []
    n = len(f.B)
    out = _shape_violations(f, range(n))
    if out:
        return out
    out = _non_bits(0, f.B)
    for i in range(n):
        for j, d in enumerate(f.D[i]):
            if not isinstance(d, int) or d < 0:
                out.append(Violation("domain", i, j, f"D[{i}][{j}] = {d!r} is not a count"))
    if out:
        return out
    for i in range(n):
        if sum(f.B[i]) + sum(f.D[i]) != i:
            out.append(Violation("descent-balance", i, None,
                                 f"row {i} steps descend {sum(f.B[i]) + sum(f.D[i])} levels, "
                                 f"expected {i}"))
        pre = 0
        for j in range(i + 1):
            if pre + f.D[i][j] > j:
                out.append(Violation("schroder", i, j,
                                     f"path {i} drops below its anti-diagonal in column {j}"))
            pre += f.D[i][j] + (f.B[i][j] if j < i else 0)
    return out


def require_valid(f: PathFamily) -> None:
    """Raise InvalidFamily naming the first violations validate_family finds."""
    problems = validate_family(f)
    if problems:
        raise InvalidFamily("; ".join(v.message for v in problems[:3]))


def family_from_bits(t: BitTriangle) -> PathFamily:
    """Build the cliff-shaped family whose free step directions are t.

    Row i of D is zero except for the diagonal entry, which balances the
    horizontal steps: D[i][i] = i - sum(t.bits[i]).
    """
    D = tuple((0,) * i + (i - sum(t.bits[i]),) for i in range(t.n))
    return PathFamily(t.bits, D)


def explicit_paths(f: PathFamily) -> list[ExplicitPath]:
    """Reconstruct the n explicit paths encoded by f.

    In column j, path i performs its D[i][j] vertical steps on entering the
    column, then (if j < i) the step selected by B[i][j].
    """
    require_valid(f)
    paths = []
    for i in range(f.n):
        steps: list[tuple[int, int]] = []
        for j in range(i + 1):
            steps.extend([V_STEP] * f.D[i][j])
            if j < i:
                steps.append(D_STEP if f.B[i][j] else H_STEP)
        paths.append(ExplicitPath((i, 0), tuple(steps)))
    return paths


def family_from_paths(paths: Sequence[ExplicitPath]) -> PathFamily:
    """Encode explicit paths as a (B, D) pair; inverse of explicit_paths.

    Path i must run from (i, 0) to (0, i).
    """
    n = len(paths)
    B, D = [], []
    for i, path in enumerate(paths):
        if path.start != (i, 0):
            raise MalformedPath(f"path {i} starts at {path.start}, expected {(i, 0)}")
        if path.end != (0, i):
            raise MalformedPath(f"path {i} ends at {path.end}, expected {(0, i)}")
        brow = [0] * i
        drow = [0] * (i + 1)
        col = 0
        for step in path.steps:
            if step == V_STEP:
                drow[col] += 1
            else:
                if col >= i:
                    raise MalformedPath(f"path {i} advances beyond column {i}")
                brow[col] = 1 if step == D_STEP else 0
                col += 1
        B.append(tuple(brow))
        D.append(tuple(drow))
    return PathFamily(tuple(B), tuple(D))


def is_cliff_shaped(f: PathFamily) -> bool:
    """True when no path has a vertical step outside its final column."""
    return all(f.D[i][j] == 0 for i in range(f.n) for j in range(i))


class PreconditionViolation(Exception):
    """A basic operation was invoked outside its legal domain."""


class NotDisjoint(PreconditionViolation):
    """The operation requires disjoint paths and the input paths collide."""


# The step bytes of a path, one per step in path order: 2 for a diagonal
# step, 3 for a horizontal one and 4 for a vertical one.  In the Aztec
# bridge (tilings) they are also the directions, right, up and down, from
# the black cell that a step leaves to its white partner.  _TURNS is the
# byte of a column step by its B entry, and _BITS its inverse on the
# column steps.
_TURNS = (b"\3", b"\2")
_BITS = bytes.maketrans(b"\2\3", b"\1\0")
# the level and the column move of each step byte, one table per axis
_LEVEL_MOVES, _COLUMN_MOVES = zip((0, 0), (0, 0), D_STEP, H_STEP, V_STEP)


def _steps(brow: Sequence[int], drow: Sequence[int]) -> bytes:
    """The step bytes of the path with rows brow = B[i] and drow = D[i], in
    path order: for each column j, D[i][j] vertical steps and then the step
    to column j + 1; then the vertical run of the last column."""
    return b"".join(b"\4" * d + _TURNS[b] for b, d in zip(brow, drow)) + b"\4" * drow[-1]


def _sheared(f: PathFamily) -> tuple[bytearray, bool]:
    """The shear walk of f: (P, disjoint).

    Raises InvalidFamily unless f is valid.  The shear (level, column) ->
    (level + column, column - level) is injective, and it maps each point
    of an order-n family onto the code s*W + u + n, W = 2n, of a cell (s, u)
    of a W x W box: a valid path i keeps 0 <= s <= 2i and |u| <= i.  P has
    one byte per code, and the walk writes, at the code of each point of
    P_1, ..., P_{n-1} but its last, the step byte (_steps) of the step that
    leaves it.

    disjoint certifies the family: the walked points are distinct exactly
    when no slot of P is written twice, that is when as many slots are
    filled as steps were walked.  Path i takes i column steps and, by its
    descent balance, i - sum(B[i]) vertical ones, so the walk takes
    n(n - 1) - sum(B) steps in all.  The points it skips cannot collide: a
    valid path i keeps level + column >= i and ends in column i, so only
    P_i reaches its last point (0, i), and only P_0 the point (0, 0).
    """
    require_valid(f)
    n = f.n
    W = 2 * n
    P = bytearray(W * W)
    # (lev, col) shears onto the code lev*(W - 1) + col*(W + 1) + n, which
    # a diagonal, horizontal or vertical step (2, 3, 4) moves by 2, W + 1 or 1 - W
    move = (0, 0, 2, W + 1, 1 - W)
    for i in range(1, n):
        steps = _steps(f.B[i], f.D[i])
        for c, d in zip(accumulate(map(move.__getitem__, steps), initial=i * (W - 1) + n), steps):
            P[c] = d
    return P, len(P) - P.count(0) == n * (n - 1) - sum(map(sum, f.B))


def is_disjoint(f: PathFamily) -> bool:
    """True when the supports of the n paths are pairwise disjoint: the
    certificate of the shear walk (_sheared).

    Raises InvalidFamily, through require_valid, when f is not valid.
    """
    return _sheared(f)[1]


def entry_levels(f: PathFamily, k: int) -> tuple[int, ...]:
    """Level at which each path enters column k: i - sum(B[i][:k]).

    Exact for paths without vertical steps before column k, the domain the
    combing stages and single steps check before they read it; rows that
    end before column k get the level past their last step.
    """
    return tuple(i - sum(f.B[i][:k]) for i in range(f.n))
