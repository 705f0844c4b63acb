"""Invertible combing of path families.

The forward basic operation makes two adjacent paths P_i, P_{i+1} disjoint
up to a column k by interchanging step directions between the rows and
transferring vertical steps in column k from row i to row i+1.  The
backward operation reconstructs the original pair from the disjoint one,
reading the transfer count off D[i+1][k].  Sweeping the forward operation
over i = k..n-2 for k = n-1 down to 0 turns any cliff-shaped family into a
disjoint one (comb); the reverse sweeps recover the triangle of free bits
(uncomb).  Both directions are bijections stage by stage, on the domain
of stage k: the rows that stage touches hold no vertical step before
column k.

All public operations are pure: they return new families and leave their
arguments untouched.  Each of them runs its basic operations through one
sweep driver, _sweep, which holds one loop per direction with the chunked
scan written inline, so that a basic operation costs no Python call.  The
chunk tables come indexed by slack, built once per public call by _tables.
The two column stages and the two single steps reach _sweep through one
runner, _stage_sweep, which checks the shape of its window of rows and the
stage domain there, packs the window and rebuilds the family; comb and
uncomb pack the whole triangle once and sweep the columns in place.
_sweep is also the one place that captures traces for the optional
trace_sink arguments, so that tests can assert the monotonicity and
dominance properties of the d-sequences.  The stage at column 0 moves no
step in either direction: no column lies before it, and every family it
meets holds no vertical step there (a cliff family by construction, a
valid one because a path stays above only with D[i][0] <= 0).  So comb and
uncomb sweep column 0 only when traced, for its n-1 traces.

InsufficientVerticalSteps and ResidualVerticalSteps are defined here.
NotDisjoint and their base PreconditionViolation come from families, so the
tiling layer raises the same NotDisjoint without loading this module.
"""

from __future__ import annotations

from itertools import accumulate, product, repeat
from operator import xor
from typing import Iterable, Sequence

from .families import (
    BitTriangle,
    InvalidFamily,
    NotDisjoint,
    PathFamily,
    PreconditionViolation,
    _non_bits,
    _Record,
    _shape_violations,
    entry_levels,
    require_valid,
)


class InsufficientVerticalSteps(PreconditionViolation):
    """Row i holds fewer vertical steps in column k than must be transferred."""


class ResidualVerticalSteps(PreconditionViolation):
    """Vertical steps present where the operation requires none."""


class CombTrace(_Record):
    """The control sequence (d_0, ..., d_k) produced by one basic operation.

    Forward traces are weakly increasing from d_0 = 0 by unit steps; the
    backward operation rebuilds the same sequence scanning from d_k down.
    """

    __slots__ = ("i", "k", "d_seq")

    def __init__(self, i: int, k: int, d_seq: tuple[int, ...]) -> None:
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d_seq", d_seq)

    @property
    def transferred(self) -> int:
        return self.d_seq[-1]


W = 4
"""Columns per chunk of a packed B row."""


def _table(backward: bool) -> list[tuple[int, int, int]]:
    """The scan of one chunk, for every chunk pair and entering slack.

    The slack is how far the control value d stays from the running gap
    sum: forward it is d - cur and gains x_j - y_j per column, backward it
    is cur - d and gains y_j - x_j, with columns taken high to low.  A
    column where it would go negative is a record: both rows' bits there
    flip, d moves by one (up forward, down backward) and the slack stays 0.
    A slack of W or more enters a chunk that cannot hold a record, so the
    key clamps it to W: min(slack, W) << 2W | x << W | y.  The entry is
    (record mask, change of d, change of slack).
    """
    cols = range(W - 1, -1, -1) if backward else range(W)
    sign = -1 if backward else 1
    walks = [[(j, sign * ((x >> j & 1) - (y >> j & 1))) for j in cols]
             for x in range(1 << W) for y in range(1 << W)]
    table = []
    for s0 in range(W + 1):
        for steps in walks:
            s, r = s0, 0
            for j, gain in steps:
                s += gain
                if s < 0:
                    s, r = 0, r | 1 << j
            table.append((r, sign * r.bit_count(), s - s0))
    return table


_FORWARD = _table(backward=False)
_BACKWARD = _table(backward=True)
# the 2W-bit key's slice of each table for slack 0..W
_FORWARD_ROWS, _BACKWARD_ROWS = ([table[s << 2 * W:(s + 1) << 2 * W] for s in range(W + 1)]
                                 for table in (_FORWARD, _BACKWARD))
_CHUNK_BYTES = [bytes(m >> j & 1 for j in range(W)) for m in range(1 << W)]
# a row of at most 2W bits packs and unpacks with one lookup
_NIBBLE = {bits: sum(b << j for j, b in enumerate(bits))
           for n in range(1, W + 1) for bits in product((0, 1), repeat=n)}
_PACK = {(): (), **{bits: (v,) for bits, v in _NIBBLE.items()},
         **{lo + hi: (_NIBBLE[lo], v) for lo in product((0, 1), repeat=W)
            for hi, v in _NIBBLE.items()}}
_UNPACK = {(len(bits), chunks): bits for bits, chunks in _PACK.items()}
# Times a string of 0/1 bytes read as a little-endian integer, this moves
# the W bits of each 4-byte group into the low nibble of the group's last
# byte; no two partial products share a bit, so nothing carries.
_GATHER_MUL = 1 << 24 | 1 << 17 | 1 << 10 | 1 << 3
_LOW_NIBBLE = bytes(b & 15 for b in range(256))


def _gather(bits: bytes) -> list[int]:
    """The chunks of a bit string with one 0/1 byte per column: bit b of
    chunk c is column W*c + b."""
    moved = int.from_bytes(bits, "little") * _GATHER_MUL
    return list(moved.to_bytes(len(bits) + 3, "little")[3::4].translate(_LOW_NIBBLE))


def _spread(chunks: Iterable[int]) -> bytes:
    """The columns of a run of chunks, one 0/1 byte each; inverse of _gather."""
    return b"".join(map(_CHUNK_BYTES.__getitem__, chunks))


def _by_slack(rows: list, top: int) -> list:
    """Chunk tables for the slacks 0..top: entry s is the slice of _FORWARD_ROWS
    or _BACKWARD_ROWS for min(s, W), so a sweep indexes by slack unclamped.
    A scan up to column k gains at most one slack per column from its start,
    0 forward and gap - d backward, where gap <= k since row i holds at most
    k diagonal steps before column k: so top = k forward and 2k backward."""
    return rows + rows[W:] * (top - W)


def _tables(backward: bool, k: int) -> list:
    """The chunk tables a sweep up to column k indexes by slack."""
    return _by_slack(_BACKWARD_ROWS, 2 * k) if backward else _by_slack(_FORWARD_ROWS, k)


def _pack(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """The chunks of each row of bits, in a list the sweeps update in place."""
    return [list(_PACK[tuple(row)]) if len(row) <= 2 * W else _gather(bytes(row))
            for row in rows]


def _unpack(X: Iterable[list[int]], lengths: Iterable[int]) -> list[tuple[int, ...]]:
    """The rows of the given lengths that the chunks of X pack; inverse of _pack."""
    return [_UNPACK[length, tuple(x)] if length <= 2 * W else tuple(_spread(x)[:length])
            for x, length in zip(X, lengths)]


def _collision(i: int, c: int, r: int, d: int) -> NotDisjoint:
    """Paths i, i+1 collide at the (d+1)-th record of chunk c, walking its
    record mask r from the high bit down: there a backward scan entering
    the chunk with control value d drives it below 0."""
    j = W * c + [b for b in range(W - 1, -1, -1) if r >> b & 1][d]
    return NotDisjoint(f"paths {i},{i + 1} collide in column {j}")


def _trace(before: list[int], after: list[int], i: int, k: int, d0: int) -> CombTrace:
    """The trace of one basic operation on rows i, i+1, read off the bits it
    flipped in row i: from d0 at column 0, the control value steps by one
    at every flipped column."""
    flips = _spread(map(xor, before, after))[:k]
    return CombTrace(i, k, tuple(accumulate(flips, initial=d0)))


def _sweep(X: Sequence[list[int]], D: Sequence[list[int]], k: int, rows: Iterable[int],
           T: list, h: list[int] | None = None,
           trace_sink: list[CombTrace] | None = None) -> int:
    """Run a basic operation on the row pairs i, i+1 at column k, for each i
    in rows in turn, in place on packed B rows X and D rows D.

    With h None it is the forward operation; else the backward one, and h
    holds the levels at which the paths enter column k, updated to match the
    result.  T is _tables of the direction at column k or above.  Columns
    0..k-1 are scanned a chunk at a time (see _table): one lookup per whole
    chunk, and one masked lookup for the partial chunk below column k, flip
    the record bits of both rows; the backward scan takes the chunks high to
    low, so it starts with the partial one.  Returns the control value at column 0 of the last
    operation.  Each trace goes to trace_sink once its operation is done;
    a traced sweep runs the untraced one a row at a time.
    """
    if trace_sink is not None:
        d0 = 0
        for i in rows:
            before = X[i][:k // W + 1]
            d0 = _sweep(X, D, k, (i,), T, h)
            trace_sink.append(_trace(before, X[i], i, k, d0))
        return d0
    # q whole chunks, then a partial one of mask m; keys x << W | y are
    # written out for W = 4
    q, m = k >> 2, (1 << (k & 3)) - 1
    if h is None:
        chunks = range(q)
        for i in rows:
            if D[i + 1][k]:
                raise ResidualVerticalSteps(
                    f"D[{i + 1}][{k}] = {D[i + 1][k]} must be 0 before the forward operation")
            x, y = X[i], X[i + 1]
            d = s = 0
            for c in chunks:
                r, dd, ds = T[s][x[c] << 4 | y[c]]
                if r:
                    x[c] ^= r
                    y[c] ^= r
                    d += dd
                s += ds
            if m:
                r, dd, _ = T[s][(x[q] & m) << 4 | y[q] & m]
                x[q] ^= r
                y[q] ^= r
                d += dd
            if D[i][k] < d:
                raise InsufficientVerticalSteps(
                    f"need {d} vertical steps in D[{i}][{k}] but only {D[i][k]} present")
            D[i][k] -= d
            D[i + 1][k] = d
        return 0
    chunks = range(q - 1, -1, -1)
    d = 0
    for i in rows:
        d = D[i + 1][k]
        gap = h[i + 1] - h[i] - 1
        if not 0 <= d <= gap:
            if gap < 0:
                raise NotDisjoint(f"paths {i},{i + 1} meet at or before column {k}")
            raise NotDisjoint(
                f"paths {i},{i + 1} are not disjoint up to column {k}: "
                f"gap {gap} cannot absorb {d} vertical steps")
        D[i + 1][k] = 0
        D[i][k] += d
        h[i + 1] -= d
        h[i] += d
        x, y = X[i], X[i + 1]
        s = gap - d
        if m:
            r, dd, ds = T[s][(x[q] & m) << 4 | y[q] & m]
            x[q] ^= r
            y[q] ^= r
            d += dd
            if d < 0:
                raise _collision(i, q, r, d - dd)
            s += ds
        for c in chunks:
            r, dd, ds = T[s][x[c] << 4 | y[c]]
            if r:
                x[c] ^= r
                y[c] ^= r
                d += dd
                if d < 0:
                    raise _collision(i, c, r, d - dd)
            s += ds
    return d


def _stage_sweep(f: PathFamily, first: int, rows: Sequence[int], k: int, backward: bool,
                 trace_sink: list[CombTrace] | None) -> PathFamily:
    """f after the basic operations at column k on the row pairs i, i+1 for
    each i in rows in turn, which stay in the window of rows first to
    first + len(rows).

    Checks the window's rows and the stage domain before any operation
    runs: InvalidFamily with validate_family's message when B and D differ
    in their number of rows or a window row has the wrong length,
    ResidualVerticalSteps when a window row holds a vertical step before
    column k, InvalidFamily when a B entry of the window before column k is
    not a bit, and, forward with row k in the window, InvalidFamily when
    D[k][k] is not k - sum(B[k]).  The backward direction reads the gaps
    off entry_levels, exact on that domain.  Then _sweep runs, with its own
    checks, on the packed window; the rows outside it stay as they are.
    """
    window = range(first, first + len(rows) + 1)
    shape = _shape_violations(f, window)
    if shape:
        raise InvalidFamily(shape[0].message)
    for r in window:
        for j, v in enumerate(f.D[r][:k]):
            if v:
                raise ResidualVerticalSteps(
                    f"D[{r}][{j}] = {v} but rows {first}..{window[-1]} may hold no "
                    f"vertical steps before column {k}")
    span = slice(first, window.stop)
    bits = [row[:k] for row in f.B[span]]
    non_bits = _non_bits(first, bits)
    if non_bits:
        raise InvalidFamily(non_bits[0].message)
    if not backward and k in window and f.D[k][k] != k - sum(f.B[k]):
        raise InvalidFamily(f"row {k}, column {k}: D[{k}][{k}] = {f.D[k][k]} is not "
                            f"{k} - sum(B[{k}]), as a stage input needs")
    X, D = list(f.B), list(f.D)
    X[span] = _pack(bits)
    D[span] = map(list, f.D[span])
    _sweep(X, D, k, rows, _tables(backward, k),
           list(entry_levels(f, k)) if backward else None, trace_sink)
    B = list(f.B)
    B[span] = [done + tuple(row[k:]) for done, row in zip(_unpack(X[span], repeat(k)), f.B[span])]
    D[span] = map(tuple, D[span])
    return PathFamily(tuple(B), tuple(D))


def _step(f: PathFamily, i: int, k: int, backward: bool) -> tuple[PathFamily, CombTrace]:
    """One basic operation on rows i, i+1 of f up to column k, and its trace."""
    if not 0 <= k <= i < f.n - 1:
        raise ValueError(f"need 0 <= k <= i < n-1, got i={i}, k={k}, n={f.n}")
    traces: list[CombTrace] = []
    return _stage_sweep(f, i, (i,), k, backward, traces), traces[0]


def disj_step(f: PathFamily, i: int, k: int) -> tuple[PathFamily, CombTrace]:
    """Make paths P_i, P_{i+1} disjoint up to column k inclusive.

    Its domain: 0 <= k <= i < n-1, and rows i, i+1 hold no vertical step
    before column k.  Step directions are interchanged exactly where the
    d-sequence increases; d_k vertical steps move from row i to row i+1.
    Raises, in this order: ValueError for i or k out of range;
    InvalidFamily when B and D differ in their number of rows or row i or
    i+1 has the wrong length; ResidualVerticalSteps for a vertical step of
    row i or i+1 before column k; InvalidFamily for a B entry of those rows
    before column k that is not a bit, and, when i = k, for D[k][k] other
    than k - sum(B[k]); ResidualVerticalSteps when D[i+1][k] is not 0; and
    InsufficientVerticalSteps when D[i][k] cannot cover the transfer.
    """
    return _step(f, i, k, backward=False)


def clify_step(f: PathFamily, i: int, k: int) -> tuple[PathFamily, CombTrace]:
    """Exact inverse of disj_step on its image.

    Its domain is disj_step's.  All D[i+1][k] vertical steps move back to
    row i and the interchanged step directions are restored scanning from
    column k-1 down to 0.  The gap between the two paths is read off their
    entry levels into column k, which entry_levels gives exactly because
    rows i and i+1 hold no vertical steps before column k.  Raises, in
    this order: ValueError for i or k out of range; InvalidFamily when B
    and D differ in their number of rows or row i or i+1 has the wrong
    length; ResidualVerticalSteps for a vertical step of row i or i+1
    before column k; InvalidFamily for a B entry of those rows before
    column k that is not a bit; NotDisjoint when the paths meet at or
    before column k, or when their gap cannot absorb D[i+1][k]; and
    NotDisjoint naming the column where they collide in the scan.
    """
    return _step(f, i, k, backward=True)


def comb_column(f: PathFamily, k: int,
                trace_sink: list[CombTrace] | None = None) -> PathFamily:
    """One combing stage: distribute the vertical steps of column k.

    Its domain: rows k, ..., n-1 hold no vertical step before column k.
    Given paths P_{k+1}, ..., P_{n-1} already disjoint, as comb_column at
    k+1 leaves them, the result has P_k, ..., P_{n-1} disjoint.  Identity
    on the paths for k = n-1 and k = 0.  Raises, in this order: ValueError
    for k out of range; InvalidFamily when B and D differ in their number
    of rows or one of rows k..n-1 has the wrong length;
    ResidualVerticalSteps for a vertical step of rows k..n-1 before column
    k; InvalidFamily for a B entry of those rows before column k that is
    not a bit, then for D[k][k] other than k - sum(B[k]); then, for each
    pair i, i+1 from i = k up, ResidualVerticalSteps when D[i+1][k] is not
    0 and InsufficientVerticalSteps when D[i][k] cannot cover the
    transfer.
    """
    if not 0 <= k < f.n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={f.n}")
    return _stage_sweep(f, k, range(k, f.n - 1), k, False, trace_sink)


def uncomb_column(f: PathFamily, k: int,
                  trace_sink: list[CombTrace] | None = None) -> PathFamily:
    """Inverse of comb_column at k: collect column k's vertical steps in P_k.

    Its domain is comb_column's.  Raises, in this order: ValueError for k
    out of range; InvalidFamily when B and D differ in their number of rows
    or one of rows k..n-1 has the wrong length; ResidualVerticalSteps for
    a vertical step of rows k..n-1 before column k; InvalidFamily for a B
    entry of those rows before column k that is not a bit; then, for each
    pair i, i+1 from i = n-2 down, NotDisjoint when the paths meet at or
    before column k or their gap cannot absorb D[i+1][k], and NotDisjoint
    naming the column where they collide in the scan.
    """
    if not 0 <= k < f.n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={f.n}")
    return _stage_sweep(f, k, range(f.n - 2, k - 1, -1), k, True, trace_sink)


def comb(t: BitTriangle, trace_sink: list[CombTrace] | None = None) -> PathFamily:
    """Comb the cliff-shaped family of t into a disjoint family.

    Sweeps comb_column for k = n-1 down to 0.  Step directions only ever
    swap between adjacent rows within a column, so per-column sums of B and
    of D are conserved throughout.  The stages at k = n-1 and k = 0 are
    identities, so only k = n-2 down to 1 run, and k = 0 too when traced,
    where its operations each give a trace (0,).
    """
    n = t.n
    X = _pack(t.bits)
    D = [[0] * i + [i - sum(row)] for i, row in enumerate(t.bits)]
    T = _tables(False, n - 2)
    last = -1 if trace_sink is not None else 0
    for k in range(n - 2, last, -1):  # no pair of rows meets column n-1
        _sweep(X, D, k, range(k, n - 1), T, None, trace_sink)
    return PathFamily(tuple(_unpack(X, range(n))), tuple(map(tuple, D)))


def uncomb(f: PathFamily, trace_sink: list[CombTrace] | None = None) -> BitTriangle:
    """Recover the bit triangle of the disjoint family f; inverse of comb.

    Raises InvalidFamily when f breaks an invariant of the encoding, and
    NotDisjoint when f is valid but two of its paths meet.  The sweep is
    the disjointness certificate: every backward operation checks that its
    two paths keep a gap, and once all of them pass, each one lay in the
    domain where the forward operation inverts it, so comb of the result
    gives back f, which is disjoint.  Each backward operation trades the
    vertical steps it moves up a row for as many diagonal steps moved down,
    so the swept family is the cliff-shaped family of the returned bits.
    The height vector starts at h[i] = i in column 0 and drops by B[i][k]
    once column k has been swept; only later sweeps change column k, so
    B[i][k] is still f's.  Column 0 is swept only when traced: a valid f
    holds no vertical step there and the paths enter it a level apart, so
    its operations move nothing and pass every check.
    """
    require_valid(f)
    n = f.n
    X = _pack(f.B)
    D = list(map(list, f.D))
    h = list(range(n))
    T = _tables(True, n - 2)
    for k in range(n - 1):  # no pair of rows meets column n-1
        if k or trace_sink is not None:
            _sweep(X, D, k, range(n - 2, k - 1, -1), T, h, trace_sink)
        for i in range(k + 1, n):
            h[i] -= f.B[i][k]
    return BitTriangle(tuple(_unpack(X, range(n))))
