"""Invertible combing of path families.

The forward basic operation makes two adjacent paths P_i, P_{i+1} disjoint
up to a column k by interchanging step directions between the rows and
transferring vertical steps in column k from row i to row i+1.  The
backward operation reconstructs the original pair from the disjoint one,
reading the transfer count off D[i+1][k].  Sweeping the forward operation
over i = k..n-2 for k = n-1 down to 0 turns any cliff-shaped family into a
disjoint one (comb); the reverse sweeps recover the triangle of free bits
(uncomb).  Both directions are bijections stage by stage.

All public operations are pure: they return new families and leave their
arguments untouched.  Trace capture is available through the optional
trace_sink arguments so that tests can assert the monotonicity and
dominance properties of the d-sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import (
    BitTriangle,
    PathFamily,
    entry_levels,
    explicit_paths,
    family_from_bits,
    require_valid,
)

HeightVector = tuple[int, ...]


class PreconditionViolation(Exception):
    """A basic operation was invoked outside its legal domain."""


class InsufficientVerticalSteps(PreconditionViolation):
    """Row i holds fewer vertical steps in column k than must be transferred."""


class ResidualVerticalSteps(PreconditionViolation):
    """Vertical steps present where the operation requires none."""


class NotDisjoint(PreconditionViolation):
    """The operation requires disjoint paths and the input paths collide."""


@dataclass(frozen=True)
class CombTrace:
    """The control sequence (d_0, ..., d_k) produced by one basic operation.

    Forward traces are weakly increasing from d_0 = 0 by unit steps; the
    backward operation rebuilds the same sequence scanning from d_k down.
    """

    i: int
    k: int
    d_seq: tuple[int, ...]

    @property
    def transferred(self) -> int:
        return self.d_seq[-1]


def _to_lists(f: PathFamily) -> tuple[list[list[int]], list[list[int]]]:
    return [list(r) for r in f.B], [list(r) for r in f.D]


def _freeze(B: list[list[int]], D: list[list[int]]) -> PathFamily:
    return PathFamily(tuple(tuple(r) for r in B), tuple(tuple(r) for r in D))


def _check_clear_before(f: PathFamily, i: int, k: int) -> None:
    for row in (i, i + 1):
        for j in range(k):
            if f.D[row][j]:
                raise ResidualVerticalSteps(
                    f"D[{row}][{j}] = {f.D[row][j]} but rows {i},{i + 1} may hold no "
                    f"vertical steps before column {k}")


def _disj(B: list[list[int]], D: list[list[int]], i: int, k: int) -> tuple[int, ...]:
    """Forward operation on rows i, i+1 up to column k, in place."""
    if D[i + 1][k]:
        raise ResidualVerticalSteps(
            f"D[{i + 1}][{k}] = {D[i + 1][k]} must be 0 before the forward operation")
    bi, bi1 = B[i], B[i + 1]
    cur = 0
    d = 0
    seq = [0]
    for j in range(k):
        cur += bi1[j] - bi[j]
        if cur > d:
            d = cur
            bi[j], bi1[j] = 1, 0
        seq.append(d)
    if D[i][k] < d:
        raise InsufficientVerticalSteps(
            f"need {d} vertical steps in D[{i}][{k}] but only {D[i][k]} present")
    D[i][k] -= d
    D[i + 1][k] = d
    return tuple(seq)


def _clify(B: list[list[int]], D: list[list[int]], h: list[int], i: int, k: int,
           ) -> tuple[int, ...]:
    """Backward operation on rows i, i+1 up to column k, in place.

    h[i] and h[i+1] must hold the entry levels of the two paths into
    column k; they are updated to match the result.
    """
    d = D[i + 1][k]
    cur = h[i + 1] - h[i] - 1
    if not 0 <= d <= cur:
        raise NotDisjoint(
            f"paths {i},{i + 1} are not disjoint up to column {k}: "
            f"gap {cur} cannot absorb {d} vertical steps")
    D[i + 1][k] = 0
    D[i][k] += d
    h[i + 1] -= d
    h[i] += d
    seq = [0] * (k + 1)
    seq[k] = d
    bi, bi1 = B[i], B[i + 1]
    for j in range(k - 1, -1, -1):
        cur += bi1[j] - bi[j]
        if cur < 0:
            raise NotDisjoint(f"paths {i},{i + 1} collide in column {j}")
        if cur < d:
            d = cur
            bi[j], bi1[j] = 0, 1
        seq[j] = d
    return tuple(seq)


def disj_step(f: PathFamily, i: int, k: int) -> tuple[PathFamily, CombTrace]:
    """Make paths P_i, P_{i+1} disjoint up to column k inclusive.

    Requires 0 <= k <= i < n-1, no vertical steps in either row before
    column k, D[i+1][k] = 0, and enough vertical steps in D[i][k] to cover
    the transfer.  Step directions are interchanged exactly where the
    d-sequence increases; d_k vertical steps move from row i to row i+1.
    """
    if not 0 <= k <= i < f.n - 1:
        raise ValueError(f"need 0 <= k <= i < n-1, got i={i}, k={k}, n={f.n}")
    _check_clear_before(f, i, k)
    B, D = _to_lists(f)
    seq = _disj(B, D, i, k)
    return _freeze(B, D), CombTrace(i=i, k=k, d_seq=seq)


def clify_step(f: PathFamily, h: HeightVector, i: int, k: int,
               ) -> tuple[PathFamily, HeightVector, CombTrace]:
    """Exact inverse of disj_step on its image.

    h must map each row to its entry level into column k (see
    entry_levels); the returned vector reflects the modified rows.  All
    D[i+1][k] vertical steps move back to row i and the interchanged step
    directions are restored scanning from column k-1 down to 0.
    """
    if not 0 <= k <= i < f.n - 1:
        raise ValueError(f"need 0 <= k <= i < n-1, got i={i}, k={k}, n={f.n}")
    if len(h) != f.n:
        raise ValueError(f"height vector has {len(h)} entries, expected {f.n}")
    _check_clear_before(f, i, k)
    B, D = _to_lists(f)
    hs = list(h)
    seq = _clify(B, D, hs, i, k)
    return _freeze(B, D), tuple(hs), CombTrace(i=i, k=k, d_seq=seq)


def _comb_column(B: list[list[int]], D: list[list[int]], k: int,
                 trace_sink: list[CombTrace] | None = None) -> None:
    n = len(B)
    D[k][k] = k - sum(B[k])
    for i in range(k, n - 1):
        seq = _disj(B, D, i, k)
        if trace_sink is not None:
            trace_sink.append(CombTrace(i=i, k=k, d_seq=seq))


def comb_column(f: PathFamily, k: int,
                trace_sink: list[CombTrace] | None = None) -> PathFamily:
    """One combing stage: distribute the vertical steps of column k.

    Expects a family whose paths P_{k+1}, ..., P_{n-1} are already disjoint
    and which has no vertical steps in non-final columns before k+1; the
    result has P_k, ..., P_{n-1} disjoint.  Identity on the paths for
    k = n-1 and k = 0.
    """
    if not 0 <= k < f.n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={f.n}")
    B, D = _to_lists(f)
    _comb_column(B, D, k, trace_sink)
    return _freeze(B, D)


def _uncomb_column(B: list[list[int]], D: list[list[int]], h: list[int], k: int,
                   trace_sink: list[CombTrace] | None = None) -> None:
    n = len(B)
    for i in range(n - 2, k - 1, -1):
        seq = _clify(B, D, h, i, k)
        if trace_sink is not None:
            trace_sink.append(CombTrace(i=i, k=k, d_seq=seq))


def uncomb_column(f: PathFamily, k: int,
                  trace_sink: list[CombTrace] | None = None) -> PathFamily:
    """Inverse of comb_column at k: collect column k's vertical steps in P_k."""
    if not 0 <= k < f.n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={f.n}")
    B, D = _to_lists(f)
    _uncomb_column(B, D, list(entry_levels(f, k)), k, trace_sink)
    return _freeze(B, D)


def comb(t: BitTriangle, trace_sink: list[CombTrace] | None = None) -> PathFamily:
    """Comb the cliff-shaped family of t into a disjoint family.

    Sweeps comb_column for k = n-1 down to 0.  Step directions only ever
    swap between adjacent rows within a column, so per-column sums of B and
    of D are conserved throughout.
    """
    f = family_from_bits(t)
    B, D = _to_lists(f)
    for k in range(t.n - 1, -1, -1):
        _comb_column(B, D, k, trace_sink)
    return _freeze(B, D)


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
    once column k has been swept.
    """
    require_valid(f)
    n = f.n
    B, D = _to_lists(f)
    h = list(range(n))
    for k in range(n):
        _uncomb_column(B, D, h, k, trace_sink)
        for i in range(k + 1, n):
            h[i] -= B[i][k]
    return BitTriangle(tuple(tuple(r) for r in B))


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


__all__ = [
    "CombTrace",
    "HeightVector",
    "InsufficientVerticalSteps",
    "NotDisjoint",
    "PreconditionViolation",
    "ResidualVerticalSteps",
    "clify_step",
    "comb",
    "comb_column",
    "disj_step",
    "entry_levels",
    "in_pathfam_nk",
    "uncomb",
    "uncomb_column",
]
