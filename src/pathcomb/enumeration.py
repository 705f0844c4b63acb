"""Brute-force ground truth for small orders.

One generator lists the (B, D) rows of every Schröder path of a given row.
Exhaustive enumeration of disjoint families backtracks over those rows with
the occupied lattice points as the bits of one int, and enumeration of all
families (the stage sets of combing) takes their product; both build each
family straight in (B, D).  Also here: the step statistics, and an
end-to-end check that combing and uncombing realise a bijection.
Everything here is independent of the combing code paths it is used to
verify: only comb and uncomb come from them, as the defaults under test in
verify_bijection.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Callable, Hashable, Iterator

from .combing import comb, uncomb
from .families import BitTriangle, PathFamily, _Record, require_valid


class CapExceeded(ValueError):
    """An enumeration was requested beyond its configured size cap."""


_MAX_ORDER = 6
"""The largest order enumerated, whatever the cap.  Order n has
2^(n(n-1)/2) disjoint families, each one kept in a set: order 6 has
32,768, order 7 has 2,097,152, and order 13 more than any memory holds."""


_MAX_SCHRODER_ORDER = 5
"""The largest order enumerate_schroder lists: every valid family is kept,
intersecting or not, and order 6 has 1*2*6*22*90*394 = 9,363,360 of them,
about 3 GB at the 320 bytes each that order 5 takes."""


def _check_order(n: int, cap: int, largest: int = _MAX_ORDER) -> None:
    """Raise ValueError for a negative order n, then CapExceeded for n above
    cap and for n above largest, before any family is built."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > cap:
        raise CapExceeded(f"order {n} exceeds cap {cap}")
    if n > largest:
        raise CapExceeded(f"order {n} exceeds {largest}, the largest order enumerated")


def all_bit_triangles(n: int) -> Iterator[BitTriangle]:
    """All 2^(n(n-1)/2) bit triangles of order n, row-major bit order."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return map(BitTriangle, product(*[list(product((0, 1), repeat=i)) for i in range(n)]))


def _schroder_rows(i: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (B row, D row) of every path from (i, 0) to (0, i) on or above the
    anti-diagonal, in lexicographic order of (D[0], B[0], D[1], B[1], ...).

    An odometer over columns j < i: a path that has descended pre levels
    before column j stays above with any D[j] <= j - pre, and column i takes
    the i - pre levels left.  Each advance bumps the last column that can
    still move, from B[j] = 0 to 1 or else to one more vertical step, and
    resets the columns after it.
    """
    B = [0] * i
    D = [0] * i + [i]
    while True:
        yield tuple(B), tuple(D)
        pre = i - D[i]
        for j in range(i - 1, -1, -1):
            pre -= B[j] + D[j]
            if not B[j]:
                B[j] = 1
                break
            if D[j] < j - pre:
                B[j] = 0
                D[j] += 1
                break
            B[j] = D[j] = 0
        else:
            return
        D[i] = i - pre - B[j] - D[j]


def _points(i: int, brow: tuple[int, ...], drow: tuple[int, ...], n: int) -> int:
    """The lattice points (level, column) that the path of row i visits, as
    a mask with bit level*n + column set for each; levels and columns of an
    order-n family lie in 0..n-1, so no two points share a bit."""
    mask = 0
    level = i
    for j, d in enumerate(drow):
        for v in range(d + 1):
            mask |= 1 << (level - v) * n + j
        level -= d + (brow[j] if j < i else 0)
    return mask


def enumerate_disjoint(n: int, cap: int = 5) -> set[PathFamily]:
    """All disjoint order-n families, by backtracking from the top path down.
    The occupied points are the bits of an int (_points), so a row fits
    when its mask shares no bit with it.  Exactly 2^(n(n-1)/2) results."""
    _check_order(n, cap)
    options = [[(brow, drow, _points(i, brow, drow, n)) for brow, drow in _schroder_rows(i)]
               for i in range(n)]
    out: set[PathFamily] = set()
    B: list[tuple[int, ...]] = [()] * n
    D: list[tuple[int, ...]] = [()] * n

    def place(i: int, occupied: int) -> None:
        if i < 0:
            out.add(PathFamily(tuple(B), tuple(D)))
            return
        for B[i], D[i], points in options[i]:
            if not occupied & points:
                place(i - 1, occupied | points)

    place(n - 1, 0)
    return out


def enumerate_schroder(n: int, cap: int = 5) -> set[PathFamily]:
    """All valid order-n families, intersecting or not (the combing domain
    before any disjointness is imposed).  Orders above 5 are refused
    whatever the cap (_MAX_SCHRODER_ORDER)."""
    _check_order(n, cap, _MAX_SCHRODER_ORDER)
    rows = [list(_schroder_rows(i)) for i in range(n)]
    # both products run through the choices of rows in the same order
    B = product(*[[brow for brow, _ in options] for options in rows])
    D = product(*[[drow for _, drow in options] for options in rows])
    return set(map(PathFamily, B, D))


def column_counts(f: PathFamily) -> tuple[int, ...]:
    """Total vertical steps in each column."""
    require_valid(f)
    return tuple(sum(f.D[i][k] for i in range(k, f.n)) for k in range(f.n))


def intercolumn_counts(f: PathFamily) -> tuple[int, ...]:
    """Total horizontal steps between column j and j+1, for j = 0..n-2."""
    require_valid(f)
    return tuple(sum(1 for i in range(j + 1, f.n) if f.B[i][j] == 0)
                 for j in range(f.n - 1))


def row_counts(f: PathFamily) -> tuple[int, ...]:
    """Total horizontal steps on each level."""
    require_valid(f)
    counts = [0] * f.n
    for i, (brow, drow) in enumerate(zip(f.B, f.D)):
        level = i
        for b, d in zip(brow, drow):
            level -= d
            if not b:
                counts[level] += 1
            level -= b
    return tuple(counts)


def diagonal_step_count(f: PathFamily) -> int:
    """Total diagonal steps of the family."""
    require_valid(f)
    return sum(map(sum, f.B))


def joint_distribution(n: int, statistic: Callable[[PathFamily], Hashable],
                       cap: int = 5) -> Counter:
    """Exact frequency table of a statistic over all disjoint order-n families."""
    return Counter(map(statistic, enumerate_disjoint(n, cap)))


class VerificationReport(_Record):
    """The result of verify_bijection at order n: the number of triangles
    combed, the number of disjoint families enumerated, and every failure
    found."""

    __slots__ = ("n", "triangles", "disjoint_families", "failures")

    def __init__(self, n: int, triangles: int, disjoint_families: int,
                 failures: tuple[str, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "triangles", triangles)
        object.__setattr__(self, "disjoint_families", disjoint_families)
        object.__setattr__(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_bijection(n: int, cap: int = 5,
                     comb_fn: Callable[[BitTriangle], PathFamily] = comb,
                     uncomb_fn: Callable[[PathFamily], BitTriangle] = uncomb,
                     ) -> VerificationReport:
    """Check that combing is a bijection onto the disjoint families.

    Verifies uncomb(comb(t)) == t and injectivity over all triangles, and
    that the image equals the independently enumerated set.  Failures carry
    the offending serializations.  comb_fn/uncomb_fn are injectable so
    harness defects can be demonstrated against a broken implementation;
    each is called once per triangle.

    The other round trip is implied, so it is not run.  When the image
    equals the disjoint set, each disjoint g is comb_fn(t) for a triangle t
    with uncomb_fn(g) == t, so comb_fn(uncomb_fn(g)) == comb_fn(t) == g for
    deterministic functions; a report that is ok would stay ok with it.  For
    the library's comb and uncomb the kept tests in tests/test_combing.py,
    TestUncomb.test_sweep_certifies_disjointness_exhaustive and
    test_double_round_trip_n4, check comb(uncomb(g)) == g directly.
    """
    _check_order(n, cap)
    failures: list[str] = []
    image: dict[PathFamily, BitTriangle] = {}
    count = 0
    for t in all_bit_triangles(n):
        count += 1
        try:
            g = comb_fn(t)
            first = image.setdefault(g, t)  # one hash of g
            if first is not t:
                failures.append(f"not injective: {t.to_text()!r} and "
                                f"{first.to_text()!r} comb to the same family")
            if uncomb_fn(g) != t:
                failures.append(f"uncomb(comb(t)) != t for t = {t.to_text()!r}")
        except Exception as exc:  # a broken comb_fn may throw; report, not crash
            failures.append(f"round trip raised {exc!r} for t = {t.to_text()!r}")
    disjoint = enumerate_disjoint(n, cap)
    # one set of the image, built from the hashes the dict stored, and one
    # comparison; only an image that differs needs the two differences
    # (disjoint - image.keys() would hash every family again, and keys views
    # list the failures in another order)
    reached = set(image)
    if reached != disjoint:
        for extra in reached - disjoint:
            failures.append(f"comb image not disjoint: {extra.to_text()!r}")
        for missing in disjoint - reached:
            failures.append(f"disjoint family not reached: {missing.to_text()!r}")
    return VerificationReport(n=n, triangles=count, disjoint_families=len(disjoint),
                              failures=tuple(failures))
