"""Delannoy numbers and exact determinant evaluation.

delannoy(i, j) counts the paths from (i, 0) to (0, j) using the same three
steps as the path families.  The matrix of these numbers has determinant
2^(n(n-1)/2), which the unitriangular reduction verify_reduction exposes
as an exact block identity.  All arithmetic is exact (Python integers).

Every row of the table comes from the row above in one pass at C level
(_rows).  verify_reduction reads the n x n block one row at a time
(_table) and checks each row against the one above by one comparison: no
Python code runs per entry, and it holds two rows, not the n^3 bits of
the whole block.
"""

from __future__ import annotations

from itertools import accumulate, islice
from operator import add
from typing import Iterator, Sequence

Matrix = tuple[tuple[int, ...], ...]


def _rows(width: int) -> Iterator[tuple[int, ...]]:
    """The rows 0, 1, 2, ... of the Delannoy table, each cut to its first
    width entries, without end.  Entry j of the next row is entry j - 1 of
    it plus entries j and j - 1 of this one, so the next row is one running
    sum of the pairwise sums of this one, from 1."""
    row = (1,) * width
    while True:
        yield row
        row = tuple(accumulate(map(add, row[1:], row), initial=1))


def delannoy(i: int, j: int) -> int:
    """Number of paths from (i, 0) to (0, j): a(i,0) = a(0,j) = 1 and
    a(i+1,j+1) = a(i,j+1) + a(i+1,j) + a(i,j).

    As a(i, j) = a(j, i), this is the last entry of row max(i, j) cut to
    min(i, j) + 1 entries: max(i, j) steps on rows of that length, with no
    table."""
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    return next(islice(_rows(min(i, j) + 1), max(i, j), None))[-1]


def _table(n: int) -> Iterator[tuple[int, ...]]:
    """The rows of the upper-left n x n block of the Delannoy table, one at
    a time (_rows)."""
    return islice(_rows(n), n)


def delannoy_matrix(n: int) -> Matrix:
    """The upper-left n x n block of the Delannoy table, each row built
    from the one above in one pass (_table)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return tuple(_table(n))


def det_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every intermediate quotient is an exact integer division; row swaps
    flip the sign.  The empty matrix has determinant 1.
    """
    n = len(matrix)
    a = [list(row) for row in matrix]
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        pk = a[k][k]
        row_k = a[k]
        for r in range(k + 1, n):
            row = a[r]
            ark = row[k]
            for c in range(k + 1, n):
                row[c] = (row[c] * pk - ark * row_k[c]) // prev
            row[k] = 0
        prev = pk
    return sign * a[-1][-1]


def verify_reduction(n: int) -> bool:
    """Check the unitriangular conjugation identity at order n.

    With E the identity plus -1 directly above the diagonal, E^T A E must
    equal the block matrix [[1, 0], [0, 2*A']] where A' is the order n-1
    Delannoy matrix.  Entry (i, j) of E^T A E is the second difference
    D(i, j) = A[i][j] - A[i-1][j] - A[i][j-1] + A[i-1][j-1] (a missing
    index reads as 0), so the identity says that the first row and column
    of A are all 1 and that A[i][j] = A[i-1][j] + A[i][j-1] + A[i-1][j-1]
    for i, j >= 1.  As det E = 1, the identity certifies
    det A_n = 2^(n-1) det A_{n-1}; and as E is upper bidiagonal, the
    leading m x m block of E^T A_n E is E^T A_m E, so passing at n implies
    passing at every m <= n.  Exact equality; n >= 1.  A table that is not
    n x n fails.

    The rows of the table (_table) are read one at a time, and only the
    row above is kept.  Given the row above, the identity fixes the whole
    of the next row: its entry 0 is 1, and its entry j is its entry j - 1
    plus entries j and j - 1 of the row above, so the row is one running
    sum of the pairwise sums of the row above, from 1.  Above row 0 the
    row reads as n zeros, which makes row 0 n ones.  So each row must equal
    that sum of the row above, which also makes it n long, and exactly n
    rows must come.  These comparisons are the identity entry by entry,
    and need no symmetry of the table.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    prev, count = (0,) * n, 0
    for row in _table(n):
        row = tuple(row)
        if row != tuple(accumulate(map(add, prev[1:], prev), initial=1)):
            return False
        prev, count = row, count + 1
    return count == n
