"""Delannoy numbers and exact determinant evaluation.

delannoy(i, j) counts the paths from (i, 0) to (0, j) using the same three
steps as the path families.  The matrix of these numbers has determinant
2^(n(n-1)/2), which the unitriangular reduction verify_reduction exposes
as an exact block identity.  All arithmetic is exact (Python integers).
"""

from __future__ import annotations

from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]


def delannoy(i: int, j: int) -> int:
    """Number of paths from (i, 0) to (0, j): a(i,0) = a(0,j) = 1 and
    a(i+1,j+1) = a(i,j+1) + a(i+1,j) + a(i,j)."""
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    return delannoy_matrix(max(i, j) + 1)[i][j]


def delannoy_matrix(n: int) -> Matrix:
    """The upper-left n x n block of the Delannoy table, each row built
    from the one above by the recurrence."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    rows: list[tuple[int, ...]] = []
    row = (1,) * n
    for _ in range(n):
        rows.append(row)
        nxt = [1] * n
        for j in range(1, n):
            nxt[j] = row[j] + nxt[j - 1] + row[j - 1]
        row = tuple(nxt)
    return tuple(rows)


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
    A[i][j] - A[i-1][j] - A[i][j-1] + A[i-1][j-1] (a missing index reads
    as 0), so the check runs in O(n^2) on one delannoy_matrix(n).  As
    det E = 1, the identity certifies det A_n = 2^(n-1) det A_{n-1}; and as
    E is upper bidiagonal, the leading m x m block of E^T A_n E is
    E^T A_m E, so passing at n implies passing at every m <= n.  Exact
    equality; n >= 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    a = delannoy_matrix(n)
    if a[0][0] != 1:
        return False
    for t in range(1, n):
        if a[0][t] != a[0][t - 1] or a[t][0] != a[t - 1][0]:
            return False
    for i in range(1, n):
        for j in range(1, n):
            if a[i][j] - a[i - 1][j] - a[i][j - 1] + a[i - 1][j - 1] != 2 * a[i - 1][j - 1]:
                return False
    return True
