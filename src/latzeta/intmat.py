"""Exact integer matrix utilities: Hermite form, containment and minors.

Everything operates on small matrices (dimensions <= 4 in this package, <= 3
ambient for the flag enumeration), with arbitrary-precision Python integers,
so the textbook algorithms are the right tool.  Rows are the acting objects
throughout: a "lattice" here is the set of integer combinations of the rows.

Every determinant is a Bareiss elimination, and the other exact operations
are built from its minors: the adjugate gives M^-1 = adj(M) / det(M), and
the gcd of the k x k minors of k rows, the product of their Smith
invariants, is 0 when the rows are dependent and 1 exactly when they span
a primitive sublattice.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

IntMatrix = list[list[int]]


def _swap_rows(m: IntMatrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def row_hnf(mat) -> IntMatrix:
    """Canonical row Hermite normal form (zero rows dropped).

    Pivots positive and strictly right-down; entries above a pivot reduced
    into [0, pivot).  Two row-generated integer lattices are equal iff their
    forms are equal, which is how lattice equality and tie-breaking are
    decided everywhere in the package.
    """
    m = [list(map(int, row)) for row in mat]
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        # gcd-reduce the column below pivot_row
        pivot = None
        while True:
            nonzero = [i for i in range(pivot_row, rows) if m[i][col] != 0]
            if not nonzero:
                break
            i_min = min(nonzero, key=lambda i: abs(m[i][col]))
            _swap_rows(m, pivot_row, i_min)
            done = True
            for i in range(pivot_row + 1, rows):
                if m[i][col] != 0:
                    q = m[i][col] // m[pivot_row][col]
                    for j in range(cols):
                        m[i][j] -= q * m[pivot_row][j]
                    if m[i][col] != 0:
                        done = False
            if done:
                pivot = pivot_row
                break
        if pivot is None:
            continue
        if m[pivot][col] < 0:
            m[pivot] = [-x for x in m[pivot]]
        for i in range(pivot):
            q = m[i][col] // m[pivot][col]
            if q:
                for j in range(cols):
                    m[i][j] -= q * m[pivot][j]
        pivot_row += 1
    return [row for row in m[:pivot_row] if any(row)]


def contains(outer, inner) -> bool:
    """True iff every row of inner lies in the integer row span of outer."""
    h = row_hnf(outer)
    if not h:
        return all(not any(row) for row in inner)
    cols = len(h[0])
    pivots = []
    for row in h:
        j = next(k for k in range(cols) if row[k] != 0)
        pivots.append(j)
    for raw in inner:
        v = list(map(int, raw))
        for row, j in zip(h, pivots):
            if v[j] % row[j] != 0:
                return False
            q = v[j] // row[j]
            if q:
                for k in range(cols):
                    v[k] -= q * row[k]
        if any(v):
            return False
    return True


def bareiss_det(mat) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    Bareiss (Math. Comp. 22, 1968): after step k every entry of the trailing
    block is a (k+1)-minor of the input, so the division by the previous
    pivot is exact and no entry grows beyond a minor.
    """
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            _swap_rows(a, k, piv)
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(mat) -> IntMatrix:
    """adj(M), entry (i, j) the signed minor of M without row j and column i."""
    m = [list(map(int, row)) for row in mat]
    n = len(m)

    def minor(i: int, j: int) -> int:
        return bareiss_det([row[:i] + row[i + 1 :] for k, row in enumerate(m) if k != j])

    return [[(-1) ** (i + j) * minor(i, j) for j in range(n)] for i in range(n)]


def maximal_minor_gcd(mat) -> int:
    """gcd of the k x k minors of k integer rows (0 iff they are dependent).

    The rows span a primitive sublattice of Z^n iff this is 1.
    """
    k, n = len(mat), len(mat[0])
    minors = (bareiss_det([[row[j] for j in cols] for row in mat]) for cols in combinations(range(n), k))
    return gcd(*minors)
