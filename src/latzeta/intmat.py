"""Exact integer matrix utilities: Hermite form, kernels, saturation.

Everything operates on small matrices (dimensions <= 4 in this package, <= 3
ambient for the flag enumeration), with arbitrary-precision Python integers,
so the textbook algorithms are the right tool.  Rows are the acting objects
throughout: a "lattice" here is the set of integer combinations of the rows.
"""

from __future__ import annotations

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


def right_kernel_basis(mat) -> IntMatrix:
    """Primitive basis (as rows) of {x in Z^n : mat . x = 0}.

    Column reduction with a unimodular transform; the transform columns over
    the vanished columns form a basis of the kernel, automatically spanning a
    saturated sublattice.
    """
    m = [list(map(int, row)) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    trans = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def col_op(j: int, k: int, q: int) -> None:
        # column_j -= q * column_k
        for i in range(rows):
            m[i][j] -= q * m[i][k]
        for i in range(cols):
            trans[i][j] -= q * trans[i][k]

    def col_swap(j: int, k: int) -> None:
        for i in range(rows):
            m[i][j], m[i][k] = m[i][k], m[i][j]
        for i in range(cols):
            trans[i][j], trans[i][k] = trans[i][k], trans[i][j]

    pivot_col = 0
    for row in range(rows):
        if pivot_col >= cols:
            break
        while True:
            nonzero = [j for j in range(pivot_col, cols) if m[row][j] != 0]
            if not nonzero:
                break
            j_min = min(nonzero, key=lambda j: abs(m[row][j]))
            col_swap(pivot_col, j_min)
            done = True
            for j in range(pivot_col + 1, cols):
                if m[row][j] != 0:
                    q = m[row][j] // m[row][pivot_col]
                    col_op(j, pivot_col, q)
                    if m[row][j] != 0:
                        done = False
            if done:
                break
        if any(m[row][j] != 0 for j in range(pivot_col, cols)):
            pivot_col += 1
    # all columns >= pivot_col are zero by construction
    kernel_cols = list(range(pivot_col, cols))
    return [[trans[i][j] for i in range(cols)] for j in kernel_cols]


def saturate(mat) -> IntMatrix:
    """Basis of the smallest primitive sublattice containing the row span.

    x lies in the rational row span iff it kills the integer kernel of the
    row span's orthogonal pairing, so two kernel computations do the job.
    """
    mat = [list(map(int, row)) for row in mat]
    if not mat:
        return []
    cols = len(mat[0])
    ker = right_kernel_basis(mat)  # rows spanning {c : mat . c = 0}
    if not ker:
        return [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    return row_hnf(right_kernel_basis(ker))


def is_primitive(mat) -> bool:
    """True iff the rows span a saturated (torsion-free quotient) sublattice."""
    return row_hnf(saturate(mat)) == row_hnf(mat)


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


def primitive_vector(vec) -> list[int]:
    """Divide out the content; canonical sign (first nonzero positive)."""
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
    if g == 0:
        return [0 for _ in vec]
    out = [int(x) // g for x in vec]
    for x in out:
        if x != 0:
            if x < 0:
                out = [-y for y in out]
            break
    return out
