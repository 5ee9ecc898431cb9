"""Exact dense linear algebra over the rationals and the integers.

Dual graphs do not come here: they are trees, which `graphs` eliminates
from the leaves to the root in linear time, and `picard` inverts the Gram
matrix of its contracted classes once per set of classes.  What is left:
`round_up` in `picard` takes the Smith normal form of a support lattice,
and tests use `solve` and `int_det` as dense oracles for the tree kernel
and the pullbacks.
"""

from fractions import Fraction


class SingularMatrixError(ValueError):
    pass


def solve(m, rhs):
    """Solve m x = rhs exactly. m must be square and invertible."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def int_det(m):
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for col in range(n - 1):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pc = a[col][col]
        for r in range(col + 1, n):
            arc = a[r][col]
            row = a[r]
            base = a[col]
            for c in range(col + 1, n):
                row[c] = (pc * row[c] - arc * base[c]) // prev
            row[col] = 0
        prev = pc
    return sign * a[n - 1][n - 1]


def smith_normal_form(mat):
    """Smith normal form of an integer matrix.

    Returns (r, s, d) with r unimodular (n x n), d = r @ mat @ s,
    s unimodular (k x k) and d diagonal with d[i][i] dividing d[i+1][i+1].
    """
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    k = len(a[0]) if n else 0
    r = [[int(i == j) for j in range(n)] for i in range(n)]
    s = [[int(i == j) for j in range(k)] for i in range(k)]

    def row_op(i, j, f):  # row_i -= f * row_j
        a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        r[i] = [x - f * y for x, y in zip(r[i], r[j])]

    def col_op(i, j, f):  # col_i -= f * col_j
        for row in a:
            row[i] -= f * row[j]
        for row in s:
            row[i] -= f * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in s:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(n, k):
        # move a nonzero pivot of minimal absolute value to (t, t)
        entries = [
            (abs(a[i][j]), i, j)
            for i in range(t, n)
            for j in range(t, k)
            if a[i][j] != 0
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        swap_rows(t, pi)
        swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, n):
            if a[i][t] != 0:
                row_op(i, t, a[i][t] // a[t][t])
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, k):
            if a[t][j] != 0:
                col_op(j, t, a[t][j] // a[t][t])
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the block
        rem = next(
            (
                (i, j)
                for i in range(t + 1, n)
                for j in range(t + 1, k)
                if a[i][j] % a[t][t] != 0
            ),
            None,
        )
        if rem is not None:
            row_op(t, rem[0], -1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            r[t] = [-x for x in r[t]]
        t += 1
    return r, s, a
