"""Exact linear algebra over the integers for small dense matrices.

Column-operation Hermite reduction with a tracked unimodular transform,
plus one-solution solve and kernel extraction built on it. Sizes here are
tiny (at most a few rows and a handful of columns), so the quadratic
fraction-free approach is plenty.
"""

from __future__ import annotations

from .arith import xgcd

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul_vec(rows: Matrix, vec: list[int]) -> list[int]:
    return [sum(r[j] * vec[j] for j in range(len(vec))) for r in rows]


def mat_mul(lhs: Matrix, rhs: Matrix) -> Matrix:
    inner = len(rhs)
    assert all(len(row) == inner for row in lhs)
    cols = len(rhs[0])
    return [
        [sum(lrow[k] * rhs[k][j] for k in range(inner)) for j in range(cols)]
        for lrow in lhs
    ]


def det_int(rows: Matrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 0:
        return 1
    work = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if work[i][k] != 0), None)
            if swap is None:
                return 0
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return sign * work[n - 1][n - 1]


def hnf_columns(rows: Matrix) -> tuple[Matrix, Matrix]:
    """Column echelon form of an m x n integer matrix.

    Returns (H, U) with A*U = H, U unimodular (det +-1). Pivots sit in the
    leftmost columns at strictly increasing rows, are positive, and every
    entry above a pivot is zero. Columns without a pivot are zero columns.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # column j of A stacked on column j of U, so a column operation is one list op
    cols = [[r[j] for r in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    col = 0
    for row in range(m):
        if col >= n:
            break
        piv = next((j for j in range(col, n) if cols[j][row] != 0), None)
        if piv is None:
            continue
        cols[col], cols[piv] = cols[piv], cols[col]
        for j in range(col + 1, n):
            if cols[j][row] == 0:
                continue
            c1, c2 = cols[col], cols[j]
            g, s, t = xgcd(c1[row], c2[row])
            p, q = c1[row] // g, c2[row] // g
            cols[col] = [s * x + t * y for x, y in zip(c1, c2)]
            cols[j] = [p * y - q * x for x, y in zip(c1, c2)]
            assert cols[j][row] == 0
        if cols[col][row] < 0:
            cols[col] = [-x for x in cols[col]]
        col += 1
    return [[c[i] for c in cols] for i in range(m)], [[c[i] for c in cols] for i in range(m, m + n)]


def solve_int(rows: Matrix, rhs: list[int]) -> list[int] | None:
    """One integer solution x of A x = rhs, or None if none exists."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [0] * n
    H, U = hnf_columns(rows)
    pivot_of_row: dict[int, int] = {}
    for c in range(n):
        r = next((i for i in range(m) if H[i][c] != 0), None)
        if r is not None:
            pivot_of_row[r] = c
    y = [0] * n
    for r in range(m):
        acc = sum(H[r][c] * y[c] for c in range(n))
        rem = rhs[r] - acc
        if r in pivot_of_row:
            c = pivot_of_row[r]
            if rem % H[r][c] != 0:
                return None
            y[c] = rem // H[r][c]
        elif rem != 0:
            return None
    return mat_mul_vec(U, y)


def kernel_int(rows: Matrix, n_cols: int | None = None) -> list[list[int]]:
    """Basis of the integer kernel {x : A x = 0}, as a list of vectors."""
    m = len(rows)
    n = n_cols if n_cols is not None else (len(rows[0]) if m else 0)
    if m == 0:
        return [row[:] for row in identity(n)]
    H, U = hnf_columns(rows)
    rank = sum(1 for c in range(n) if any(H[i][c] != 0 for i in range(m)))
    return [[U[i][c] for i in range(n)] for c in range(rank, n)]
