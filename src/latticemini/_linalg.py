"""Exact linear algebra over Python ints: one fraction-free elimination.

`echelon` is Bareiss's (1968) fraction-free Gaussian elimination. After a
step every entry below the pivot rows is a minor of the input, so each
division by the previous pivot is exact and no Fraction is ever formed.
`det` and `null_vector` are read off its result. Input
must be integer: on Fractions the floor division would silently be wrong.
Sized for the small systems this package solves: one side of each matrix
is at most d + 1, and hulls are tested up to d = 6.
"""

from __future__ import annotations


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vscale(a, k):
    return tuple(k * x for x in a)


def echelon(rows):
    """Row echelon form of an integer matrix by Bareiss elimination.

    Returns (rows, pivot_columns, swap_sign). The pivot of row i sits in
    pivot_columns[i] and is the leading principal minor of order i+1 of
    the row-swapped matrix on the pivot columns; swap_sign is the parity
    of the row swaps.
    """
    work = [list(row) for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    sign, prev = 1, 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        if p != r:
            work[r], work[p] = work[p], work[r]
            sign = -sign
        top = work[r]
        piv = top[c]
        for row in work[r + 1:]:
            f = row[c]
            for j in range(c, ncols):
                row[j] = (piv * row[j] - f * top[j]) // prev
        prev = piv
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return work, pivots, sign


def det(matrix):
    """Exact determinant of a square integer matrix."""
    if not matrix:
        return 1
    work, pivots, sign = echelon(matrix)
    if len(pivots) < len(matrix):
        return 0
    return sign * work[-1][pivots[-1]]


def null_vector(rows, k: int):
    """Integer vector spanning the null space of `rows` in R^k, or None.

    None unless the rows have rank k-1. The free entry is set to the last
    pivot, a maximal minor, so by Cramer's rule every back-substitution
    division is exact.
    """
    work, pivots, _ = echelon(rows)
    if len(pivots) != k - 1:
        return None
    x = [0] * k
    free = next(j for j in range(k) if j not in pivots)
    x[free] = work[len(pivots) - 1][pivots[-1]] if pivots else 1
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        row = work[i]
        x[c] = -sum(row[j] * x[j] for j in range(c + 1, k)) // row[c]
    return tuple(x)

