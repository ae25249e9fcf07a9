"""Exact linear algebra over Python ints: two fraction-free routines.

`echelon` is Bareiss's (1968) fraction-free Gaussian elimination. After a
step every entry below the pivot rows is a minor of the input, so each
division by the previous pivot is exact and no Fraction is ever formed.
`det` and `null_vector` are read off its result. `lll` is the integral
LLL reduction (Lenstra-Lenstra-Lovasz 1982) in Cohen's fraction-free form,
which divides exactly in the same way: it keeps the Gram-Schmidt data as
Gram determinants and their integer multiples, never as Fractions. Input
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


def lll(gram):
    """An LLL-reduced basis of Z^d under the positive definite form `gram`.

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Algorithm 2.6.7) with delta = 3/4, started from the unit
    vectors. The form of u and w is u . gram . w. `dets[i]` is the Gram
    determinant of the first i basis vectors, and `lam[k][j]` is dets[j+1]
    times the Gram-Schmidt coefficient mu_kj, both integers, so every
    division is exact. Returns (U, V): the rows of U are the reduced basis,
    and V = U^-1 is carried through the same elementary steps, a column
    step for each row step. Both are integer with determinant +-1.
    """
    d = len(gram)
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    V = [row[:] for row in U]
    lam = [[0] * d for _ in range(d)]
    dets = [1] + [0] * d

    def form(u, w):
        return sum(x * dot(row, w) for x, row in zip(u, gram))

    def reduce(k, l):
        # b_k -= q b_l with q the integer nearest mu_kl; column l of V += q column k
        if 2 * abs(lam[k][l]) > dets[l + 1]:
            q = (2 * lam[k][l] + dets[l + 1]) // (2 * dets[l + 1])
            U[k] = [x - q * y for x, y in zip(U[k], U[l])]
            for row in V:
                row[l] += q * row[k]
            lam[k][l] -= q * dets[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        # exchange b_k and b_{k-1}, and update the Gram-Schmidt data of both
        U[k], U[k - 1] = U[k - 1], U[k]
        for row in V:
            row[k], row[k - 1] = row[k - 1], row[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        merged = (dets[k - 1] * dets[k + 1] + m * m) // dets[k]
        for i in range(k + 1, known):
            t = lam[i][k]
            lam[i][k] = (dets[k + 1] * lam[i][k - 1] - m * t) // dets[k]
            lam[i][k - 1] = (merged * t + m * lam[i][k]) // dets[k + 1]
        dets[k] = merged

    k, known = 1, 1
    if d:
        dets[1] = form(U[0], U[0])
    while k < d:
        if k >= known:
            known = k + 1
            for j in range(k + 1):
                u = form(U[k], U[j])
                for i in range(j):
                    u = (dets[i + 1] * u - lam[k][i] * lam[j][i]) // dets[i]
                if j < k:
                    lam[k][j] = u
                else:
                    dets[k + 1] = u
        reduce(k, k - 1)
        m = lam[k][k - 1]
        if 4 * dets[k + 1] * dets[k - 1] < 3 * dets[k] ** 2 - 4 * m * m:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return U, V
