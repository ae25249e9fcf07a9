"""Shared fixtures and independent brute-force oracles.

The helpers here deliberately avoid the library's half-space machinery:
membership goes through convex-combination feasibility (Caratheodory over
vertex subsets) with a locally written exact solver, so counting tests have
a second, independent route to the same numbers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import pytest

from latticemini import corpus


def solve_exact(matrix, rhs):
    """Gaussian elimination over Fractions; None when the system is singular."""
    n = len(matrix)
    work = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c]), None)
        if pivot is None:
            return None
        work[c], work[pivot] = work[pivot], work[c]
        inv = Fraction(1) / work[c][c]
        work[c] = [v * inv for v in work[c]]
        for i in range(n):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return [work[i][n] for i in range(n)]


def rank_exact(rows) -> int:
    """Rank by Gauss-Jordan elimination over Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c] / work[r][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def in_hull(points, x) -> bool:
    """x in conv(points)? Caratheodory: some (d+1)-subset contains it."""
    d = len(points[0])
    target = [Fraction(v) for v in x] + [Fraction(1)]
    for subset in combinations(points, d + 1):
        matrix = [[Fraction(p[j]) for p in subset] for j in range(d)]
        matrix.append([Fraction(1)] * (d + 1))
        lam = solve_exact(matrix, target)
        if lam is not None and all(v >= 0 for v in lam):
            return True
    return False


def brute_count(P, t: int) -> int:
    """Closed lattice-point count of tP by box scan + convex-combination test."""
    if t == 0:
        return 1
    verts = [tuple(t * c for c in v) for v in P.vertices]
    d = len(verts[0])
    lows = [min(v[j] for v in verts) for j in range(d)]
    highs = [max(v[j] for v in verts) for j in range(d)]
    boxes = [range(lo, hi + 1) for lo, hi in zip(lows, highs)]
    return sum(1 for x in product(*boxes) if in_hull(verts, x))


def shoelace(ring) -> Fraction:
    """Area of a simple polygon from its boundary ring of 2D vertices."""
    twice = 0
    for (x1, y1), (x2, y2) in zip(ring, ring[1:] + [ring[0]]):
        twice += x1 * y2 - x2 * y1
    return Fraction(abs(twice), 2)


def det3(rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@pytest.fixture(scope="session")
def full_corpus():
    return corpus.full_corpus()


@pytest.fixture(scope="session")
def full_dim_corpus():
    return [(name, P) for name, P in corpus.full_corpus() if P.is_full_dimensional]
