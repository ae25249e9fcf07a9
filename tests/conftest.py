"""Shared fixtures and independent brute-force oracles.

The counting helpers here deliberately avoid the library's half-space
machinery: membership goes through convex-combination feasibility
(Caratheodory over vertex subsets) with a locally written exact solver, so
counting tests have a second, independent route to the same numbers. The
line-scan oracle walks the library's projection tower but resolves every
lattice line of the last axis on its own, so it checks the closed-form
slice kernel line by line. The triangulation oracle re-hulls every face it
visits in its own chart, so it shares no face-lattice code with
`geometry._triangulate`. The ray oracle scans every (k-1)-subset of the
rows where the library adds rows one at a time. The hull and intersection
oracles scan hyperplanes and vertices directly, by null vectors of point
differences and by Cramer's rule with a Leibniz determinant, not by extreme
rays, and the vertex oracle tests the rank of each point's tight normals.
The shift oracle expands p(t + delta) binomially, so the census polynomial
can be compared coefficient by coefficient with the pyramid's enumerator
evaluated at n - 1. The pyramid oracle builds the pyramid from P's own
facets, where the library hulls its base and apex.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import strategies as st

from latticemini import (
    NotFullDimensionalError,
    RationalPolynomial,
    UnsupportedInputError,
    corpus,
    from_vertices,
)
from latticemini import _linalg as la
from latticemini.geometry import HalfSpace, LatticePolytope, _integer_chart


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


def _box_scan(constraints, lows, highs) -> int:
    """Integer points of the box satisfying normal . x <= bound for all.

    Walks the box axis by axis in index order, prunes a prefix once a
    constraint that touches no later axis fails, and resolves the last axis
    in closed form: floor(hi) - ceil(lo) + 1.
    """
    d = len(lows)
    final = [max(j for j, c in enumerate(a) if c) for a, _ in constraints]

    def rec(level: int, partials) -> int:
        if level == d - 1:
            lo, hi = lows[level], highs[level]
            for (a, c), s in zip(constraints, partials):
                ad = a[level]
                rem = c - s
                if ad == 0:
                    if rem < 0:
                        return 0
                elif ad > 0:
                    hi = min(hi, rem // ad)
                else:
                    lo = max(lo, -(rem // -ad))
            return hi - lo + 1 if hi >= lo else 0
        total = 0
        for x in range(lows[level], highs[level] + 1):
            nxt = []
            for ci, ((a, c), s) in enumerate(zip(constraints, partials)):
                s2 = s + a[level] * x
                if s2 > c and final[ci] <= level:
                    break
                nxt.append(s2)
            else:
                total += rec(level + 1, nxt)
        return total

    return rec(0, [0] * len(constraints))


def count_points_partitioned(P, t: int, interior: bool = False, slabs: int = 2) -> int:
    """Box-scan count of tP, the box split into `slabs` slabs along axis 0.

    The reference for `count_points`: it walks the whole bounding box of tP
    in index order and shares no code with the projection tower.
    """
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise ValueError(f"dilation factor must be a nonnegative integer, got {t!r}")
    if slabs < 1:
        raise ValueError("slabs must be >= 1")
    if P.dim == 0 or t == 0:
        return 0 if interior else 1
    if not P.is_full_dimensional:
        raise NotFullDimensionalError("the box scan requires a full-dimensional polytope")
    shrink = 1 if interior else 0
    constraints = [(h.normal, t * h.offset - shrink) for h in P.halfspaces]
    lows = [t * min(v[j] for v in P.vertices) for j in range(P.ambient_dim)]
    highs = [t * max(v[j] for v in P.vertices) for j in range(P.ambient_dim)]
    step = -(-(highs[0] - lows[0] + 1) // slabs)
    total = 0
    for start in range(lows[0], highs[0] + 1, step):
        stop = min(start + step - 1, highs[0])
        total += _box_scan(constraints, [start] + lows[1:], [stop] + highs[1:])
    return total


def box_scan_count(P, t: int, interior: bool = False) -> int:
    """Box-scan count of tP in one slab."""
    return count_points_partitioned(P, t, interior, slabs=1)


def line_scan_count(P, t: int, interior: bool = False) -> int:
    """Count of tP over `P.lift_plan`, one lattice line of the last axis at a time.

    The reference for `counting._slice`: it walks the same projection tower
    as `count_points` but resolves each line on its own, as
    floor(top) - ceil(bottom) + 1 from the facets of P, with no envelope,
    no crossing and no floor sum.
    """
    plan = P.lift_plan
    levels = plan.levels
    shrink = plan.strict if interior else [0] * len(plan.strict)
    slack = [t * b - s for b, s in zip(plan.offsets, shrink)]

    def rec(k: int, slack) -> int:
        upper, lower, above = levels[k]
        n = len(upper)
        hi = min(s // a for s, a in zip(slack, upper))
        lo = -min(s // a for s, a in zip(slack[n:], lower))
        if k == len(levels) - 1:
            return max(hi - lo + 1, 0)
        rest = slack[n + len(lower):]
        return sum(
            rec(k + 1, [s - a * x for s, a in zip(rest, above)]) for x in range(lo, hi + 1)
        )

    return rec(0, slack)


def subset_scan_rays(rows, k: int) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """Primitive extreme rays of the cone {y in R^k : r.y <= 0 for each row r}.

    The reference for `geometry._extreme_rays`: scans the (k-1)-subsets of
    the rows, since an extreme ray spans the null space of k-1 independent
    rows it is tight on. Each candidate is made primitive with a positive
    first nonzero entry; a candidate already tested, through another
    subset, is skipped. It is kept, with its sign flipped if need be, iff
    every row lies weakly on one side of it, and comes back in sorted order
    with the indices of the rows tight on it.
    """
    found = {}
    tested = set()
    for subset in combinations(rows, k - 1):
        ray = la.null_vector(subset, k)
        if ray is None:
            continue
        g = gcd(*ray)
        if next(c for c in ray if c) < 0:
            g = -g
        ray = tuple(c // g for c in ray)
        if ray in tested:
            continue
        tested.add(ray)
        values = [la.dot(r, ray) for r in rows]
        if any(v > 0 for v in values) and any(v < 0 for v in values):
            continue
        if any(v > 0 for v in values):
            ray = tuple(-c for c in ray)
        found[ray] = frozenset(i for i, v in enumerate(values) if v == 0)
    return sorted(found.items())


def scan_facet_halfspaces(points, k: int) -> list[HalfSpace]:
    """All facet half-spaces of the hull of integer `points` spanning R^k.

    The reference for `geometry._facet_halfspaces`: scans the k-subsets of
    points, forms the spanning hyperplane from the null vector of their
    differences, makes it primitive with a positive first nonzero entry and
    keeps it iff every point lies weakly on one side. A hyperplane already
    tested, through another k-subset, is skipped.
    """
    found = set()
    tested = set()
    for idxs in combinations(range(len(points)), k):
        base = points[idxs[0]]
        normal = la.null_vector([la.vsub(points[i], base) for i in idxs[1:]], k)
        if normal is None:
            continue
        g = 0
        for c in normal:
            g = gcd(g, abs(c))
        if next(c for c in normal if c) < 0:
            g = -g
        # g divides the offset because the hyperplane passes through a lattice point
        normal, offset = tuple(c // g for c in normal), la.dot(normal, base) // g
        if (normal, offset) in tested:
            continue
        tested.add((normal, offset))
        values = [la.dot(normal, p) for p in points]
        if any(v > offset for v in values) and any(v < offset for v in values):
            continue
        if any(v > offset for v in values):
            normal, offset = tuple(-c for c in normal), -offset
        found.add((normal, offset))
    return [HalfSpace(n, b) for n, b in sorted(found)]


@cache
def signed_permutations(n: int) -> list[tuple[int, list[int]]]:
    """(sign, flat indices i*n + p(i)) for every permutation p of range(n)."""
    out = []
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        out.append(((-1) ** inversions, [i * n + j for i, j in enumerate(p)]))
    return out


def leibniz_det(matrix) -> int:
    """Determinant of a small square integer matrix by the Leibniz formula."""
    flat = [x for row in matrix for x in row]
    return sum(
        s * prod(map(flat.__getitem__, idx)) for s, idx in signed_permutations(len(matrix))
    )


def solved_intersection(parts, d: int):
    """Intersection of full-dimensional parts; None when empty or lower-dimensional.

    The reference for `miniatures._intersection_polytope`: every d-subset of
    the parts' half-spaces is solved by Cramer's rule, x = X/D in integers,
    and a solution that satisfies every half-space is a vertex; only those
    become Fractions. The rank is taken over Fractions before the lattice
    test.
    """
    halfspaces = sorted({(h.normal, h.offset) for P in parts for h in P.halfspaces})
    verts = set()
    for subset in combinations(halfspaces, d):
        normals = [list(n) for n, _ in subset]
        D = leibniz_det(normals)
        if D == 0:
            continue
        X = [
            leibniz_det([row[:i] + [b] + row[i + 1:] for row, (_, b) in zip(normals, subset)])
            for i in range(d)
        ]
        if D < 0:
            D, X = -D, [-c for c in X]
        if all(la.dot(n, X) <= b * D for n, b in halfspaces):
            verts.add(tuple(Fraction(c, D) for c in X))
    verts = sorted(verts)
    if not verts or rank_exact([la.vsub(v, verts[0]) for v in verts[1:]]) < d:
        return None
    if any(x.denominator != 1 for v in verts for x in v):
        raise UnsupportedInputError("intersection has a non-lattice vertex")
    return from_vertices([tuple(int(x) for x in v) for v in verts])


def rank_vertex_indices(points, halfspaces, k: int) -> list[int]:
    """Indices of points whose tight facet normals span R^k (the extreme points).

    The reference for the vertex rule of `geometry.from_vertices`: it tests
    each point by the rank of its tight normals, not by facet incidences.
    """
    out = []
    for i, p in enumerate(points):
        tight = [h.normal for h in halfspaces if la.dot(h.normal, p) == h.offset]
        if len(tight) >= k and rank_exact(tight) == k:
            out.append(i)
    return out


def chart_triangulation(points, k: int) -> list[tuple[int, ...]]:
    """Index (k+1)-tuples of simplices tiling the hull of full-rank `points`.

    The reference for `geometry._triangulate`: star triangulation that
    hulls `points` by the k-subset scan, cones the lex-smallest vertex over
    the facets that do not contain it, and recurses into each facet through
    its integer chart, re-hulling it there.
    """
    if k == 0:
        return [(0,)]
    halfspaces = scan_facet_halfspaces(points, k)
    vidx = rank_vertex_indices(points, halfspaces, k)
    if len(vidx) == k + 1:
        return [tuple(vidx)]
    apex = min(vidx, key=lambda i: points[i])
    simplices = []
    for h in halfspaces:
        if la.dot(h.normal, points[apex]) == h.offset:
            continue
        face = [i for i in vidx if la.dot(h.normal, points[i]) == h.offset]
        chart = _integer_chart([points[i] for i in face])
        for sub in chart_triangulation(chart, k - 1):
            simplices.append((apex,) + tuple(face[j] for j in sub))
    return simplices


def chart_volume(points) -> Fraction:
    """Volume of the hull of full-rank integer `points` by the chart oracle."""
    d = len(points[0])
    total = sum(abs(simplex_det(points, s)) for s in chart_triangulation(points, d))
    return Fraction(total, factorial(d))


def simplex_det(points, simplex) -> int:
    """Determinant of the edge vectors of a simplex given by point indices."""
    base = points[simplex[0]]
    return la.det([la.vsub(points[i], base) for i in simplex[1:]])


def cross_polytope(d: int):
    return from_vertices(
        [tuple(s if j == i else 0 for j in range(d)) for i in range(d) for s in (1, -1)]
    )


def image(points, matrix, shift):
    """The points under x -> matrix . x + shift."""
    return [tuple(la.dot(row, p) + s for row, s in zip(matrix, shift)) for p in points]


@st.composite
def unimodular(draw, d: int, shear: int = 2):
    """A signed permutation times a few elementary shears of at most +-`shear`."""
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))
    m = [[signs[i] if j == perm[i] else 0 for j in range(d)] for i in range(d)]
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    for _ in range(draw(st.integers(min_value=0, max_value=4)) if pairs else 0):
        i, j = draw(st.sampled_from(pairs))
        c = draw(st.integers(min_value=-shear, max_value=shear))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def shoelace(ring) -> Fraction:
    """Area of a simple polygon from its boundary ring of 2D vertices."""
    twice = 0
    for (x1, y1), (x2, y2) in zip(ring, ring[1:] + [ring[0]]):
        twice += x1 * y2 - x2 * y1
    return Fraction(abs(twice), 2)


def shift_argument(p, delta) -> RationalPolynomial:
    """The polynomial q with q(t) = p(t + delta), exactly."""
    delta = Fraction(delta)
    out = [Fraction(0)] * len(p.coeffs)
    for k, c in enumerate(p.coeffs):
        for j in range(k + 1):
            out[j] += c * comb(k, j) * delta ** (k - j)
    return RationalPolynomial.from_coeffs(out)


def facet_pyramid(P) -> LatticePolytope:
    """The pyramid over a full-dimensional P with apex (0, ..., 0, 1), from P's facets.

    The reference for `geometry.pyramid`, which hulls the base and the apex:
    the base -x_{d+1} <= 0, and a.x + b x_{d+1} <= b through the apex for
    each facet a.x <= b of P (primitive, since a is), with volume
    vol(P)/(d+1).
    """
    d = P.ambient_dim
    verts = sorted([v + (0,) for v in P.vertices] + [(0,) * d + (1,)])
    facets = [((0,) * d + (-1,), 0)]
    facets += [(h.normal + (h.offset,), h.offset) for h in P.halfspaces]
    return LatticePolytope(
        d + 1,
        tuple(verts),
        tuple(HalfSpace(n, b) for n, b in sorted(facets)),
        d + 1,
        P.volume_d / (d + 1),
    )


def det3(rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@pytest.fixture(scope="session")
def full_corpus():
    return corpus.full_corpus()


@pytest.fixture(scope="session")
def full_dim_corpus():
    return [(name, P) for name, P in corpus.full_corpus() if P.is_full_dimensional]
