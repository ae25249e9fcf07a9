"""Exact convex lattice polytopes.

A polytope is built from integer vertices only. Construction computes the
minimal vertex set, the affine dimension, the facet half-spaces (when the
polytope is full-dimensional in its ambient space) and the exact volume by
a simplicial decomposition read off the facet-vertex incidences of that one
hull. One double description, `_extreme_rays`, does both exact conversions:
points to facets in `from_vertices`, and half-spaces to vertices in
`_intersection_polytope`. It adds the rows of a full-rank system one at a
time, and two rays are adjacent iff no third ray is tight on every row
they share. It hands back, with each ray, the rows tight on it, and
`_assembled` builds either kind of polytope from those incidences alone.
Everything is immutable and arithmetic is exact: arbitrary-precision
integers and Fractions, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd
from typing import TYPE_CHECKING

from . import _linalg as la
from .errors import ConstructionError, NotFullDimensionalError, UnsupportedInputError

if TYPE_CHECKING:
    from .counting import LiftPlan


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space {x : normal . x <= offset} with primitive integer normal."""

    normal: tuple[int, ...]
    offset: int

    def value(self, point) -> Fraction | int:
        return la.dot(self.normal, point)

    def holds(self, point, strict: bool = False) -> bool:
        v = self.value(point)
        return v < self.offset if strict else v <= self.offset


@dataclass(frozen=True)
class LatticePolytope:
    """Convex lattice polytope with eagerly derived exact data.

    vertices    lex-sorted minimal vertex set (extreme points only)
    halfspaces  facet half-spaces; empty when dim < ambient_dim
    dim         affine dimension (<= ambient_dim)
    volume_d    exact ambient-dimensional volume; 0 when dim < ambient_dim
    """

    ambient_dim: int
    vertices: tuple[tuple[int, ...], ...]
    halfspaces: tuple[HalfSpace, ...]
    dim: int
    volume_d: Fraction

    @property
    def is_full_dimensional(self) -> bool:
        return self.dim == self.ambient_dim

    @cached_property
    def lift_plan(self) -> LiftPlan:
        """`counting`'s projection tower of a full-dimensional P, built on first use."""
        from .counting import _lift_plan  # here, as counting imports this module
        return _lift_plan(self)

    def __repr__(self) -> str:  # the default dataclass repr is unreadably long
        return (
            f"LatticePolytope(ambient_dim={self.ambient_dim}, dim={self.dim}, "
            f"vertices={len(self.vertices)}, volume={self.volume_d})"
        )


def bounding_box(P: LatticePolytope) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Componentwise (min, max) over the vertices; contains every point of P."""
    mins = tuple(min(v[j] for v in P.vertices) for j in range(P.ambient_dim))
    maxs = tuple(max(v[j] for v in P.vertices) for j in range(P.ambient_dim))
    return mins, maxs


def _require_full_dimensional(P: LatticePolytope, what: str) -> None:
    if not P.is_full_dimensional:
        raise NotFullDimensionalError(f"{what} requires a full-dimensional polytope")


def _validated_points(points) -> list[tuple[int, ...]]:
    pts = [tuple(p) for p in points]
    if not pts:
        raise ConstructionError("a polytope needs at least one vertex")
    d = len(pts[0])
    if d == 0:
        raise ConstructionError("ambient dimension must be at least 1")
    for i, p in enumerate(pts):
        if len(p) != d:
            raise ConstructionError(
                f"vertex {i} has {len(p)} coordinates, expected {d}"
            )
        for j, x in enumerate(p):
            # bool is an int subclass; reject it explicitly
            if not isinstance(x, int) or isinstance(x, bool):
                raise ConstructionError(
                    f"non-integer coordinate at vertex {i}, index {j}: {x!r}"
                )
    return pts


def _extreme_rays(rows, k: int) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """Primitive extreme rays of the pointed cone {y in R^k : r.y <= 0 for each row r}.

    Double description (Motzkin et al. 1953; Fukuda-Prodon 1996). The rays
    of the simplicial cone of a greedy basis of k independent rows are null
    vectors of k-1 of them. Every other row r is then added in turn: rays
    with r.y > 0 are dropped, and each pair of a dropped ray p and a kept
    ray n with r.n < 0 that is adjacent gives the ray (r.p) n - (r.n) p,
    tight on r and on the rows tight on both. The test is combinatorial:
    the pair is adjacent iff it shares at least k-2 tight rows and no third
    ray is tight on all of them. Every ray is divided by the gcd of its
    entries, so it is primitive, and the rays come back sorted, each with
    the indices of all the rows tight on it. By Minkowski-Weyl duality this
    one routine turns points into facets and half-spaces into vertices, and
    it supplies every facet-vertex incidence.

    The rows must have rank k: a cone with a lineality space is not
    pointed, and for it the result is [].
    """
    basis = la.echelon(list(zip(*rows)))[1]
    if len(basis) < k:
        return []
    rays = []  # (ray, bit mask of the rows tight on it)
    for i in basis:
        y = la.null_vector([rows[j] for j in basis if j != i], k)
        g = gcd(*y) if la.dot(rows[i], y) < 0 else -gcd(*y)
        rays.append((tuple(c // g for c in y), sum(1 << j for j in basis if j != i)))
    chosen = set(basis)
    for j, r in enumerate(rows):
        if j in chosen:
            continue
        bit = 1 << j
        values = [la.dot(r, y) for y, _ in rays]
        masks = [m for _, m in rays]
        above = [(y, m, v) for (y, m), v in zip(rays, values) if v > 0]
        below = [(y, m, v) for (y, m), v in zip(rays, values) if v < 0]
        kept = [(y, m | bit if v == 0 else m) for (y, m), v in zip(rays, values) if v <= 0]
        for p, mp, vp in above:
            for n, mn, vn in below:
                z = mp & mn
                # p and n are tight on z; a third ray tight on it rules the pair out
                if z.bit_count() >= k - 2 and sum(z & m == z for m in masks) == 2:
                    y = tuple(vp * a - vn * b for a, b in zip(n, p))
                    g = gcd(*y)
                    kept.append((tuple(c // g for c in y), z | bit))
        rays = kept
    return sorted(
        (y, frozenset(i for i in range(len(rows)) if m >> i & 1)) for y, m in rays
    )


def _facet_halfspaces(points, k: int) -> list[tuple[HalfSpace, frozenset[int]]]:
    """Facets of the hull of integer `points` spanning R^k, with the points on each.

    A facet a.x <= b is an extreme ray (a, b) of the cone of rows (p, -1),
    and the indices of its points are the rows tight on it. The normal is
    primitive: b = a.p for a lattice point p, so gcd(a, b) = gcd(a).
    """
    rays = _extreme_rays([(*p, -1) for p in points], k + 1)
    return [(HalfSpace(y[:-1], y[-1]), on) for y, on in rays]


def _assembled(points, facets) -> LatticePolytope:
    """The hull of distinct integer `points`, from its facets and the points on each.

    `facets` pairs each facet, in a chart where the hull is full-dimensional,
    with the indices of the points on it. A point is a vertex iff the facets
    through it meet in it alone, as they meet in the smallest face that
    holds it. A hull of lower dimension than the points has no half-spaces
    and volume 0; otherwise the incidences, re-indexed onto the lex-sorted
    vertices, give the volume by `_triangulate`.
    """
    meet = [None] * len(points)
    for _, on in facets:
        for i in on:
            meet[i] = on if meet[i] is None else meet[i] & on
    order = sorted((i for i, m in enumerate(meet) if m == {i}), key=points.__getitem__)
    verts = tuple(points[i] for i in order)
    d, r = len(points[0]), len(facets[0][0].normal)
    if r < d:
        return LatticePolytope(d, verts, (), r, Fraction(0))
    index = {i: j for j, i in enumerate(order)}
    incidences = [frozenset(index[i] for i in on if i in index) for _, on in facets]
    total = 0
    for simplex in _triangulate(frozenset(range(len(verts))), d, incidences):
        base = verts[simplex[0]]
        total += abs(la.det([la.vsub(verts[i], base) for i in simplex[1:]]))
    vol = Fraction(total, factorial(d))
    return LatticePolytope(d, verts, tuple(h for h, _ in facets), d, vol)


def _intersection_polytope(parts, d: int) -> LatticePolytope | None:
    """Intersection of full-dimensional parts; None when empty or lower-dimensional.

    Its vertices x/s are the extreme rays (x, s) of the cone a.x <= b s,
    s >= 0, over the parts' half-spaces a.x <= b; the intersection is
    bounded, so every ray has s > 0. The same scan gives each half-space's
    vertex set. A nonempty intersection is lower-dimensional iff some
    half-space is tight at every vertex, and its facets are the half-spaces
    whose nonempty vertex set is inclusion-maximal, so nothing is re-hulled.
    """
    rows = sorted({h.normal + (-h.offset,) for P in parts for h in P.halfspaces})
    rays = _extreme_rays(rows + [(0,) * d + (-1,)], d + 1)
    if not rays or frozenset.intersection(*(tight for _, tight in rays)):
        return None
    for y, _ in rays:
        if any(c % y[-1] for c in y[:-1]):
            vertex = tuple(str(Fraction(c, y[-1])) for c in y[:-1])
            raise UnsupportedInputError(
                f"intersection has a non-lattice vertex {vertex}; "
                "inclusion-exclusion is defined for lattice polytopes only"
            )
    on = [{i for i, (_, t) in enumerate(rays) if j in t} for j in range(len(rows))]
    keep = [j for j, vs in enumerate(on) if vs and not any(vs < ws for ws in on)]
    facets = [(HalfSpace(rows[j][:-1], -rows[j][-1]), on[j]) for j in keep]
    return _assembled([tuple(c // y[-1] for c in y[:-1]) for y, _ in rays], facets)


def _integer_chart(points) -> list[tuple[int, ...]]:
    """`points` projected onto the pivot columns of their difference vectors.

    On those coordinates the projection of the affine hull is injective, so
    it maps the hull (of dimension r = the number of columns) isomorphically
    onto a polytope in R^r and preserves faces and extreme points exactly.
    Points that span their ambient space are returned unchanged.
    """
    p0 = points[0]
    columns = la.echelon([la.vsub(p, p0) for p in points[1:]])[1]
    return [tuple(p[c] for c in columns) for p in points]


def _triangulate(face: frozenset[int], k: int, incidences) -> list[tuple[int, ...]]:
    """Index (k+1)-tuples of simplices tiling the k-face `face` of a polytope.

    `face` is a set of indices into the lex-sorted vertices, and `incidences`
    holds the vertex-index set of each facet. Every face is an intersection
    of facets, so the facets of `face` are the inclusion-maximal proper sets
    face & F: each facet G of the face is face & F for a facet F through G
    but not through the face, and every other proper intersection lies in
    some G. Star triangulation: cone the lex-smallest vertex, min(face),
    over the triangulated facets of the face that do not contain it. No
    coordinates are read, so nothing is re-hulled.
    """
    if len(face) == k + 1:
        return [tuple(sorted(face))]
    apex = min(face)
    cuts = {face & F for F in incidences} - {face}
    simplices = []
    for G in cuts:
        if apex in G or any(G < H for H in cuts):
            continue
        simplices += [(apex,) + sub for sub in _triangulate(G, k - 1, incidences)]
    return simplices


def from_vertices(points) -> LatticePolytope:
    """Convex hull of integer points as a LatticePolytope.

    Non-extreme input points are discarded; half-spaces are derived when the
    hull is full-dimensional; dim and volume are computed exactly.
    """
    pts = _validated_points(points)
    d = len(pts[0])
    uniq = sorted(set(pts))
    if len(uniq) == 1:
        return LatticePolytope(d, (uniq[0],), (), 0, Fraction(0))
    chart = _integer_chart(uniq)
    return _assembled(uniq, _facet_halfspaces(chart, len(chart[0])))


def dilate(P: LatticePolytope, k: int) -> LatticePolytope:
    """The dilate kP about the origin, k a nonnegative integer."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"dilation factor must be a nonnegative integer, got {k!r}")
    d = P.ambient_dim
    if k == 0:
        return LatticePolytope(d, ((0,) * d,), (), 0, Fraction(0))
    verts = tuple(la.vscale(v, k) for v in P.vertices)
    halfspaces = tuple(HalfSpace(h.normal, k * h.offset) for h in P.halfspaces)
    return LatticePolytope(d, verts, halfspaces, P.dim, P.volume_d * k**d)


def translate(P: LatticePolytope, a) -> LatticePolytope:
    """The translate P + a by an integer vector a."""
    shift = tuple(a)
    if len(shift) != P.ambient_dim:
        raise ValueError(
            f"translation vector has length {len(shift)}, expected {P.ambient_dim}"
        )
    for x in shift:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"translation vector must be integral, got {x!r}")
    verts = tuple(la.vadd(v, shift) for v in P.vertices)
    halfspaces = tuple(
        HalfSpace(h.normal, h.offset + la.dot(h.normal, shift)) for h in P.halfspaces
    )
    return LatticePolytope(P.ambient_dim, verts, halfspaces, P.dim, P.volume_d)


def contains(P: LatticePolytope, point, strict: bool = False) -> bool:
    """Exact membership of a rational point, interior membership when strict."""
    _require_full_dimensional(P, "containment testing")
    x = tuple(point)
    if len(x) != P.ambient_dim:
        raise ValueError(f"point has length {len(x)}, expected {P.ambient_dim}")
    return all(h.holds(x, strict) for h in P.halfspaces)


def volume(P: LatticePolytope) -> Fraction:
    """Exact d-dimensional volume; 0 when dim < ambient_dim."""
    return P.volume_d


def pyramid(P: LatticePolytope) -> LatticePolytope:
    """Pyramid over P in one higher dimension with apex (0, ..., 0, 1).

    The hull of P x {0} and the apex, so its facets and its volume
    vol(P)/(d+1) are read off a hull of their own, not off P's.
    """
    d = P.ambient_dim
    return from_vertices([v + (0,) for v in P.vertices] + [(0,) * d + (1,)])
