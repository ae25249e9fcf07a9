"""The double description against the subset-scan and Cramer's-rule oracles.

`geometry._extreme_rays` turns points into facets (`_facet_halfspaces`) and
half-spaces into vertices (`_intersection_polytope`), and hands
back the incidences both build their polytopes from. The oracles in
conftest work on their own: the rays of every (k-1)-subset of the rows,
hyperplanes through point differences, vertices by the rank of their tight
facet normals, and vertices as solutions of d tight half-spaces.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from conftest import (
    cross_polytope,
    rank_vertex_indices,
    scan_facet_halfspaces,
    solved_intersection,
    subset_scan_rays,
)
from latticemini import UnsupportedInputError, corpus, from_vertices, geometry
from latticemini import _linalg as la
from latticemini.geometry import (
    _extreme_rays,
    _facet_halfspaces,
    _integer_chart,
    _intersection_polytope,
)
from test_lift import unit_cube


@st.composite
def point_sets(draw, d: int):
    coord = st.integers(min_value=-2, max_value=2)
    points = draw(st.lists(st.tuples(*([coord] * d)), min_size=2, max_size=d + 3))
    points = sorted(set(points))
    assume(len(points) >= 2)
    return points


@given(st.one_of(*(point_sets(d) for d in (1, 2, 3, 4, 5, 6))))
@settings(max_examples=150, deadline=None)
def test_facet_halfspaces_match_the_subset_scan(points):
    # charts of lower-dimensional sets included: 3 points in R^5 span a plane
    chart = _integer_chart(points)
    r = len(chart[0])
    facets = _facet_halfspaces(chart, r)
    halfspaces = scan_facet_halfspaces(chart, r)
    assert [h for h, _ in facets] == halfspaces
    for h, on in facets:
        assert on == {i for i, p in enumerate(chart) if h.value(p) == h.offset}
    vertices = [points[i] for i in rank_vertex_indices(chart, halfspaces, r)]
    assert list(from_vertices(points).vertices) == vertices


def test_rays_are_primitive_and_sorted():
    # the cone x >= 0, y >= 0 in R^2, written with redundant rows
    rays = _extreme_rays([(-2, 0), (0, -1), (-1, -1), (-3, 0)], 2)
    assert rays == [((0, 1), {0, 3}), ((1, 0), {1})]


def test_empty_cone_has_no_rays():
    # x <= 0, y <= 0 and x + y >= 0 meet only at 0
    assert _extreme_rays([(1, 0), (0, 1), (-1, -1)], 2) == []


@st.composite
def row_sets(draw):
    """Rows in R^k, k = 2..6, with duplicate, parallel and redundant rows mixed in."""
    k = draw(st.integers(min_value=2, max_value=6))
    coord = st.integers(min_value=-2, max_value=2)
    rows = draw(st.lists(st.tuples(*([coord] * k)), min_size=k, max_size=k + 4))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        a, b = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
        c = draw(st.sampled_from([-1, 1, 2]))
        kind = draw(st.sampled_from(["duplicate", "parallel", "redundant"]))
        row = {"duplicate": a, "parallel": la.vscale(a, c), "redundant": la.vadd(a, b)}[kind]
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), row)
    return rows, k


@given(row_sets())
@settings(max_examples=300, deadline=None)
def test_rays_match_the_subset_scan(case):
    rows, k = case
    assume(len(la.echelon(rows)[1]) == k)
    rays = _extreme_rays(rows, k)
    event(f"k={k}: {'empty cone' if not rays else 'rays'}")
    assert rays == subset_scan_rays(rows, k)


def test_rank_deficient_rows_have_no_rays():
    # x <= 0 in R^2, and x <= 0, y <= 0 in R^3: each cone holds a line, so
    # it is not pointed; the subset scan would return that line's direction
    assert _extreme_rays([(1, 0)], 2) == []
    assert _extreme_rays([(1, 0, 0), (0, 1, 0), (2, 1, 0)], 3) == []
    assert _extreme_rays([], 2) == []


@st.composite
def unimodular(draw, d: int):
    """A product of up to three elementary shears x_i += c x_j, c = +-1."""
    matrix = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i, j = draw(st.permutations(range(d)))[:2]
        c = draw(st.sampled_from([-1, 1]))
        matrix[i] = [a + c * b for a, b in zip(matrix[i], matrix[j])]
    return matrix


@st.composite
def part_lists(draw, d: int):
    coord = st.integers(min_value=0, max_value=2)
    matrix = draw(unimodular(d))
    parts = []
    for _ in range(draw(st.integers(min_value=2, max_value=3 if d < 4 else 2))):
        points = draw(st.lists(st.tuples(*([coord] * d)), min_size=d + 1, max_size=d + 2))
        P = from_vertices([tuple(la.dot(row, p) for row in matrix) for p in points])
        assume(P.is_full_dimensional)
        parts.append(P)
    return parts


def _outcome(intersect, parts):
    try:
        return intersect(parts, parts[0].ambient_dim)
    except UnsupportedInputError:
        return "non-lattice"


@given(st.one_of(*(part_lists(d) for d in (2, 3, 4))))
@settings(max_examples=80, deadline=None)
def test_intersection_matches_the_fraction_solves(parts):
    outcome = _outcome(_intersection_polytope, parts)
    kind = "empty or flat" if outcome is None else "polytope"
    event(f"d={parts[0].ambient_dim}: {outcome if isinstance(outcome, str) else kind}")
    assert outcome == _outcome(solved_intersection, parts)


def test_flat_intersection_with_a_rational_vertex_is_none():
    # the common part is the triangle (0,1,0), (1,0,0), (1,1/2,0) in z = 0:
    # lower-dimensional, so it is dropped before the lattice test
    a = from_vertices([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)])
    b = from_vertices([(1, 0, 0), (1, 1, 0), (0, 1, 0), (1, 1, -1)])
    assert _intersection_polytope([a, b], 3) is None
    assert solved_intersection([a, b], 3) is None


def test_intersection_is_one_scan(monkeypatch):
    scans, hulls = [], []
    original, original_hull = geometry._extreme_rays, geometry.from_vertices

    def counted(rows, k):
        scans.append(k)
        return original(rows, k)

    def hull(points):
        hulls.append(points)
        return original_hull(points)

    monkeypatch.setattr(geometry, "_extreme_rays", counted)
    monkeypatch.setattr(geometry, "from_vertices", hull)
    # the unit cube cut by x + y + z <= 2: the cube without its corner (1, 1, 1)
    simplex = corpus.simplex(3)
    simplex = from_vertices([tuple(2 * c for c in v) for v in simplex.vertices])
    cube = corpus.box(1, 1, 1)
    cut = from_vertices(cube.vertices[:-1])
    scans.clear()
    assert _intersection_polytope([simplex, cube], 3) == cut
    assert (scans, hulls) == ([4], [])


ONE_PART = [(name, P) for name, P in corpus.full_corpus() if P.is_full_dimensional] + [
    ("box1111", corpus.box(1, 1, 1, 1)),
    ("cross4", cross_polytope(4)),
    ("simplex5", corpus.simplex(5)),
    ("cube5", unit_cube(5)),
    ("cube6", unit_cube(6)),
]


@pytest.mark.parametrize("name, P", ONE_PART, ids=[c[0] for c in ONE_PART])
def test_one_part_intersection_is_the_part(name, P):
    assert _intersection_polytope([P], P.ambient_dim) == P


HULLS_6D = [
    ("cube6", unit_cube(6), 12, 1),
    ("cross6", cross_polytope(6), 64, Fraction(4, 45)),
    ("simplex6", corpus.simplex(6), 7, Fraction(1, 720)),
]


@pytest.mark.parametrize("name, P, facets, vol", HULLS_6D, ids=[c[0] for c in HULLS_6D])
def test_hull_at_d6(name, P, facets, vol):
    assert (P.dim, len(P.halfspaces), P.volume_d) == (6, facets, vol)
    for h in P.halfspaces:
        assert sum(h.value(v) == h.offset for v in P.vertices) >= 6
        assert all(h.holds(v) for v in P.vertices)
