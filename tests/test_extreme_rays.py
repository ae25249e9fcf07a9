"""The extreme-ray scan against the subset-scan and Fraction oracles.

`geometry._extreme_rays` turns points into facets (`_facet_halfspaces`) and
half-spaces into vertices (`miniatures._intersection_polytope`). The
oracles in conftest do each conversion on its own: hyperplanes through
point differences, and vertices as Fraction solutions of d tight
half-spaces.
"""

from hypothesis import assume, event, given, settings, strategies as st

from conftest import scan_facet_halfspaces, solved_intersection
from latticemini import UnsupportedInputError, from_vertices
from latticemini import _linalg as la
from latticemini.geometry import _extreme_rays, _facet_halfspaces, _integer_chart
from latticemini.miniatures import _intersection_polytope


@st.composite
def point_sets(draw, d: int):
    coord = st.integers(min_value=-2, max_value=2)
    points = draw(st.lists(st.tuples(*([coord] * d)), min_size=2, max_size=d + 3))
    points = sorted(set(points))
    assume(len(points) >= 2)
    return points


@given(st.one_of(*(point_sets(d) for d in (1, 2, 3, 4, 5))))
@settings(max_examples=150, deadline=None)
def test_facet_halfspaces_match_the_subset_scan(points):
    # charts of lower-dimensional sets included: 3 points in R^5 span a plane
    chart = _integer_chart(points)
    r = len(chart[0])
    assert _facet_halfspaces(chart, r) == scan_facet_halfspaces(chart, r)


def test_rays_are_primitive_and_sorted():
    # the cone x >= 0, y >= 0 in R^2, written with redundant rows
    rays = _extreme_rays([(-2, 0), (0, -1), (-1, -1), (-3, 0)], 2)
    assert rays == [(0, 1), (1, 0)]


def test_empty_cone_has_no_rays():
    # x <= 0, y <= 0 and x + y >= 0 meet only at 0
    assert _extreme_rays([(1, 0), (0, 1), (-1, -1)], 2) == []


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

