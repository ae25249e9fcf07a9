"""The incidence-driven triangulation against the re-hulling chart oracle.

`geometry._triangulate` reads every face of P off its facet-vertex
incidences; `chart_triangulation` (conftest) re-hulls each face in its own
chart. The simplices may differ, so each tiling is checked on its own
(nonzero determinants, hull vertices only, sum |det| = d! vol) and the
volumes are compared.
"""

from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import chart_triangulation, chart_volume, cross_polytope, simplex_det
from latticemini import corpus, from_vertices, geometry, pyramid


def incidences(P):
    return [
        frozenset(i for i, v in enumerate(P.vertices) if h.value(v) == h.offset)
        for h in P.halfspaces
    ]


def assert_tiles(points, simplices, P):
    """`simplices` index `points` and tile P: nondegenerate, on P's vertices."""
    d = P.ambient_dim
    dets = [simplex_det(points, s) for s in simplices]
    assert all(dets)
    assert all(len(set(s)) == d + 1 for s in simplices)
    assert {points[i] for s in simplices for i in s} <= set(P.vertices)
    assert sum(abs(x) for x in dets) == factorial(d) * P.volume_d


def assert_matches_oracle(points):
    """from_vertices(points) against the oracle, and both tilings checked."""
    points = sorted(set(points))
    P = from_vertices(points)
    assert P.is_full_dimensional
    d = P.ambient_dim
    assert P.volume_d == chart_volume(points)
    verts = list(P.vertices)
    assert_tiles(verts, geometry._triangulate(frozenset(range(len(verts))), d, incidences(P)), P)
    assert_tiles(points, chart_triangulation(points, d), P)
    return P


CASES = [(name, P) for name, P in corpus.full_corpus() if P.is_full_dimensional] + [
    ("simplex5", corpus.simplex(5)),
    ("cross5", cross_polytope(5)),
    ("box1111", corpus.box(1, 1, 1, 1)),
    ("pyramid-cross5", pyramid(cross_polytope(5))),
    ("pyramid-box1111", pyramid(corpus.box(1, 1, 1, 1))),
]


@pytest.mark.parametrize("name, P", CASES, ids=[c[0] for c in CASES])
def test_matches_chart_oracle(name, P):
    # the chart oracle re-hulls every face on its own: it must find the same
    # vertices, facets and volume as the library's one hull
    Q = assert_matches_oracle(P.vertices)
    assert (Q.vertices, Q.halfspaces, Q.volume_d) == (P.vertices, P.halfspaces, P.volume_d)


@st.composite
def point_sets(draw):
    """Random integer points in R^d, d = 2..5, under random unimodular shears."""
    d = draw(st.integers(min_value=2, max_value=5))
    coordinate = st.integers(min_value=-2, max_value=2)
    points = draw(
        st.lists(st.tuples(*([coordinate] * d)), min_size=d + 1, max_size=d + 4)
    )
    shears = draw(
        st.lists(
            st.tuples(
                st.integers(0, d - 1), st.integers(0, d - 1), st.sampled_from([-1, 1])
            ).filter(lambda s: s[0] != s[1]),
            max_size=4,
        )
    )
    for i, j, c in shears:  # x_i += c x_j, determinant 1
        points = [p[:i] + (p[i] + c * p[j],) + p[i + 1:] for p in points]
    return points


@given(points=point_sets())
@settings(max_examples=60, deadline=None)
def test_matches_chart_oracle_property(points):
    assume(from_vertices(points).is_full_dimensional)
    assert_matches_oracle(points)


@pytest.mark.parametrize(
    "P", [corpus.box(1, 1, 1, 1), cross_polytope(5)], ids=["box1111", "cross5"]
)
def test_one_hull_per_polytope(P, monkeypatch):
    hulls = []
    original = geometry._facet_halfspaces

    def counted(points, k):
        hulls.append(k)
        return original(points, k)

    monkeypatch.setattr(geometry, "_facet_halfspaces", counted)
    Q = from_vertices(P.vertices)
    assert hulls == [P.ambient_dim]
    assert Q.volume_d == P.volume_d
