"""The project-and-lift kernel against the box-scan oracle, closed and interior.

`box_scan_count` (conftest) walks the whole bounding box of tP in index
order; `count_points` walks a tower of projections in width order. The two
share no code, so every equality below is a differential check.
`line_scan_count` (conftest) walks the same tower as `count_points` but
resolves each line of the last axis on its own, so it checks the closed-form
slices alone, at larger dilates than the box scan affords.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import box_scan_count, cross_polytope, line_scan_count
from latticemini import (
    HalfSpace,
    LatticePolytope,
    check_reciprocity,
    count_points,
    ehrhart_polynomial,
    from_vertices,
    mu_limit_symbolic,
    pyramid,
)
from latticemini import corpus, counting, geometry

# box-scan prefixes an oracle call may walk: the bounding box's lines along
# its last axis, which is what the scan's time grows with
ORACLE_LINES = 20_000


def assert_matches_box_scan(P, t_max):
    for t in range(t_max + 1):
        for interior in (False, True):
            assert count_points(P, t, interior=interior) == box_scan_count(
                P, t, interior
            ), (t, interior)


def oracle_t_max(P, cap: int = 4) -> int:
    """The largest t <= cap whose box scan stays within ORACLE_LINES, or 0."""
    mins, maxs = geometry.bounding_box(P)
    widths = [hi - lo for lo, hi in zip(mins, maxs)][:-1]
    for t in range(cap, 0, -1):
        lines = 1
        for w in widths:
            lines *= t * w + 1
        if lines <= ORACLE_LINES:
            return t
    return 0


def unit_cube(d: int) -> LatticePolytope:
    """[0, 1]^d, hulled from its 2^d vertices."""
    return from_vertices(product((0, 1), repeat=d))


CASES = [(name, P, 4) for name, P in corpus.full_corpus() if P.is_full_dimensional] + [
    ("simplex5", corpus.simplex(5), 4),
    ("cube5", unit_cube(5), 4),
    ("cross5", cross_polytope(5), 3),
    ("pyramid-cross5", pyramid(cross_polytope(5)), 2),
    ("pyramid-box1111", pyramid(corpus.box(1, 1, 1, 1)), 3),
]


@pytest.mark.parametrize("name, P, t_max", CASES, ids=[c[0] for c in CASES])
def test_matches_box_scan(name, P, t_max):
    assert_matches_box_scan(P, t_max)


def test_unit_cube_matches_its_hull():
    # the hull of {0, 1}^d is the cube 0 <= x_j <= 1, up to d = 6
    for d in range(1, 7):
        facets = []
        for j in range(d):
            e = tuple(int(i == j) for i in range(d))
            facets += [HalfSpace(e, 1), HalfSpace(tuple(-c for c in e), 0)]
        P = unit_cube(d)
        assert P.vertices == tuple(product((0, 1), repeat=d))
        assert P.halfspaces == tuple(sorted(facets, key=lambda h: (h.normal, h.offset)))
        assert P.volume_d == 1


@st.composite
def sheared_polytopes(draw):
    """A full-dimensional lattice polytope under a random unimodular shear."""
    d = draw(st.integers(min_value=2, max_value=5))
    coordinate = st.integers(min_value=-1, max_value=2)
    extra = draw(st.lists(st.tuples(*([coordinate] * d)), max_size=3))
    # the standard simplex keeps the hull full-dimensional
    points = [(0,) * d] + [tuple(int(i == j) for i in range(d)) for j in range(d)] + extra
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
    return from_vertices(points)


@given(P=sheared_polytopes())
@settings(max_examples=40, deadline=None)
def test_sheared_property(P):
    t_max = oracle_t_max(P)
    assume(t_max > 0)
    assert_matches_box_scan(P, t_max)


@st.composite
def thin_polytopes(draw):
    """A small polytope with one axis stretched by up to 10^6, and that axis."""
    d = draw(st.integers(min_value=2, max_value=4))
    coordinate = st.integers(min_value=0, max_value=2)
    extra = draw(st.lists(st.tuples(*([coordinate] * d)), max_size=3))
    points = [(0,) * d] + [tuple(int(i == j) for i in range(d)) for j in range(d)] + extra
    axis = draw(st.integers(0, d - 1))
    stretch = draw(st.sampled_from([10**3, 10**6]))
    points = [p[:axis] + (stretch * p[axis],) + p[axis + 1:] for p in points]
    return from_vertices(points), axis


@given(case=thin_polytopes())
@settings(max_examples=30, deadline=None)
def test_thin_property(case):
    # the box scan walks the wide axis in closed form only when it comes
    # last, so the oracle counts the same polytope with that axis moved last
    P, axis = case
    d = P.ambient_dim
    moved = from_vertices([v[:axis] + v[axis + 1:] + (v[axis],) for v in P.vertices])
    for t in range(4):
        for interior in (False, True):
            assert count_points(P, t, interior=interior) == box_scan_count(
                moved, t, interior
            ), (t, interior, d)


def assert_matches_line_scan(P, dilates):
    for t in dilates:
        for interior in (False, True):
            assert count_points(P, t, interior=interior) == line_scan_count(
                P, t, interior
            ), (t, interior)


@given(P=sheared_polytopes())
@settings(max_examples=40, deadline=None)
def test_slices_match_the_line_scan(P):
    # the line scan walks the same tower, so it affords longer slices than
    # the box scan: dilates up to 8 within the same line budget
    assert_matches_line_scan(P, range(oracle_t_max(P, cap=8) + 1))


@given(case=thin_polytopes())
@settings(max_examples=30, deadline=None)
def test_thin_slices_match_the_line_scan(case):
    # the stretched axis comes last, and at t = 1..3 most tightened
    # interior lines are empty, so each slice is clipped to where it is not
    P, _ = case
    assert_matches_line_scan(P, range(1, 4))


@pytest.mark.parametrize(
    "P",
    [corpus.segment(2), corpus.pentagon(), corpus.reeve(3), corpus.box(1, 1, 1, 1)],
    ids=["segment2", "pentagon", "reeve3", "box1111"],
)
def test_plan_is_built_once_per_polytope(P, monkeypatch):
    # a fresh object, so no count has built its projections yet
    P = LatticePolytope(P.ambient_dim, P.vertices, P.halfspaces, P.dim, P.volume_d)
    hulls = []
    original = counting._facet_halfspaces

    def counted(points, k):
        hulls.append(k)
        return original(points, k)

    monkeypatch.setattr(counting, "_facet_halfspaces", counted)
    ehrhart_polynomial(P)  # closed counts at t = 0..d+2
    assert check_reciprocity(P, 3)  # interior counts at t = 1..3
    d = P.ambient_dim
    assert hulls == list(range(1, d))


def test_cross_polytope_limit():
    # every facet normal of the 5-D cross-polytope is dense: vol = 2^5/5!
    assert mu_limit_symbolic(cross_polytope(5)) == Fraction(2, 3465)
