"""The project-and-lift kernel against the box-scan oracle, closed and interior.

`box_scan_count` (conftest) walks the whole bounding box of tP in index
order; `count_points` walks a tower of projections in an LLL-reduced basis.
The two share no code, so every equality below is a differential check.
`line_scan_count` (conftest) walks the same tower as `count_points` but
recurses through every level and resolves each line of the last axis on its
own, so it checks the walk of level d-3 in pieces and the closed-form
slices alone, at larger dilates than the box scan affords.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import box_scan_count, cross_polytope, image, line_scan_count, unimodular
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


SHEAR_CASES = [P for _, P, _ in CASES if 2 <= P.ambient_dim <= 5] + [
    corpus.simplex(4),
    corpus.box(1, 1, 1, 1),
    cross_polytope(4),
]

# the largest dilate drawn per dimension: the outer levels of a reduced
# tower take about t^(d-2) prefixes, at most a few thousand here
LARGE_T = {2: 10**3, 3: 10**3, 4: 40, 5: 10}


@given(P=st.sampled_from(SHEAR_CASES), data=st.data())
@settings(max_examples=40, deadline=None)
def test_unimodular_image_keeps_every_count(P, data):
    # x -> Ux + s with det U = +-1 maps Z^d onto itself, so UP + s has every
    # count of P; at small t, P's counts are checked by the box scan too
    d = P.ambient_dim
    matrix = data.draw(unimodular(d, shear=50))
    shift = data.draw(st.lists(st.integers(-50, 50), min_size=d, max_size=d))
    Q = from_vertices(image(P.vertices, matrix, shift))
    dilates = (data.draw(st.integers(0, LARGE_T[d])), LARGE_T[d])
    for interior in (False, True):
        for t in dilates:
            assert count_points(Q, t, interior) == count_points(P, t, interior), (t, interior)
        for s in range(oracle_t_max(P, cap=2) + 1):
            expected = box_scan_count(P, s, interior)
            assert count_points(Q, s, interior) == expected, (s, interior)


def test_sheared_cube_walks_the_slices_of_the_cube(monkeypatch):
    # the shear's reduced basis is the cube's axes up to sign and order, so
    # its tower is the cube's: one slice per value of the outermost axis,
    # where the shear's own axes, narrowest first, would take 3,101; the
    # cube's slices have one row per side, so `_walk` counts each with one
    # `_piece` call
    slices = []
    original = counting._piece

    def counted(*args):
        slices.append(args)
        return original(*args)

    monkeypatch.setattr(counting, "_piece", counted)
    cube = unit_cube(3)
    shear = [[1, 30, 0], [30, 901, 30], [0, 30, 901]]
    for P in (cube, from_vertices(image(cube.vertices, shear, (0, 0, 0)))):
        slices.clear()
        assert count_points(P, 100) == 101**3
        assert len(slices) == 101


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


def sheared_hulls() -> list[LatticePolytope]:
    """Three hulls of 2d points in [-1, 2]^d under three shears each, d = 3..5."""
    rng = random.Random(5)
    hulls = []
    for d in (3, 4, 5):
        for _ in range(3):
            points = [tuple(rng.randint(-1, 2) for _ in range(d)) for _ in range(2 * d)]
            matrix = [[int(i == j) for j in range(d)] for i in range(d)]
            for _ in range(3):  # row i += c row j, determinant 1
                i, j = rng.sample(range(d), 2)
                c = rng.choice((-2, -1, 1, 2))
                matrix[i] = [x + c * y for x, y in zip(matrix[i], matrix[j])]
            P = from_vertices(image(points, matrix, (0,) * d))
            if P.is_full_dimensional:
                hulls.append(P)
    return hulls


# the prism over a hexagon is taller than wide, so its tower takes the
# hexagon's axes first: two rows per side bound y_{d-2}, and the prism's top
# and bottom are the slices' only rows
HEXAGON = [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]
WALK_CASES = (
    [cross_polytope(d) for d in (3, 4, 5)]
    + [from_vertices([p + (z,) for p in HEXAGON for z in (0, 5)])]
    + sheared_hulls()
)


@pytest.mark.parametrize("P", WALK_CASES, ids=[f"walk{i}" for i in range(len(WALK_CASES))])
def test_walk_matches_the_line_scan(P):
    # level d-3 is walked in pieces of its range; the line scan recurses
    # through every value there and every line of the slices
    assert_matches_line_scan(P, range(oracle_t_max(P, cap=8) + 1))


def test_walk_cases_split_into_pieces(monkeypatch):
    # the cases above must reach every branch of `counting._walk`: level
    # d-2 with several rows on a side, slices of one row and of several
    # rows per side, and ranges split into several pieces, some with no
    # point at all
    walks = []
    original = counting._merged

    def recorded(upper, lower, lo, hi, count):
        if count is counting._piece:  # a slice's own pieces
            return original(upper, lower, lo, hi, count)
        walk = []
        walks.append(walk)

        def counted(*piece):
            n = count(*piece)
            walk.append(n)
            return n

        return original(upper, lower, lo, hi, counted)

    monkeypatch.setattr(counting, "_merged", recorded)
    one_row = several = 0
    for P in WALK_CASES:
        levels = P.lift_plan.levels
        if max(map(len, levels[-2][:2])) >= 2:
            if max(map(len, levels[-1][:2])) == 1:
                one_row += 1
            else:
                several += 1
        for interior in (False, True):
            count_points(P, oracle_t_max(P, cap=8), interior)
    assert one_row >= 1 and several >= 3, (one_row, several)
    assert sum(len(walk) >= 2 for walk in walks) >= 10
    assert any(n == 0 for walk in walks for n in walk)


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
