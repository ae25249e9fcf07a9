"""Property-based invariants over randomly generated lattice point sets."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import count_points_partitioned
from latticemini import (
    check_reciprocity,
    count_points,
    dilate,
    ehrhart_polynomial,
    from_vertices,
    pyramid,
    translate,
    volume,
)
from latticemini.geometry import bounding_box

coordinate = st.integers(min_value=-4, max_value=4)


def point_sets(d: int):
    return st.lists(
        st.tuples(*([coordinate] * d)), min_size=1, max_size=6
    )


any_point_set = st.one_of(point_sets(1), point_sets(2), point_sets(3))


@given(pts=any_point_set)
@settings(max_examples=60, deadline=None)
def test_hull_idempotence(pts):
    P = from_vertices(pts)
    assert from_vertices(P.vertices).vertices == P.vertices


@given(pts=any_point_set, k=st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_scaling_law(pts, k):
    P = from_vertices(pts)
    assert volume(dilate(P, k)) == P.volume_d * k**P.ambient_dim


@given(pts=any_point_set, data=st.data())
@settings(max_examples=60, deadline=None)
def test_translation_invariance(pts, data):
    P = from_vertices(pts)
    a = data.draw(st.tuples(*([st.integers(-9, 9)] * P.ambient_dim)))
    Q = translate(P, a)
    assert Q.volume_d == P.volume_d
    assert Q.dim == P.dim
    assert Q.vertices == tuple(
        tuple(x + s for x, s in zip(v, a)) for v in P.vertices
    )


@given(pts=any_point_set, k=st.integers(min_value=0, max_value=4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_dilate_translate_commutation(pts, k, data):
    P = from_vertices(pts)
    a = data.draw(st.tuples(*([st.integers(-5, 5)] * P.ambient_dim)))
    assert dilate(translate(P, a), k) == translate(dilate(P, k), tuple(k * x for x in a))


@given(pts=any_point_set)
@settings(max_examples=40, deadline=None)
def test_pyramid_volume(pts):
    P = from_vertices(pts)
    if P.is_full_dimensional:
        assert (P.ambient_dim + 1) * volume(pyramid(P)) == P.volume_d
    else:
        assert volume(pyramid(P)) == 0


@given(pts=any_point_set, data=st.data())
@settings(max_examples=40, deadline=None)
def test_bounding_box_laws(pts, data):
    P = from_vertices(pts)
    a = data.draw(st.tuples(*([st.integers(-5, 5)] * P.ambient_dim)))
    mins, maxs = bounding_box(P)
    assert all(mn <= mx for mn, mx in zip(mins, maxs))
    assert all(all(mn <= x <= mx for mn, x, mx in zip(mins, v, maxs)) for v in P.vertices)
    shifted_mins, shifted_maxs = bounding_box(translate(P, a))
    assert shifted_mins == tuple(m + s for m, s in zip(mins, a))
    assert shifted_maxs == tuple(m + s for m, s in zip(maxs, a))
    k = data.draw(st.integers(min_value=1, max_value=4))
    scaled_mins, scaled_maxs = bounding_box(dilate(P, k))
    assert scaled_mins == tuple(k * m for m in mins)
    assert scaled_maxs == tuple(k * m for m in maxs)


@given(pts=point_sets(2), t=st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_partitioned_count_matches(pts, t):
    P = from_vertices(pts)
    if not P.is_full_dimensional:
        return
    want = count_points(P, t)
    for slabs in (2, 3):
        assert count_points_partitioned(P, t, slabs=slabs) == want


@given(pts=point_sets(2))
@settings(max_examples=30, deadline=None)
def test_count_monotone_in_dilate(pts):
    P = from_vertices(pts)
    if not P.is_full_dimensional:
        return
    counts = [count_points(P, t) for t in range(6)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[0] == 1


# ehrhart_polynomial internally rejects any disagreement between the
# triangulation volume and the counting asymptotics, so running it on random
# hulls cross-validates the whole geometry stack along a second route.
@given(pts=st.one_of(point_sets(1), point_sets(2)))
@settings(max_examples=40, deadline=None)
def test_random_hull_volume_matches_counting(pts):
    P = from_vertices(pts)
    if not P.is_full_dimensional:
        return
    poly = ehrhart_polynomial(P).poly
    assert poly.leading_coefficient == P.volume_d
    assert check_reciprocity(P, 2)


@given(pts=point_sets(3))
@settings(max_examples=15, deadline=None)
def test_random_3d_hull_volume_matches_counting(pts):
    P = from_vertices(pts)
    if not P.is_full_dimensional:
        return
    assert ehrhart_polynomial(P).poly.leading_coefficient == P.volume_d
