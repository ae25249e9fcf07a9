"""Lattice-point enumeration against closed forms and the brute-force oracle."""

import pytest

from conftest import brute_count, count_points_partitioned
from latticemini import (
    NotFullDimensionalError,
    count_points,
    dilate,
    from_vertices,
    translate,
)
from latticemini import corpus
from latticemini.geometry import bounding_box


def test_square_corners():
    assert count_points(corpus.square(), 1) == 4


def test_triangle_dilate_two():
    T = corpus.triangle()
    assert count_points(T, 2) == 6
    assert brute_count(T, 2) == 6


def test_square_interior_single_point():
    assert count_points(corpus.square(), 2, interior=True) == 1


def test_dilate_zero_counts():
    S = corpus.square()
    assert count_points(S, 0) == 1
    assert count_points(S, 0, interior=True) == 0


def test_single_point_counts():
    P = from_vertices([(5,)])
    assert count_points(P, 3) == 1
    assert count_points(P, 3, interior=True) == 0


def test_negative_dilate_rejected():
    with pytest.raises(ValueError):
        count_points(corpus.square(), -1)


def test_partitioned_negative_dilate_rejected():
    with pytest.raises(ValueError):
        count_points_partitioned(corpus.square(), -2)


def test_lower_dimensional_rejected():
    P = from_vertices([(0, 0), (1, 1)])
    with pytest.raises(NotFullDimensionalError):
        count_points(P, 1)


def test_monotonicity(full_dim_corpus):
    for name, P in full_dim_corpus:
        counts = [count_points(P, t) for t in range(9)]
        assert all(a <= b for a, b in zip(counts, counts[1:])), name


def test_interior_closed_sandwich(full_dim_corpus):
    for name, P in full_dim_corpus:
        for t in range(1, 5):
            closed = count_points(P, t)
            interior = count_points(P, t, interior=True)
            assert interior < closed, (name, t)


def test_product_law():
    for d in (1, 2, 3):
        P = corpus.box(*([1] * d))
        for t in range(9):
            assert count_points(P, t) == (t + 1) ** d


def test_agrees_with_convex_combination_oracle(full_dim_corpus):
    for name, P in full_dim_corpus:
        for t in range(5):
            assert count_points(P, t) == brute_count(P, t), (name, t)


def test_empty_column_between_nonempty_columns():
    # this skinny triangle has no lattice point at x=2 although x=1 and x=3
    # do contribute; an over-eager prefix early exit would undercount here
    P = from_vertices([(0, 0), (3, 2), (0, 1)])
    assert count_points(P, 1) == 4
    for t in range(5):
        assert count_points(P, t) == brute_count(P, t), t


def test_interior_closed_forms():
    # independent interior oracles: boxes and the standard triangle
    for d in (1, 2, 3):
        P = corpus.box(*([1] * d))
        for t in range(1, 6):
            assert count_points(P, t, interior=True) == (t - 1) ** d
    T = corpus.triangle()
    for t in range(1, 8):
        assert count_points(T, t, interior=True) == (t - 1) * (t - 2) // 2


class TestBoundingBox:
    def test_triangle(self):
        assert bounding_box(corpus.triangle()) == ((0, 0), (1, 1))

    def test_translate_shifts(self):
        P = corpus.pentagon()
        mins, maxs = bounding_box(P)
        m2, x2 = bounding_box(translate(P, (4, -1)))
        assert m2 == (mins[0] + 4, mins[1] - 1)
        assert x2 == (maxs[0] + 4, maxs[1] - 1)

    def test_dilate_scales(self):
        P = corpus.pentagon()
        mins, maxs = bounding_box(P)
        for k in range(4):
            mk, xk = bounding_box(dilate(P, k))
            if k == 0:
                assert mk == xk == (0, 0)
            else:
                assert mk == tuple(k * v for v in mins)
                assert xk == tuple(k * v for v in maxs)


def test_partitioned_counts_bit_identical(full_dim_corpus):
    for name, P in full_dim_corpus:
        for t in (1, 2, 4):
            want = count_points(P, t)
            want_interior = count_points(P, t, interior=True)
            for slabs in (1, 2, 3, 5, 50):
                assert count_points_partitioned(P, t, slabs=slabs) == want, (name, t)
                assert (
                    count_points_partitioned(P, t, interior=True, slabs=slabs)
                    == want_interior
                ), (name, t)
