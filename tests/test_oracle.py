"""Brute-force enumeration vs the formula path, and the power-product sum."""

import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from latticemini import (
    NotFullDimensionalError,
    ResourceLimitError,
    average_miniature_volume,
    contains,
    copy_census,
    count_points,
    dilate,
    enumerate_copies,
    from_vertices,
    mu_ratio,
)
from latticemini import corpus
from latticemini.oracle import sum_prod_poly


def test_unit_segment_witnesses():
    witnesses = enumerate_copies(corpus.segment(1), 2)
    assert [(w.scale, w.shift) for w in witnesses] == [(1, (0,)), (1, (1,)), (2, (0,))]


def test_triangle_resolution_four():
    assert len(enumerate_copies(corpus.triangle(), 4)) == 20


def test_witnesses_sorted():
    witnesses = enumerate_copies(corpus.pentagon(), 3)
    keys = [(w.scale, w.shift) for w in witnesses]
    assert keys == sorted(keys)


def test_per_scale_histogram_is_lattice_count(full_dim_corpus):
    for name, P in full_dim_corpus:
        n = 3 if P.ambient_dim == 3 else 5
        witnesses = enumerate_copies(P, n)
        for i in range(1, n + 1):
            hits = sum(1 for w in witnesses if w.scale == i)
            assert hits == count_points(P, n - i), (name, i)


def test_census_equivalence(full_dim_corpus):
    for name, P in full_dim_corpus:
        n = 3 if P.ambient_dim == 3 else 5
        assert len(enumerate_copies(P, n)) == copy_census(P, n).total, name


def test_volume_average_equivalence(full_dim_corpus):
    for name, P in full_dim_corpus:
        n = 3 if P.ambient_dim == 3 else 5
        assert average_miniature_volume(P, n) == mu_ratio(P, n), name


def test_unit_segment_average():
    assert average_miniature_volume(corpus.segment(1), 2) == Fraction(2, 3)


def test_square_resolution_one_average():
    assert average_miniature_volume(corpus.square(), 1) == 1


def test_witness_soundness_and_rejection():
    P = corpus.triangle()
    n = 4
    big = dilate(P, n)
    witnesses = enumerate_copies(P, n)
    accepted = {(w.scale, w.shift) for w in witnesses}
    for w in witnesses:
        for v in P.vertices:
            point = tuple(Fraction(w.scale * v[j] + w.shift[j]) for j in range(2))
            assert contains(big, point)
    # sample rejected (i, a) pairs from the search box: some vertex must fail
    rng = random.Random(20250808)
    mins = [min(v[j] for v in P.vertices) for j in range(2)]
    maxs = [max(v[j] for v in P.vertices) for j in range(2)]
    rejected_checked = 0
    while rejected_checked < 20:
        i = rng.randint(1, n)
        a = tuple(
            rng.randint(n * mn - i * mx, n * mx - i * mn)
            for mn, mx in zip(mins, maxs)
        )
        if (i, a) in accepted:
            continue
        outside = [
            v
            for v in P.vertices
            if not contains(big, tuple(i * v[j] + a[j] for j in range(2)))
        ]
        assert outside, (i, a)
        rejected_checked += 1


class TestGuards:
    def test_resolution_cap_2d(self):
        with pytest.raises(ResourceLimitError):
            enumerate_copies(corpus.square(), 13)

    def test_resolution_cap_3d(self):
        with pytest.raises(ResourceLimitError):
            enumerate_copies(corpus.cube3(), 7)

    def test_dimension_cap(self):
        tesseract = corpus.box(1, 1, 1, 1)
        with pytest.raises(ResourceLimitError):
            enumerate_copies(tesseract, 1)

    def test_resolution_positive(self):
        with pytest.raises(ValueError):
            enumerate_copies(corpus.square(), 0)

    def test_lower_dimensional_rejected(self):
        with pytest.raises(NotFullDimensionalError):
            enumerate_copies(from_vertices([(0, 0), (1, 1)]), 2)


class TestSumProdPoly:
    def test_faulhaber_case(self):
        # sum i(n-i) = (n^3 - n)/6
        assert sum_prod_poly(1, 1).coeffs == (0, Fraction(-1, 6), 0, Fraction(1, 6))

    def test_one_two(self):
        assert sum_prod_poly(1, 2).leading_coefficient == Fraction(1, 12)

    def test_leading_coefficients_grid(self):
        for p in range(1, 5):
            for q in range(1, 5):
                poly = sum_prod_poly(p, q)
                assert poly.degree == p + q + 1
                expected = Fraction(factorial(p) * factorial(q), factorial(p + q + 1))
                assert poly.leading_coefficient == expected

    def test_index_forms_agree(self):
        for p, q in product(range(1, 4), range(1, 4)):
            poly = sum_prod_poly(p, q)
            for n in range(11):
                from_zero = sum(i**p * (n - i) ** q for i in range(n))
                from_one = sum(i**p * (n - i) ** q for i in range(1, n + 1))
                assert from_zero == from_one == poly.evaluate(n), (p, q, n)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sum_prod_poly(0, 1)
        with pytest.raises(ValueError):
            sum_prod_poly(6, 5)
