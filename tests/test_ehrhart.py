"""Ehrhart interpolation: exactness, shape invariants, reciprocity."""

from fractions import Fraction
from math import factorial

import pytest

from latticemini import (
    InternalConsistencyError,
    NotFullDimensionalError,
    RationalPolynomial,
    check_reciprocity,
    count_points,
    ehrhart_polynomial,
    from_vertices,
)
from latticemini import corpus
from latticemini import ehrhart as ehrhart_module


def coeffs(P):
    return ehrhart_polynomial(P).poly.coeffs


def test_square_is_t_plus_1_squared():
    assert coeffs(corpus.square()) == (1, 2, 1)


def test_standard_triangle():
    assert coeffs(corpus.triangle()) == (1, Fraction(3, 2), Fraction(1, 2))


def test_segment_length_two():
    assert coeffs(corpus.segment(2)) == (1, 2)


def test_reeve_tetrahedron():
    # enumerator with genuinely non-integer coefficients: L(1) = 4 vertices only
    assert coeffs(corpus.reeve(2)) == (1, Fraction(5, 3), 1, Fraction(1, 3))
    assert count_points(corpus.reeve(2), 1) == 4


def test_lower_dimensional_rejected():
    with pytest.raises(NotFullDimensionalError):
        ehrhart_polynomial(from_vertices([(0, 0), (1, 1)]))


def test_interpolation_exactness(full_dim_corpus):
    # agreement with fresh counts well past the interpolation support
    for name, P in full_dim_corpus:
        poly = ehrhart_polynomial(P).poly
        for t in range(2 * P.ambient_dim + 3):
            assert poly.evaluate(t) == count_points(P, t), (name, t)


def test_shape_invariants(full_dim_corpus):
    for name, P in full_dim_corpus:
        poly = ehrhart_polynomial(P).poly
        d = P.ambient_dim
        assert poly.degree == d, name
        assert poly.constant_term == 1, name
        assert poly.leading_coefficient == P.volume_d, name
        for c in poly.coeffs:
            assert (c * factorial(d)).denominator == 1, (name, c)


class TestEvaluate:
    def test_square_at_three(self):
        assert ehrhart_polynomial(corpus.square()).poly.evaluate(3) == 16

    def test_at_zero_gives_constant(self):
        poly = RationalPolynomial.from_coeffs([7, -3, Fraction(1, 2)])
        assert poly.evaluate(0) == 7

    def test_triangle_at_minus_one_vanishes(self):
        # reciprocity instance: the unit triangle has no interior point at t=1
        poly = ehrhart_polynomial(corpus.triangle()).poly
        assert poly.evaluate(-1) == 0

    def test_rational_argument(self):
        poly = RationalPolynomial.from_coeffs([1, 2, 1])
        assert poly.evaluate(Fraction(1, 2)) == Fraction(9, 4)


class TestReciprocity:
    def test_unit_square_closed_form(self):
        poly = ehrhart_polynomial(corpus.square()).poly
        for t in range(1, 5):
            assert poly.evaluate(-t) == (t - 1) ** 2
            assert count_points(corpus.square(), t, interior=True) == (t - 1) ** 2
        assert check_reciprocity(corpus.square(), 4)

    def test_standard_triangle(self):
        assert check_reciprocity(corpus.triangle(), 4)

    def test_full_corpus(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            assert check_reciprocity(P, 3), name

    def test_off_by_one_interior_count_detected(self, monkeypatch):
        # the fit reads closed counts only, so only reciprocity sees the fault
        real = ehrhart_module.count_points
        monkeypatch.setattr(
            ehrhart_module, "count_points",
            lambda P, t, interior=False: real(P, t, interior) + interior,
        )
        assert not check_reciprocity(corpus.square(), 4)

    def test_t_max_validated(self):
        with pytest.raises(ValueError):
            check_reciprocity(corpus.square(), 0)


def test_counting_bug_detected(monkeypatch):
    # a corrupted count at a verification node must raise, not pass silently
    real = ehrhart_module.count_points

    def corrupted(P, t, interior=False):
        value = real(P, t, interior)
        return value + 1 if t == P.ambient_dim + 1 else value

    monkeypatch.setattr(ehrhart_module, "count_points", corrupted)
    with pytest.raises(InternalConsistencyError):
        ehrhart_polynomial(corpus.square())


def test_constant_term_checked(monkeypatch):
    # one extra point at every t keeps degree d and lead vol, so the fit
    # passes and only the constant term L(0) = 2 is wrong
    real = ehrhart_module.count_points
    monkeypatch.setattr(
        ehrhart_module, "count_points",
        lambda P, t, interior=False: real(P, t, interior) + 1,
    )
    with pytest.raises(InternalConsistencyError, match="constant term 2 != 1"):
        ehrhart_polynomial(corpus.square())


def test_negative_h_star_rejected():
    # L = 1 + t/2 + t^2/2 takes 1, 2, 4 at t = 0, 1, 2: its degree, constant
    # term, lead = vol and 2! c_i integrality all hold for the triangle, but
    # h* = (1, -1, 1) is not the h*-vector of any lattice polygon
    with pytest.raises(InternalConsistencyError, match="h\\*"):
        ehrhart_module._check_shape([1, 2, 4])


def test_reeve_h_star():
    # the Reeve tetrahedron T_r has h*(z) = 1 + (r - 1) z^2
    for r in (1, 2, 5):
        values = [count_points(corpus.reeve(r), t) for t in range(4)]
        assert ehrhart_module._h_star(values) == [1, 0, r - 1, 0], r
