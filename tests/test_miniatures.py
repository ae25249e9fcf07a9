"""Copy censuses, the census polynomial, the volume-ratio limit, and
inclusion-exclusion."""

from fractions import Fraction
from math import comb, factorial

import pytest

from conftest import cross_polytope, shift_argument
from latticemini import (
    InternalConsistencyError,
    NotFullDimensionalError,
    ResourceLimitError,
    UnsupportedInputError,
    copy_census,
    copy_polynomial,
    count_points,
    ehrhart_polynomial,
    enumerate_copies,
    from_vertices,
    mu_inclusion_exclusion,
    mu_limit_symbolic,
    mu_ratio,
    mu_report,
    numerator_polynomial,
    pyramid,
    translate,
)
from latticemini import corpus
from latticemini import ehrhart as ehrhart_module


class TestCopiesWithScale:
    def test_square_identity_copy(self):
        assert copy_census(corpus.square(), 4).per_scale[4] == 1

    def test_square_unit_copies(self):
        assert copy_census(corpus.square(), 4).per_scale[1] == 16

    def test_triangle_against_oracle(self):
        # every shift with P + a inside 3P, by explicit enumeration
        witnesses = enumerate_copies(corpus.triangle(), 3)
        assert sum(1 for w in witnesses if w.scale == 1) == 6
        assert copy_census(corpus.triangle(), 3).per_scale[1] == 6


class TestCopyCensus:
    def test_triangle_pyramidal_totals(self):
        T = corpus.triangle()
        for t in range(1, 8):
            assert copy_census(T, t).total == t * (t + 1) * (t + 2) // 6

    def test_square_pyramidal_totals(self):
        S = corpus.square()
        for t in range(1, 8):
            assert copy_census(S, t).total == t * (t + 1) * (2 * t + 1) // 6

    def test_census_structure(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            census = copy_census(P, 4)
            assert census.per_scale[4] == 1, name
            assert census.total == sum(census.per_scale.values()), name
            d = P.ambient_dim
            weighted = sum(i**d * c for i, c in census.per_scale.items())
            assert census.volume_sum == P.volume_d * Fraction(weighted, 4**d), name
            for i in range(1, 5):
                assert census.per_scale[i] == count_points(P, 4 - i), (name, i)

    def test_resolution_one(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            census = copy_census(P, 1)
            assert census.total == 1, name
            assert census.volume_sum == P.volume_d, name

    def test_resolution_zero_rejected(self):
        with pytest.raises(ValueError) as exc:
            copy_census(corpus.square(), 0)
        assert str(exc.value) == "census resolution must be a positive integer, got 0"

    def test_totals_strictly_increase(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            n_max = 5 if P.ambient_dim == 3 else 8
            totals = [copy_census(P, n).total for n in range(1, n_max + 1)]
            assert all(a < b for a, b in zip(totals, totals[1:])), name


class TestCopyPolynomial:
    def test_triangle(self):
        assert copy_polynomial(corpus.triangle()).coeffs == (
            0,
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(1, 6),
        )

    def test_square(self):
        assert copy_polynomial(corpus.square()).coeffs == (
            0,
            Fraction(1, 6),
            Fraction(1, 2),
            Fraction(1, 3),
        )

    def test_unit_segment(self):
        assert copy_polynomial(corpus.segment(1)).coeffs == (
            0,
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_pyramid_identity(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            poly = copy_polynomial(P)
            shifted = shift_argument(ehrhart_polynomial(pyramid(P)).poly, -1)
            assert poly == shifted, name
            for t in range(1, P.ambient_dim + 4):
                assert poly.evaluate(t) == copy_census(P, t).total, (name, t)

    @pytest.mark.parametrize(
        "P",
        [corpus.box(1, 1, 1, 1), corpus.simplex(4), corpus.simplex(5), cross_polytope(4)],
        ids=["box1111", "simplex4", "simplex5", "cross4"],
    )
    def test_pyramid_identity_in_higher_dimensions(self, P):
        assert copy_polynomial(P) == shift_argument(ehrhart_polynomial(pyramid(P)).poly, -1)

    def test_vanishing_constant_term(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            assert copy_polynomial(P).constant_term == 0, name

    def test_leading_coefficient(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            poly = copy_polynomial(P)
            d = P.ambient_dim
            assert poly.degree == d + 1, name
            assert poly.leading_coefficient == P.volume_d / (d + 1), name

    def test_denominator_bound(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            scale = factorial(P.ambient_dim + 1)
            for c in copy_polynomial(P).coeffs:
                assert (c * scale).denominator == 1, (name, c)

    def test_census_bug_detected(self, monkeypatch):
        real = ehrhart_module.count_points

        def corrupted(P, t, interior=False):
            value = real(P, t, interior)
            return value + 1 if t == 2 else value

        monkeypatch.setattr(ehrhart_module, "count_points", corrupted)
        with pytest.raises(InternalConsistencyError):
            copy_polynomial(corpus.square())


class TestMuRatio:
    def test_unit_segment_resolution_two(self):
        # miniatures [0,1/2], [1/2,1], [0,1]: mean length 2/3
        assert mu_ratio(corpus.segment(1), 2) == Fraction(2, 3)

    def test_square_resolution_one(self):
        assert mu_ratio(corpus.square(), 1) == 1

    def test_unit_segment_sequence(self):
        values = [mu_ratio(corpus.segment(1), n) for n in (1, 2, 3)]
        assert values == [1, Fraction(2, 3), Fraction(5, 9)]


class TestMuLimit:
    def test_closed_forms(self):
        assert mu_limit_symbolic(corpus.segment(1)) == Fraction(1, 3)
        assert mu_limit_symbolic(corpus.square()) == Fraction(1, 10)
        assert mu_limit_symbolic(corpus.triangle()) == Fraction(1, 20)
        assert mu_limit_symbolic(corpus.cube3()) == Fraction(1, 35)
        assert mu_limit_symbolic(corpus.box(2, 1)) == Fraction(2, 10)

    def test_box_products(self):
        # product boxes: limit = C(2d+1,d)^-1 * prod(sides)
        cases = [((3,), Fraction(3, 3)), ((2, 3), Fraction(6, 10)), ((1, 2, 2), Fraction(4, 35))]
        for sides, expected in cases:
            assert mu_limit_symbolic(corpus.box(*sides)) == expected

    def test_non_unit_volume_tetrahedron(self):
        assert mu_limit_symbolic(corpus.reeve(5)) == Fraction(5, 6) / 35

    def test_corpus_matches_closed_form(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            d = P.ambient_dim
            assert mu_limit_symbolic(P) == P.volume_d / comb(2 * d + 1, d), name

    @pytest.mark.parametrize(
        "P, want",
        [
            (corpus.box(1, 1, 1, 1, 1, 1), Fraction(1, 1716)),
            (cross_polytope(6), Fraction(1, 19305)),
            (corpus.simplex(6), Fraction(1, 1235520)),
        ],
        ids=["cube6", "cross6", "simplex6"],
    )
    def test_dimension_six(self, P, want):
        # vol / C(13, 6): 1, 4/45 and 1/720 over 1716
        assert want == P.volume_d / comb(13, 6)
        assert mu_limit_symbolic(P) == want

    def test_lower_dimensional_rejected(self):
        with pytest.raises(NotFullDimensionalError):
            mu_limit_symbolic(from_vertices([(0, 0), (1, 1)]))


class TestNumeratorPolynomial:
    def test_leading_coefficient(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            d = P.ambient_dim
            poly = numerator_polynomial(P)
            assert poly.degree == 2 * d + 1, name
            expected = Fraction(factorial(d) ** 2, factorial(2 * d + 1)) * P.volume_d**2
            assert poly.leading_coefficient == expected, name

    def test_matches_census_volume_sums(self):
        # N(n) = n^d * volume_sum(n) for explicit censuses
        for P in (corpus.segment(1), corpus.triangle(), corpus.square()):
            d = P.ambient_dim
            poly = numerator_polynomial(P)
            for n in range(1, 9):
                assert poly.evaluate(n) == n**d * copy_census(P, n).volume_sum, (P, n)


class TestMuReport:
    def test_unit_segment(self):
        report = mu_report(corpus.segment(1), 3)
        assert report.ratios == [(1, 1), (2, Fraction(2, 3)), (3, Fraction(5, 9))]
        assert report.symbolic_limit == Fraction(1, 3)

    def test_lower_dimensional_all_zero(self):
        report = mu_report(from_vertices([(0, 0), (2, 2)]), 4)
        assert report.ratios == [(n, 0) for n in range(1, 5)]
        assert report.symbolic_limit == 0

    def test_square_convergence_bound(self):
        report = mu_report(corpus.square(), 30)
        target = Fraction(1, 10)
        for n, ratio in report.ratios:
            assert abs(ratio - target) * n <= report.bound_constant
        # deviations shrink monotonically over the verified range
        devs = [abs(r - target) for _, r in report.ratios]
        assert all(a >= b for a, b in zip(devs, devs[1:]))

    def test_n_max_validated(self):
        with pytest.raises(ValueError):
            mu_report(corpus.square(), 0)


class TestInclusionExclusion:
    def test_diagonal_split_of_square(self):
        lower = from_vertices([(0, 0), (1, 0), (1, 1)])
        upper = from_vertices([(0, 0), (0, 1), (1, 1)])
        assert mu_inclusion_exclusion([lower, upper]) == Fraction(1, 10)

    def test_two_square_tiling(self):
        left = corpus.square()
        right = translate(corpus.square(), (1, 0))
        value = mu_inclusion_exclusion([left, right])
        assert value == Fraction(2, 10)
        assert value == mu_limit_symbolic(corpus.box(2, 1))

    def test_single_part(self):
        assert mu_inclusion_exclusion([corpus.triangle()]) == Fraction(1, 20)

    def test_non_lattice_intersection_rejected(self):
        # the hypotenuse 2y + x = 2 crosses x = 1 at height 1/2
        wedge = from_vertices([(0, 0), (2, 0), (0, 1)])
        square = corpus.square()
        with pytest.raises(UnsupportedInputError):
            mu_inclusion_exclusion([wedge, square])

    def test_rational_intersection_vertices_rejected(self):
        # the intersection (0,0), (0,1/3), (1/2,0) is full-dimensional, so its
        # rank must be taken over Q before the lattice test can reject it
        a = from_vertices([(-1, 1), (2, -1), (-5, -5)])
        b = from_vertices([(0, 0), (5, 0), (0, 5), (5, 5)])
        with pytest.raises(UnsupportedInputError, match="non-lattice vertex"):
            mu_inclusion_exclusion([a, b])

    def test_non_convex_union_rejected(self):
        apart = translate(corpus.square(), (2, 0))
        with pytest.raises(UnsupportedInputError, match="not convex"):
            mu_inclusion_exclusion([corpus.square(), apart])

    def test_preconditions(self):
        with pytest.raises(ValueError):
            mu_inclusion_exclusion([])
        with pytest.raises(ValueError):
            mu_inclusion_exclusion([corpus.square(), corpus.segment(1)])
        with pytest.raises(NotFullDimensionalError):
            mu_inclusion_exclusion([from_vertices([(0, 0), (1, 1)])])
        with pytest.raises(ResourceLimitError):
            mu_inclusion_exclusion([corpus.square()] * 11)
