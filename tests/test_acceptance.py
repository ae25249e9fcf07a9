"""Acceptance suite: one test per criterion, exact rational comparisons.

Every comparison below is exact (tolerance zero). Each test prints a single
PASS line on success; a failure surfaces as an ordinary pytest failure.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

from fractions import Fraction
from math import comb, factorial

from conftest import shift_argument
from latticemini import (
    check_reciprocity,
    copy_census,
    copy_polynomial,
    count_points,
    ehrhart_polynomial,
    enumerate_copies,
    from_vertices,
    average_miniature_volume,
    mu_inclusion_exclusion,
    mu_limit_symbolic,
    mu_ratio,
    numerator_polynomial,
    pyramid,
    translate,
    volume,
)
from latticemini import corpus
from latticemini.oracle import sum_prod_poly


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_criterion_01_triangular_pyramidal_numbers():
    T = corpus.triangle()
    for t in range(1, 11):
        assert copy_census(T, t).total == t * (t + 1) * (t + 2) // 6
    assert copy_polynomial(T).coeffs == (
        0, Fraction(1, 3), Fraction(1, 2), Fraction(1, 6),
    )
    report(1, "triangle census totals are the triangular pyramidal numbers, "
              "copy polynomial is t^3/6 + t^2/2 + t/3 exactly")


def test_criterion_02_square_pyramidal_numbers():
    S = corpus.square()
    for t in range(1, 11):
        assert copy_census(S, t).total == t * (t + 1) * (2 * t + 1) // 6
    assert copy_census(S, 4).total == 30
    report(2, "unit-square census totals are the square pyramidal numbers; "
              "total at resolution 4 is 30")


def test_criterion_03_pyramid_identity(full_dim_corpus):
    for name, P in full_dim_corpus:
        poly = copy_polynomial(P)
        shifted = shift_argument(ehrhart_polynomial(pyramid(P)).poly, -1)
        assert poly == shifted, name
        assert poly.constant_term == 0, name
        for t in range(1, P.ambient_dim + 4):
            assert poly.evaluate(t) == copy_census(P, t).total, (name, t)
    report(3, "copy polynomial = pyramid enumerator shifted by one, "
              "coefficient-exact, constant term 0, on the whole corpus")


def test_criterion_04_main_theorem_exact():
    expected = [
        (corpus.segment(1), Fraction(1, 3)),
        (corpus.square(), Fraction(1, 10)),
        (corpus.triangle(), Fraction(1, 20)),
        (corpus.cube3(), Fraction(1, 35)),
        (corpus.box(2, 1), Fraction(2, 10)),
    ]
    for P, value in expected:
        assert mu_limit_symbolic(P) == value
        d = P.ambient_dim
        assert value == P.volume_d / comb(2 * d + 1, d)
    report(4, "symbolic limit equals vol/C(2d+1,d): 1/3, 1/10, 1/20, 1/35, 2/10")


def test_criterion_05_numerator_asymptotics(full_dim_corpus):
    for name, P in full_dim_corpus:
        d = P.ambient_dim
        lead = numerator_polynomial(P).leading_coefficient
        assert lead == Fraction(factorial(d) ** 2, factorial(2 * d + 1)) * P.volume_d**2, name
    report(5, "numerator polynomial lead = d!d!/(2d+1)! vol^2 exactly on the corpus")


def test_criterion_06_convergence_at_desk_scale():
    S = corpus.square()
    target = Fraction(1, 10)
    for n in range(10, 61):
        deviation = abs(mu_ratio(S, n) - target)
        assert deviation < Fraction(1, 2 * n), (n, deviation)
    report(6, "unit square: |ratio(n) - 1/10| < 1/(2n) for all 10 <= n <= 60")


def test_criterion_07_oracle_equivalence(full_dim_corpus):
    for name, P in full_dim_corpus:
        n_cap = 4 if P.ambient_dim == 3 else 6
        for n in range(1, n_cap + 1):
            witnesses = enumerate_copies(P, n)
            census = copy_census(P, n)
            assert len(witnesses) == census.total, (name, n)
            for i in range(1, n + 1):
                hits = sum(1 for w in witnesses if w.scale == i)
                assert hits == census.per_scale[i] == count_points(P, n - i), (name, n, i)
            assert average_miniature_volume(P, n) == mu_ratio(P, n), (name, n)
    report(7, "oracle enumeration matches the formula path exactly, "
              "including per-scale slices, n <= 6 (n <= 4 in 3D)")


def test_criterion_08_ehrhart_shape(full_dim_corpus):
    for name, P in full_dim_corpus:
        poly = ehrhart_polynomial(P).poly
        d = P.ambient_dim
        assert poly.constant_term == 1, name
        assert poly.leading_coefficient == volume(P), name
        for c in poly.coeffs:
            assert (c * factorial(d)).denominator == 1, (name, c)
        sign = (-1) ** d
        for t in range(1, 5):
            assert poly.evaluate(-t) == sign * count_points(P, t, interior=True), (name, t)
        assert check_reciprocity(P, 4), name
    report(8, "constant term 1, lead = triangulation volume, d! c_i integral, "
              "reciprocity for t <= 4, on the whole corpus")


def test_criterion_09_sum_product_lemma():
    for p in range(1, 5):
        for q in range(1, 5):
            poly = sum_prod_poly(p, q)
            assert poly.leading_coefficient == Fraction(
                factorial(p) * factorial(q), factorial(p + q + 1)
            )
            for n in range(11):
                low = sum(i**p * (n - i) ** q for i in range(n))
                high = sum(i**p * (n - i) ** q for i in range(1, n + 1))
                assert low == high == poly.evaluate(n), (p, q, n)
    report(9, "power-product sums: lead = p!q!/(p+q+1)! and both index forms "
              "agree, 1 <= p,q <= 4")


def test_criterion_10_inclusion_exclusion():
    lower = from_vertices([(0, 0), (1, 0), (1, 1)])
    upper = from_vertices([(0, 0), (0, 1), (1, 1)])
    assert mu_inclusion_exclusion([lower, upper]) == Fraction(1, 10)
    assert mu_inclusion_exclusion([lower, upper]) == mu_limit_symbolic(corpus.square())

    left = corpus.square()
    right = translate(corpus.square(), (1, 0))
    assert mu_inclusion_exclusion([left, right]) == Fraction(2, 10)
    assert mu_inclusion_exclusion([left, right]) == mu_limit_symbolic(corpus.box(2, 1))
    report(10, "diagonal split of the square and the 2x1 tiling satisfy "
               "inclusion-exclusion exactly, lower-dimensional pieces contribute 0")
