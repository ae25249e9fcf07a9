"""RationalPolynomial: canonical form, exact evaluation, interpolation."""

from fractions import Fraction
from math import comb, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import shift_argument
from latticemini import InternalConsistencyError, RationalPolynomial, TheoremViolationError
from latticemini.polynomial import _fitted, _tabulated


def test_trailing_zeros_stripped():
    p = RationalPolynomial.from_coeffs([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1


def test_zero_polynomial():
    z = RationalPolynomial.from_coeffs([0, 0])
    assert z.coeffs == ()
    assert z.degree == -1
    assert z.leading_coefficient == 0
    assert z.constant_term == 0
    assert z.evaluate(17) == 0


def test_equality_is_coefficient_wise():
    a = RationalPolynomial.from_coeffs([Fraction(1, 2), 1])
    b = RationalPolynomial.from_coeffs([Fraction(2, 4), Fraction(3, 3)])
    assert a == b


def test_exact_evaluation_at_rationals():
    p = RationalPolynomial.from_coeffs([1, Fraction(3, 2), Fraction(1, 2)])
    assert p.evaluate(Fraction(1, 3)) == 1 + Fraction(1, 2) + Fraction(1, 18)
    assert p.evaluate(-1) == 0


def test_shift_argument():
    p = RationalPolynomial.from_coeffs([0, 0, 1])  # t^2
    shifted = shift_argument(p, -1)  # (t-1)^2
    assert shifted.coeffs == (1, -2, 1)
    for t in range(-3, 4):
        assert shifted.evaluate(t) == p.evaluate(t - 1)


def test_lagrange_recovers_polynomial():
    p = RationalPolynomial.from_coeffs([Fraction(1, 6), -2, 0, Fraction(3, 4)])
    rebuilt = RationalPolynomial.interpolate([p.evaluate(n) for n in range(4)])
    assert rebuilt == p


fractions = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@given(st.lists(fractions, min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_interpolate_recovers_fraction_coefficients(coeffs):
    # values at t = 0..deg, as Fractions, determine a degree-deg polynomial
    p = RationalPolynomial.from_coeffs(coeffs)
    values = [p.evaluate(t) for t in range(len(coeffs))]
    assert RationalPolynomial.interpolate(values) == p


@given(st.lists(fractions, min_size=1, max_size=12), st.integers(1, 10**6))
@settings(max_examples=60, deadline=None)
def test_interpolate_recovers_from_integer_values(coeffs, scale):
    # p scaled by the common denominator of its values takes integers at 0..deg
    p = RationalPolynomial.from_coeffs(coeffs)
    values = [p.evaluate(t) for t in range(len(coeffs))]
    q = lcm(*(v.denominator for v in values)) * scale
    ints = [int(v * q) for v in values]
    rebuilt = RationalPolynomial.interpolate(ints)
    assert rebuilt == RationalPolynomial.from_coeffs(c * q for c in p.coeffs)


def test_interpolate_nothing_is_zero():
    assert RationalPolynomial.interpolate([]) == RationalPolynomial(())


def test_coeff_strings_decimal_free():
    p = RationalPolynomial.from_coeffs([1, Fraction(3, 2), Fraction(1, 2)])
    assert p.coeff_strings() == ["1", "3/2", "1/2"]


def test_pretty_rendering():
    p = RationalPolynomial.from_coeffs([0, Fraction(1, 3), Fraction(-1, 2), 1])
    assert p.pretty() == "t^3 - 1/2 t^2 + 1/3 t"
    assert RationalPolynomial.from_coeffs([5]).pretty() == "5"
    assert RationalPolynomial(()).pretty() == "0"


def test_readme_quick_start(capsys):
    # the README's library example runs as written and prints what it says
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library quick start")[1].split("```python\n")[1]
    exec(block.split("```")[0], {})
    assert capsys.readouterr().out == "1/2 t^2 + 3/2 t + 1\n20\n1/20\n"


# -- the fit-and-check: fresh samples first, then degree and lead --


@pytest.mark.parametrize(
    "sample, lead, error",
    [
        # n(n+1)/2 through n = 2, off by one at the first fresh node
        (lambda n: n * (n + 1) // 2 + (n == 3), Fraction(1, 2), InternalConsistencyError),
        (lambda n: n * (n + 1) // 2, Fraction(1, 3), TheoremViolationError),
        # degree 1 with lead 1/2: the lead matches, the degree does not
        (lambda n: Fraction(n, 2), Fraction(1, 2), TheoremViolationError),
    ],
    ids=["fresh-sample", "wrong-lead", "wrong-degree"],
)
def test_fitted_failure_names_what(sample, lead, error):
    with pytest.raises(error, match="triangular"):
        _fitted([sample(n) for n in range(5)], 2, lead, "triangular")


# -- integer tabulation from the samples a fit checked --


@given(st.lists(st.integers(-10**6, 10**6), max_size=9), st.integers(0, 10))
@example(weights=[0, 0, 0, 0], shorter=2)
@settings(max_examples=80, deadline=None)
def test_tabulated_matches_horner(weights, shorter):
    # p(t) = sum_k w_k C(t, k) is integer-valued of degree <= len(weights) - 1,
    # and zero when every w_k is; the samples are p at 0..deg+2, as `_fitted`
    # takes them
    m = len(weights) + 2
    samples = [sum(w * comb(t, k) for k, w in enumerate(weights)) for t in range(m)]
    p = RationalPolynomial.interpolate(samples)
    for count in (min(shorter, m - 1), m, m + 300):
        assert _tabulated(samples, count) == [p.evaluate(t) for t in range(count)]
