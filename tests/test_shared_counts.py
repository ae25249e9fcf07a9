"""Censuses and ratio sequences read off the Ehrhart polynomial, and the
pyramid hulled from its base and apex, against the routes they replaced:
per-n censuses, box-scan counts of every dilate, and the pyramid built from
P's facets."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import box_scan_count, facet_pyramid
from latticemini import (
    LatticePolytope,
    copy_census,
    copy_polynomial,
    corpus,
    from_vertices,
    mu_limit_symbolic,
    mu_ratio,
    mu_report,
    numerator_polynomial,
    pyramid,
)
from latticemini import ehrhart, miniatures

# (name, polytope, n_max): every full-dimensional corpus entry, a d = 4 box
# and the d = 4 and d = 5 simplices.
CASES = [
    (name, P, 12 if P.ambient_dim <= 2 else 6)
    for name, P in corpus.full_corpus()
    if P.is_full_dimensional
] + [
    ("box1111", corpus.box(1, 1, 1, 1), 4),
    ("simplex4", corpus.simplex(4), 5),
    ("simplex5", corpus.simplex(5), 4),
]


@pytest.mark.parametrize("name, P, n_max", CASES, ids=[c[0] for c in CASES])
def test_mu_report_matches_per_n_route(name, P, n_max):
    report = mu_report(P, n_max)
    assert report.ratios == [(n, mu_ratio(P, n)) for n in range(1, n_max + 1)]
    assert report.symbolic_limit == mu_limit_symbolic(P)


@pytest.mark.parametrize("name, P, n_max", CASES, ids=[c[0] for c in CASES])
def test_pyramid_matches_hull(name, P, n_max):
    built, hulled = facet_pyramid(P), pyramid(P)
    assert built.ambient_dim == hulled.ambient_dim
    assert built.vertices == hulled.vertices
    assert built.halfspaces == hulled.halfspaces
    assert built.dim == hulled.dim
    assert built.volume_d == hulled.volume_d


def test_lower_dimensional_pyramid_uses_hull():
    # the triangle (0,0,0), (2,2,0), (0,0,1) in R^3: no facets, volume 0
    P = from_vertices([(0, 0), (2, 2)])
    assert pyramid(P) == LatticePolytope(
        3, ((0, 0, 0), (0, 0, 1), (2, 2, 0)), (), 2, Fraction(0)
    )


def _point_sets(d, radius=3):
    return st.lists(
        st.tuples(*([st.integers(min_value=-radius, max_value=radius)] * d)),
        min_size=d + 1,
        max_size=d + 3,
    )


@given(pts=st.one_of(*(_point_sets(d) for d in (1, 2, 3, 4))))
@settings(max_examples=40, deadline=None)
def test_pyramid_matches_hull_property(pts):
    P = from_vertices(pts)
    assume(P.is_full_dimensional)
    assert pyramid(P) == facet_pyramid(P)


@pytest.fixture
def count_calls(monkeypatch):
    # miniatures counts nothing itself: every count goes through ehrhart
    calls = []
    real = ehrhart.count_points

    def counted(P, t, interior=False):
        calls.append((P.vertices, t, interior))
        return real(P, t, interior)

    monkeypatch.setattr(ehrhart, "count_points", counted)
    return calls


def test_mu_report_count_budget(count_calls):
    mu_report(corpus.pentagon(), 40)
    assert len(count_calls) <= 50
    assert len(set(count_calls)) == len(count_calls)


def test_mu_report_counts_do_not_grow_with_n_max(count_calls):
    mu_report(corpus.pentagon(), 40)
    at_40 = len(count_calls)
    count_calls.clear()
    mu_report(corpus.pentagon(), 400)
    # d+3 counts of P for d = 2, and none of the pyramid over P
    assert at_40 == len(count_calls) == 5


def test_copy_census_counts_do_not_grow_with_n(count_calls):
    copy_census(corpus.reeve(5), 60)
    assert len(count_calls) == 6  # d+3 for d = 3


def test_numerator_counts_no_pyramid(count_calls):
    P = corpus.box(3, 2, 2)
    for route in (numerator_polynomial, copy_polynomial, mu_limit_symbolic,
                  lambda P: mu_report(P, 30)):
        count_calls.clear()
        route(P)
        assert len(count_calls) == 6  # d+3 counts of P, none in d+1 dimensions
        assert all(len(vertices[0]) == 3 for vertices, _, _ in count_calls)


# -- the polynomial route against the box scan, past every interpolation node --

# the 4-cube under the unimodular map x -> (x1 + x2, x2 + x3, x3 - x4, x4)
SHEARED = (
    "sheared-box1111",
    from_vertices(
        [(a + b, b + c, c - e, e) for a, b, c, e in corpus.box(1, 1, 1, 1).vertices]
    ),
)
DIFF_CASES = [(name, P) for name, P, _ in CASES] + [SHEARED]


def assert_polynomial_route_matches_box_scan(P):
    """Census and ratios at n = 2d+5, past every interpolation node, and the
    census moments M_0..M_d at every n <= 2d+5, against a box scan of every
    dilate."""
    d = P.ambient_dim
    n = 2 * d + 5
    counts = [box_scan_count(P, t) for t in range(n)]
    assert copy_census(P, n).per_scale == {i: counts[n - i] for i in range(1, n + 1)}
    ratios = []
    for m in range(1, n + 1):
        per_scale = [(i, counts[m - i]) for i in range(1, m + 1)]
        weighted = sum(i**d * c for i, c in per_scale)
        total = sum(c for _, c in per_scale)
        ratios.append((m, P.volume_d * Fraction(weighted, m**d) / total))
    assert mu_report(P, n).ratios == ratios
    L = ehrhart.ehrhart_polynomial(P).poly
    values = [int(L(t)) for t in range(2 * d + 3)]
    for k in range(d + 1):
        moment = miniatures._moment(P, values, k)
        assert [moment(m) for m in range(n + 1)] == [
            sum(i**k * counts[m - i] for i in range(1, m + 1)) for m in range(n + 1)
        ], k


@pytest.mark.parametrize("name, P", DIFF_CASES, ids=[c[0] for c in DIFF_CASES])
def test_polynomial_route_matches_box_scan(name, P):
    assert_polynomial_route_matches_box_scan(P)


@given(pts=st.one_of(*(_point_sets(d, 2) for d in (1, 2, 3))))
@settings(max_examples=25, deadline=None)
def test_polynomial_route_matches_box_scan_property(pts):
    P = from_vertices(pts)
    assume(P.is_full_dimensional)
    assert_polynomial_route_matches_box_scan(P)
