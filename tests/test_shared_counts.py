"""The shared count table of mu_report and the facet-built pyramid, against the
routes they replaced: per-n censuses that count their own dilates, and the
hull of the base plus the apex."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from latticemini import (
    corpus,
    from_vertices,
    mu_limit_symbolic,
    mu_ratio,
    mu_report,
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


def hull_pyramid(P):
    d = P.ambient_dim
    return from_vertices([v + (0,) for v in P.vertices] + [(0,) * d + (1,)])


@pytest.mark.parametrize("name, P, n_max", CASES, ids=[c[0] for c in CASES])
def test_mu_report_matches_per_n_route(name, P, n_max):
    report = mu_report(P, n_max)
    assert report.ratios == [(n, mu_ratio(P, n)) for n in range(1, n_max + 1)]
    assert report.symbolic_limit == mu_limit_symbolic(P)


@pytest.mark.parametrize("name, P, n_max", CASES, ids=[c[0] for c in CASES])
def test_pyramid_matches_hull(name, P, n_max):
    built, hulled = pyramid(P), hull_pyramid(P)
    assert built.ambient_dim == hulled.ambient_dim
    assert built.vertices == hulled.vertices
    assert built.halfspaces == hulled.halfspaces
    assert built.dim == hulled.dim
    assert built.volume_d == hulled.volume_d


def test_lower_dimensional_pyramid_uses_hull():
    P = from_vertices([(0, 0), (2, 2)])
    assert pyramid(P) == hull_pyramid(P)


def _point_sets(d):
    return st.lists(
        st.tuples(*([st.integers(min_value=-3, max_value=3)] * d)),
        min_size=d + 1,
        max_size=d + 3,
    )


@given(pts=st.one_of(*(_point_sets(d) for d in (1, 2, 3, 4))))
@settings(max_examples=40, deadline=None)
def test_pyramid_matches_hull_property(pts):
    P = from_vertices(pts)
    assume(P.is_full_dimensional)
    assert pyramid(P) == hull_pyramid(P)


def test_mu_report_count_budget(monkeypatch):
    calls = []
    real = miniatures.count_points

    def counted(P, t, interior=False):
        calls.append((P.vertices, t, interior))
        return real(P, t, interior)

    monkeypatch.setattr(miniatures, "count_points", counted)
    monkeypatch.setattr(ehrhart, "count_points", counted)
    mu_report(corpus.pentagon(), 40)
    assert len(calls) <= 50
    assert len(set(calls)) == len(calls)
