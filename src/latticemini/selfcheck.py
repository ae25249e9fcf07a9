"""Self-check suites behind the `verify` subcommand.

Each suite re-runs one family of exact identities over the built-in corpus.
`_SUITES` holds one (name, pass detail, check) row per suite. A check
returns None when every case holds, or a label naming the first case that
fails, and `run_all` reports that label under the row's name; a check that
raises a violated identity is reported there with its message. An identity
that a route already checks as it computes (the shape of the Ehrhart
polynomial, the leads of H and N, the oracle's power-product sums) is not
restated here: its row runs that route over its cases, and the route's raise
is the row's FAIL line. Every other row compares two independent routes.
Kept fast enough to run on every invocation; the pytest suite is the
exhaustive version of the same checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import corpus
from .counting import count_points
from .ehrhart import check_reciprocity, ehrhart_polynomial
from .errors import InternalConsistencyError, TheoremViolationError
from .geometry import (
    bounding_box,
    contains,
    dilate,
    from_vertices,
    pyramid,
    translate,
    volume,
)
from .miniatures import (
    copy_census,
    copy_polynomial,
    mu_inclusion_exclusion,
    mu_limit_symbolic,
    mu_ratio,
    numerator_polynomial,
)
from .oracle import average_miniature_volume, enumerate_copies, sum_prod_poly


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _corpus_2d():
    return [(name, P) for name, P in corpus.full_corpus() if P.ambient_dim <= 2]


_HULL_POINT_SETS = [
    [(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)],
    [(0,), (3,), (1,), (2,)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    [(0, 0), (4, 0), (0, 4), (4, 4), (2, 2)],
    # d = 4: six vertices and four redundant points on the boundary
    [(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
     (1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)],
    # a lattice hexagon plus an interior point, carried into R^4 by (x, y)
    # -> (x, y, x + y, 2x - y + 1): its hull is charted by a projection
    [(x, y, x + y, 2 * x - y + 1)
     for x, y in [(0, 0), (2, 0), (3, 1), (3, 3), (1, 3), (0, 2), (1, 1)]],
]


def _hull_idempotence():
    for pts in _HULL_POINT_SETS:
        P = from_vertices(pts)
        if from_vertices(P.vertices).vertices != P.vertices:
            return f"failed on {pts}"


def _scaling_law():
    # dilate scales P's vertices, half-spaces and volume by formula; the hull
    # of the scaled vertices is the independent route
    for name, P in corpus.full_corpus():
        for k in range(6):
            Q = dilate(P, k)
            if from_vertices(Q.vertices) != Q:
                return f"{name}, k={k}"


def _translation_invariance():
    # as for dilate: translate's formula against the hull of its vertices
    shifts = [(-3,), (7,), (2, -5), (-1, 4), (3, 0, -2)]
    for name, P in corpus.full_corpus():
        for a in shifts:
            if len(a) != P.ambient_dim:
                continue
            Q = translate(P, a)
            if from_vertices(Q.vertices) != Q:
                return f"{name}, a={a}"


def _pyramid_volume():
    # pyramid() hulls base + apex, so its volume is triangulated anew in d+1
    # dimensions and checked against P's own
    for name, P in corpus.full_corpus():
        if (P.ambient_dim + 1) * volume(pyramid(P)) != P.volume_d:
            return name


def _count_monotonicity():
    for name, P in _corpus_2d():
        counts = [count_points(P, t) for t in range(9)]
        if any(a > b for a, b in zip(counts, counts[1:])):
            return name


def _product_law():
    for d in (1, 2, 3):
        P = corpus.box(*([1] * d))
        for t in range(6):
            if count_points(P, t) != (t + 1) ** d:
                return f"d={d}, t={t}"


def _lift_vs_membership():
    # the projection tower against a membership test of every box point
    for name, P in corpus.full_corpus():
        mins, maxs = bounding_box(P)
        for t in range(1, 4):
            box = [range(t * lo, t * hi + 1) for lo, hi in zip(mins, maxs)]
            tP = dilate(P, t)
            for interior in (False, True):
                want = sum(1 for x in product(*box) if contains(tP, x, strict=interior))
                if count_points(P, t, interior=interior) != want:
                    return f"{name}, t={t}, interior={interior}"


def _on_corpus(route):
    # route checks its own identities and raises on a violated one
    for _, P in corpus.full_corpus():
        route(P)


def _reciprocity():
    for name, P in corpus.full_corpus():
        if not check_reciprocity(P, 4):
            return name


def _pyramid_identity():
    # H is summed from L, and the pyramid's counts are the independent route:
    # both fits have degree d+1, and two such polynomials that agree at d+2
    # points are equal.
    for name, P in corpus.full_corpus():
        H = copy_polynomial(P)
        pyr = ehrhart_polynomial(pyramid(P)).poly
        if any(H(n) != pyr(n - 1) for n in range(1, P.ambient_dim + 3)):
            return name


def _census_monotone():
    for name, P in _corpus_2d():
        totals = [copy_census(P, n).total for n in range(1, 8)]
        if any(a >= b for a, b in zip(totals, totals[1:])):
            return name


def _census_vs_counts():
    # L_P(n - i) read off the Ehrhart polynomial vs direct counts past every node
    for name, P in corpus.full_corpus():
        n = 2 * P.ambient_dim + 5
        per_scale = copy_census(P, n).per_scale
        if any(per_scale[i] != count_points(P, n - i) for i in range(1, n + 1)):
            return name


def _census_equivalence():
    for name, P in corpus.full_corpus():
        n = 3 if P.ambient_dim == 3 else 4
        witnesses = enumerate_copies(P, n)
        census = copy_census(P, n)
        if len(witnesses) != census.total:
            return name
        for i in range(1, n + 1):
            if sum(1 for w in witnesses if w.scale == i) != census.per_scale[i]:
                return f"{name}, scale {i}"
        if average_miniature_volume(P, n) != mu_ratio(P, n):
            return f"{name}, volume average"


def _sum_product():
    # sum_prod_poly raises on a degree or leading-coefficient mismatch
    for p in range(1, 4):
        for q in range(1, 4):
            sum_prod_poly(p, q)


def _inclusion_exclusion():
    # [0,3]x[0,1]x[0,1] in three unit slabs under (x,y,z) -> (x+y, y, z): the
    # sheared slabs have vertices where more than d half-spaces are tight
    slabs = [
        from_vertices([(x + i + y, y, z) for x, y, z in product((0, 1), repeat=3)])
        for i in range(3)
    ]
    tilings = [
        ("diagonal split", [from_vertices([(0, 0), (1, 0), (1, 1)]),
                            from_vertices([(0, 0), (0, 1), (1, 1)])], Fraction(1, 10)),
        ("two-square tiling", [corpus.square(), translate(corpus.square(), (1, 0))],
         Fraction(2, 10)),
        ("sheared 3-D slabs", slabs, Fraction(3, 35)),
    ]
    for label, parts, want in tilings:
        if mu_inclusion_exclusion(parts) != want:
            return label


_SUITES = [
    ("geometry.hull-idempotence", f"{len(_HULL_POINT_SETS)} point sets",
     _hull_idempotence),
    ("geometry.scaling-law", "vol(kP) = k^d vol(P), k <= 5", _scaling_law),
    ("geometry.translation-invariance", "volume and dim", _translation_invariance),
    ("geometry.pyramid-volume",
     "(d+1) vol(Pyr P) = vol(P)", _pyramid_volume),
    ("counting.monotonicity", "t = 0..8", _count_monotonicity),
    ("counting.product-law", "[0,1]^d gives (t+1)^d", _product_law),
    ("counting.lift-vs-membership", "closed and interior, t = 1..3",
     _lift_vs_membership),
    ("ehrhart.shape", "constant 1, lead = vol, d! c_i integral",
     lambda: _on_corpus(ehrhart_polynomial)),
    ("ehrhart.reciprocity", "t <= 4 on the corpus", _reciprocity),
    ("miniatures.pyramid-identity", "census polynomial shape and totals",
     _pyramid_identity),
    ("miniatures.volume-ratio-limit", "limit = vol / C(2d+1, d)",
     lambda: _on_corpus(mu_limit_symbolic)),
    ("miniatures.numerator-lead", "d!d!/(2d+1)! vol^2",
     lambda: _on_corpus(numerator_polynomial)),
    ("miniatures.census-monotone", "totals strictly increase", _census_monotone),
    ("miniatures.census-vs-counts", "polynomial census = direct counts, n = 2d+5",
     _census_vs_counts),
    ("oracle.census-equivalence", "counts and averages match", _census_equivalence),
    ("oracle.sum-product", "lead = p!q!/(p+q+1)!, p,q <= 3", _sum_product),
    ("miniatures.inclusion-exclusion", "all three tilings exact", _inclusion_exclusion),
]


def run_all() -> list[SuiteResult]:
    results = []
    for name, detail, check in _SUITES:
        try:
            failure = check()
        except (TheoremViolationError, InternalConsistencyError) as exc:
            failure = str(exc)
        results.append(SuiteResult(name, failure is None, failure or detail))
    return results
