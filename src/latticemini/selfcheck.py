"""Self-check suites behind the `verify` subcommand.

Each suite re-runs one family of exact identities over the built-in corpus
and reports PASS/FAIL. Kept fast enough to run on every invocation; the
pytest suite is the exhaustive version of the same checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial

from . import corpus
from .counting import count_points
from .ehrhart import check_reciprocity, ehrhart_polynomial
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


def _hull_idempotence() -> SuiteResult:
    point_sets = [
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
    for pts in point_sets:
        P = from_vertices(pts)
        again = from_vertices(P.vertices)
        if again.vertices != P.vertices:
            return SuiteResult("geometry.hull-idempotence", False, f"failed on {pts}")
    return SuiteResult(
        "geometry.hull-idempotence", True, f"{len(point_sets)} point sets"
    )


def _scaling_law() -> SuiteResult:
    for name, P in corpus.full_corpus():
        d = P.ambient_dim
        for k in range(6):
            if volume(dilate(P, k)) != P.volume_d * k**d:
                return SuiteResult("geometry.scaling-law", False, f"{name}, k={k}")
    return SuiteResult("geometry.scaling-law", True, "vol(kP) = k^d vol(P), k <= 5")


def _translation_invariance() -> SuiteResult:
    shifts = [(-3,), (7,), (2, -5), (-1, 4), (3, 0, -2)]
    for name, P in corpus.full_corpus():
        for a in shifts:
            if len(a) != P.ambient_dim:
                continue
            Q = translate(P, a)
            if Q.volume_d != P.volume_d or Q.dim != P.dim:
                return SuiteResult(
                    "geometry.translation-invariance", False, f"{name}, a={a}"
                )
    return SuiteResult("geometry.translation-invariance", True, "volume and dim")


def _pyramid_volume() -> SuiteResult:
    # pyramid() sets vol(P)/(d+1) from P's facets, so the first identity holds
    # by construction; the hull of base + apex triangulates the volume anew.
    for name, P in corpus.full_corpus():
        if not P.is_full_dimensional:
            continue
        d = P.ambient_dim
        pyr = volume(pyramid(P))
        if (d + 1) * pyr != P.volume_d:
            return SuiteResult("geometry.pyramid-volume", False, name)
        hull = from_vertices([v + (0,) for v in P.vertices] + [(0,) * d + (1,)])
        if pyr != volume(hull):
            return SuiteResult("geometry.pyramid-volume", False, f"{name} vs hull")
    return SuiteResult(
        "geometry.pyramid-volume", True,
        "(d+1) vol(Pyr P) = vol(P) = (d+1) vol(hull of base + apex)",
    )


def _count_monotonicity() -> SuiteResult:
    for name, P in _corpus_2d():
        counts = [count_points(P, t) for t in range(9)]
        if any(a > b for a, b in zip(counts, counts[1:])):
            return SuiteResult("counting.monotonicity", False, name)
    return SuiteResult("counting.monotonicity", True, "t = 0..8")


def _product_law() -> SuiteResult:
    for d in (1, 2, 3):
        P = corpus.box(*([1] * d))
        for t in range(6):
            if count_points(P, t) != (t + 1) ** d:
                return SuiteResult("counting.product-law", False, f"d={d}, t={t}")
    return SuiteResult("counting.product-law", True, "[0,1]^d gives (t+1)^d")


def _lift_vs_membership() -> SuiteResult:
    # the projection tower against a membership test of every box point
    for name, P in corpus.full_corpus():
        if not P.is_full_dimensional:
            continue
        mins, maxs = bounding_box(P)
        for t in range(1, 4):
            box = [range(t * lo, t * hi + 1) for lo, hi in zip(mins, maxs)]
            tP = dilate(P, t)
            for interior in (False, True):
                want = sum(1 for x in product(*box) if contains(tP, x, strict=interior))
                if count_points(P, t, interior=interior) != want:
                    return SuiteResult(
                        "counting.lift-vs-membership", False,
                        f"{name}, t={t}, interior={interior}",
                    )
    return SuiteResult(
        "counting.lift-vs-membership", True, "closed and interior, t = 1..3"
    )


def _ehrhart_shape() -> SuiteResult:
    for name, P in corpus.full_corpus():
        if not P.is_full_dimensional:
            continue
        poly = ehrhart_polynomial(P).poly
        d = P.ambient_dim
        if poly.constant_term != 1 or poly.leading_coefficient != P.volume_d:
            return SuiteResult("ehrhart.shape", False, name)
        if any((c * factorial(d)).denominator != 1 for c in poly.coeffs):
            return SuiteResult("ehrhart.shape", False, f"{name} denominators")
    return SuiteResult("ehrhart.shape", True, "constant 1, lead = vol, d! c_i integral")


def _reciprocity() -> SuiteResult:
    for name, P in corpus.full_corpus():
        if not P.is_full_dimensional:
            continue
        if not check_reciprocity(P, 4):
            return SuiteResult("ehrhart.reciprocity", False, name)
    return SuiteResult("ehrhart.reciprocity", True, "t <= 4 on the corpus")


def _pyramid_identity() -> SuiteResult:
    for name, P in corpus.full_corpus():
        if not P.is_full_dimensional:
            continue
        poly = copy_polynomial(P)  # internally verified against census totals
        if poly.constant_term != 0:
            return SuiteResult("miniatures.pyramid-identity", False, name)
        if poly.leading_coefficient != P.volume_d / (P.ambient_dim + 1):
            return SuiteResult("miniatures.pyramid-identity", False, name)
        scale = factorial(P.ambient_dim + 1)
        if any((c * scale).denominator != 1 for c in poly.coeffs):
            return SuiteResult("miniatures.pyramid-identity", False, name)
    return SuiteResult(
        "miniatures.pyramid-identity", True, "census polynomial shape and totals"
    )


def _main_theorem() -> SuiteResult:
    for name, P in corpus.full_corpus():
        if not P.is_full_dimensional:
            continue
        d = P.ambient_dim
        if mu_limit_symbolic(P) != P.volume_d / comb(2 * d + 1, d):
            return SuiteResult("miniatures.volume-ratio-limit", False, name)
    return SuiteResult(
        "miniatures.volume-ratio-limit", True, "limit = vol / C(2d+1, d)"
    )


def _numerator_lead() -> SuiteResult:
    for name, P in corpus.full_corpus():
        if not P.is_full_dimensional:
            continue
        d = P.ambient_dim
        lead = numerator_polynomial(P).leading_coefficient
        want = Fraction(factorial(d) ** 2, factorial(2 * d + 1)) * P.volume_d**2
        if lead != want:
            return SuiteResult("miniatures.numerator-lead", False, name)
    return SuiteResult("miniatures.numerator-lead", True, "d!d!/(2d+1)! vol^2")


def _census_monotone() -> SuiteResult:
    for name, P in _corpus_2d():
        if not P.is_full_dimensional:
            continue
        totals = [copy_census(P, n).total for n in range(1, 8)]
        if any(a >= b for a, b in zip(totals, totals[1:])):
            return SuiteResult("miniatures.census-monotone", False, name)
    return SuiteResult("miniatures.census-monotone", True, "totals strictly increase")


def _census_vs_counts() -> SuiteResult:
    # L_P(n - i) read off the Ehrhart polynomial vs direct counts past every node
    for name, P in corpus.full_corpus():
        if not P.is_full_dimensional:
            continue
        n = 2 * P.ambient_dim + 5
        per_scale = copy_census(P, n).per_scale
        if any(per_scale[i] != count_points(P, n - i) for i in range(1, n + 1)):
            return SuiteResult("miniatures.census-vs-counts", False, name)
    return SuiteResult(
        "miniatures.census-vs-counts", True, "polynomial census = direct counts, n = 2d+5"
    )


def _oracle_equivalence() -> SuiteResult:
    for name, P in corpus.full_corpus():
        if not P.is_full_dimensional:
            continue
        n = 3 if P.ambient_dim == 3 else 4
        witnesses = enumerate_copies(P, n)
        census = copy_census(P, n)
        if len(witnesses) != census.total:
            return SuiteResult("oracle.census-equivalence", False, name)
        for i in range(1, n + 1):
            if sum(1 for w in witnesses if w.scale == i) != census.per_scale[i]:
                return SuiteResult(
                    "oracle.census-equivalence", False, f"{name}, scale {i}"
                )
        if average_miniature_volume(P, n) != mu_ratio(P, n):
            return SuiteResult("oracle.volume-average", False, name)
    return SuiteResult("oracle.census-equivalence", True, "counts and averages match")


def _sum_prod() -> SuiteResult:
    for p in range(1, 4):
        for q in range(1, 4):
            poly = sum_prod_poly(p, q)  # raises on a leading-coefficient mismatch
            if poly.degree != p + q + 1:
                return SuiteResult("oracle.sum-product", False, f"p={p}, q={q}")
    return SuiteResult("oracle.sum-product", True, "lead = p!q!/(p+q+1)!, p,q <= 3")


def _inclusion_exclusion() -> SuiteResult:
    lower = from_vertices([(0, 0), (1, 0), (1, 1)])
    upper = from_vertices([(0, 0), (0, 1), (1, 1)])
    if mu_inclusion_exclusion([lower, upper]) != Fraction(1, 10):
        return SuiteResult("miniatures.inclusion-exclusion", False, "diagonal split")
    left = corpus.square()
    right = translate(corpus.square(), (1, 0))
    if mu_inclusion_exclusion([left, right]) != Fraction(2, 10):
        return SuiteResult("miniatures.inclusion-exclusion", False, "two-square tiling")
    # [0,3]x[0,1]x[0,1] in three unit slabs under (x,y,z) -> (x+y, y, z): the
    # sheared slabs have vertices where more than d half-spaces are tight
    slabs = [
        from_vertices([(x + i + y, y, z) for x, y, z in product((0, 1), repeat=3)])
        for i in range(3)
    ]
    if mu_inclusion_exclusion(slabs) != Fraction(3, 35):
        return SuiteResult("miniatures.inclusion-exclusion", False, "sheared 3-D slabs")
    return SuiteResult("miniatures.inclusion-exclusion", True, "all three tilings exact")


_SUITES = [
    _hull_idempotence,
    _scaling_law,
    _translation_invariance,
    _pyramid_volume,
    _count_monotonicity,
    _product_law,
    _lift_vs_membership,
    _ehrhart_shape,
    _reciprocity,
    _pyramid_identity,
    _main_theorem,
    _numerator_lead,
    _census_monotone,
    _census_vs_counts,
    _oracle_equivalence,
    _sum_prod,
    _inclusion_exclusion,
]


def run_all() -> list[SuiteResult]:
    return [suite() for suite in _SUITES]
