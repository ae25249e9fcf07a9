"""Horizontal lattice copies, miniature censuses, and the volume-ratio limit.

A horizontal lattice copy of P inside nP is a subset iP + a with integer
scale i >= 1 and integer shift a; it stands for the miniature (iP + a)/n of
resolution n, whose volume is (i/n)^d vol(P). The number of copies with
scale i equals the lattice-point count L_P(n - i), so the census moment
M_m(n) = sum_{i=1..n} i^m L_P(n - i) is a polynomial in n of degree m+d+1.
The census total is H = M_0, the numerator N(n) = n^d * (total miniature
volume) is vol(P) M_d, and the mean miniature volume N(n) / (n^d H(n))
converges to vol(P) / C(2d+1, d). The fit of each moment checks its lead
against the closed form, vol(P)/(d+1) for H and vol(P)^2 d!^2/(2d+1)! for N,
and the limit is their ratio. Censuses and ratio sequences cost d+3
lattice-point counts of P, and then deg integer additions per value: L_P,
M_0 and M_d are tabulated at consecutive integers from the very samples
their fits checked (`polynomial._tabulated`), and each ratio becomes one
Fraction. The pyramid route,
H(n) = L_Pyr(n - 1), is the `verify` cross-check miniatures.pyramid-identity.
Intersections come from `geometry`. Everything here is exact: the limit is
extracted from interpolated leading coefficients, not floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import NamedTuple

from .errors import ResourceLimitError, UnsupportedInputError
from .geometry import (
    LatticePolytope,
    _intersection_polytope,
    _require_full_dimensional,
    from_vertices,
)
from .ehrhart import ehrhart_polynomial
from .polynomial import RationalPolynomial, _fitted, _tabulated

MAX_UNION_PARTS = 10


@dataclass(frozen=True)
class CopyCensus:
    """Per-scale counts of horizontal lattice copies of P inside nP.

    volume_sum is the total volume of the corresponding resolution-n
    miniatures: (vol(P) / n^d) * sum_i i^d * per_scale[i].
    """

    dilate: int
    per_scale: dict[int, int]
    total: int
    volume_sum: Fraction


@dataclass(frozen=True)
class MuReport:
    """Finite-resolution ratio sequence with its exact limit.

    bound_constant is the observed constant C with
    |ratio(n) - symbolic_limit| <= C / n over the computed range.
    """

    ratios: list[tuple[int, Fraction]]
    symbolic_limit: Fraction
    bound_constant: Fraction


def copy_census(P: LatticePolytope, n: int) -> CopyCensus:
    """Census of all horizontal lattice copies of P in nP, keyed by scale.

    per_scale[i] = L_P(n - i) is tabulated from the d+3 counts the Ehrhart
    polynomial was fitted and checked through, so a census of any resolution
    costs d+3 lattice-point counts and d integer additions per scale.
    """
    _require_full_dimensional(P, "the copy census")
    if n < 1:
        raise ValueError(f"census resolution must be a positive integer, got {n}")
    d = P.ambient_dim
    L = _tabulated(ehrhart_polynomial(P).counts, n)
    per_scale = {i: L[n - i] for i in range(1, n + 1)}
    total = sum(per_scale.values())
    weighted = sum(i**d * c for i, c in per_scale.items())
    volume_sum = P.volume_d * Fraction(weighted, n**d)
    return CopyCensus(dilate=n, per_scale=per_scale, total=total, volume_sum=volume_sum)


def _moment(
    P: LatticePolytope, values: list[int], m: int
) -> tuple[list[int], RationalPolynomial]:
    """M_m(n) = sum_{i=1..n} i^m L(n-i), the m-th scale moment of the census.

    Its sums at n = 0..m+d+3, from values[t] = L_P(t), are returned with the
    fit through them, checked against its degree m+d+1 and lead
    vol(P) m! d! / (m+d+1)!. Its constant term is the empty sum M_m(0) = 0,
    which the fit reproduces.
    """
    d = P.ambient_dim
    sums = [sum(i**m * values[n - i] for i in range(1, n + 1)) for n in range(m + d + 4)]
    lead = P.volume_d * Fraction(factorial(m) * factorial(d), factorial(m + d + 1))
    return sums, _fitted(sums, m + d + 1, lead, f"census moment M_{m}")


class _Census(NamedTuple):
    """H = M_0 and N = vol(P) M_d, their limit, and the checked sums of M_0
    and M_d at n = 0, 1, ..., from which `_tabulated` reads them at any n."""

    H: RationalPolynomial
    N: RationalPolynomial
    limit: Fraction
    totals: list[int]
    weighted: list[int]


def _census_and_numerator(P: LatticePolytope) -> _Census:
    """H = M_0 is the census total, N = vol(P) M_d the numerator, and the
    limit is N.lead/H.lead, which is vol/C(2d+1, d) by algebra once the fits
    of M_0 and M_d have checked both leads against their closed forms.

    L_P(t) for t = 0..2d+2 is tabulated from the d+3 counts the Ehrhart
    polynomial was fitted through, the only counts behind H, N and the limit.
    """
    d = P.ambient_dim
    values = _tabulated(ehrhart_polynomial(P).counts, 2 * d + 3)
    totals, H = _moment(P, values, 0)
    weighted, M_d = _moment(P, values, d)
    N = RationalPolynomial.from_coeffs(P.volume_d * c for c in M_d.coeffs)
    return _Census(H, N, N.leading_coefficient / H.leading_coefficient, totals, weighted)


def copy_polynomial(P: LatticePolytope) -> RationalPolynomial:
    """The polynomial H_P with H_P(n) = census total at resolution n.

    H_P is the census moment M_0, fitted through the census totals
    sum_{t<n} L_P(t) on the one route that also gives N and the limit; it
    costs the d+3 counts of the Ehrhart polynomial of P. Its constant term
    vanishes and its leading coefficient is vol(P)/(d+1). It equals the
    Ehrhart polynomial of the pyramid over P evaluated at n - 1, which
    `verify` checks.
    """
    _require_full_dimensional(P, "the copy polynomial")
    return _census_and_numerator(P).H


def mu_ratio(P: LatticePolytope, n: int) -> Fraction:
    """Mean miniature volume at resolution n: volume_sum / total, exactly."""
    census = copy_census(P, n)
    return census.volume_sum / census.total


def numerator_polynomial(P: LatticePolytope) -> RationalPolynomial:
    """The polynomial N with N(n) = n^d * (total miniature volume at n).

    N(n) = vol(P) * sum_{i=0}^{n-1} (n-i)^d L_P(i), of degree 2d+1 with
    leading coefficient d! d! / (2d+1)! * vol(P)^2.
    """
    _require_full_dimensional(P, "the numerator polynomial")
    return _census_and_numerator(P).N


def mu_limit_symbolic(P: LatticePolytope) -> Fraction:
    """Exact limit of the mean miniature volume, from leading coefficients.

    Equals vol(P) / C(2d+1, d), as the ratio of the leads of N and H. The
    fit of each checks its lead against the closed form and raises on a
    mismatch, since it would falsify the identity this package exists to
    check.
    """
    _require_full_dimensional(P, "the symbolic limit")
    return _census_and_numerator(P).limit


def mu_report(P: LatticePolytope, n_max: int) -> MuReport:
    """Ratio sequence for n = 1..n_max plus the exact symbolic limit.

    ratio(n) = vol(P) M_d(n) / (n^d M_0(n)), where M_0 and M_d are tabulated
    in integers from the sums their fits checked, so a report costs d+3
    lattice-point counts of P whatever n_max is, then 3d+2 integer additions
    and one Fraction per n. A lower-dimensional polytope yields the all-zero
    report: every miniature has ambient volume 0.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max}")
    if not P.is_full_dimensional:
        zero = Fraction(0)
        return MuReport(
            ratios=[(n, zero) for n in range(1, n_max + 1)],
            symbolic_limit=zero,
            bound_constant=zero,
        )
    d = P.ambient_dim
    census = _census_and_numerator(P)
    totals = _tabulated(census.totals, n_max + 1)
    weighted = _tabulated(census.weighted, n_max + 1)
    v, w = P.volume_d.numerator, P.volume_d.denominator
    ratios = [
        (n, Fraction(v * weighted[n], w * n**d * totals[n])) for n in range(1, n_max + 1)
    ]
    # max |a/b - p/q| n over the ratios a/b, by integer cross-products
    p, q = census.limit.numerator, census.limit.denominator
    top, bottom = 0, 1
    for n, r in ratios:
        a, b = r.numerator, r.denominator
        gap = abs(a * q - p * b) * n
        if gap * bottom > top * b:
            top, bottom = gap, b
    bound = Fraction(top, bottom * q)
    return MuReport(ratios=ratios, symbolic_limit=census.limit, bound_constant=bound)


def mu_inclusion_exclusion(parts) -> Fraction:
    """Inclusion-exclusion value sum_k (-1)^(k-1) sum_{|I|=k} mu(intersection).

    Full-dimensional intersections contribute their symbolic limit; empty or
    lower-dimensional ones contribute 0. A single part is its own
    intersection. The caller asserts the union is
    convex; a volume cross-check turns a violated precondition into an error
    instead of a silently wrong value.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("inclusion-exclusion needs at least one part")
    if len(parts) > MAX_UNION_PARTS:
        raise ResourceLimitError(
            f"inclusion-exclusion over {len(parts)} parts exceeds the guard "
            f"of {MAX_UNION_PARTS}"
        )
    d = parts[0].ambient_dim
    for P in parts:
        if P.ambient_dim != d:
            raise ValueError("all parts must share one ambient dimension")
        _require_full_dimensional(P, "inclusion-exclusion over parts")
    total_mu = Fraction(0)
    total_volume = Fraction(0)
    for k in range(1, len(parts) + 1):
        sign = 1 if k % 2 == 1 else -1
        for subset in combinations(parts, k):
            piece = subset[0] if k == 1 else _intersection_polytope(subset, d)
            if piece is None:
                continue
            total_mu += sign * mu_limit_symbolic(piece)
            total_volume += sign * piece.volume_d
    hull = from_vertices([v for P in parts for v in P.vertices])
    if hull.volume_d != total_volume:
        raise UnsupportedInputError(
            "the union of the parts is not convex: hull volume "
            f"{hull.volume_d} != inclusion-exclusion volume {total_volume}"
        )
    return total_mu
