"""Ehrhart polynomials by exact interpolation, plus structural checks.

For a full-dimensional lattice polytope the lattice-point enumerator is a
degree-d polynomial with constant term 1, leading coefficient equal to the
volume, and d! times every coefficient integral. Interpolation uses the
smallest valid support (t = 0..d), by Newton's forward differences;
`polynomial._fitted` re-verifies it against fresh counts at two extra nodes,
so a silent counting or interpolation bug cannot survive, and checks its
degree and lead. `_check_shape` checks the rest: the constant term, the
integrality of d! c_i, and that the h*-vector is nonnegative (Stanley 1980).
The h*-vector of any degree-d polynomial with lead vol sums to d! vol, so
that sum needs no check of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .counting import count_points
from .errors import InternalConsistencyError
from .geometry import LatticePolytope, _require_full_dimensional
from .polynomial import RationalPolynomial, _fitted


@dataclass(frozen=True)
class EhrhartPolynomial:
    """Interpolated enumerator polynomial."""

    poly: RationalPolynomial


def ehrhart_polynomial(P: LatticePolytope) -> EhrhartPolynomial:
    """Exact degree-d Ehrhart polynomial of a full-dimensional lattice polytope."""
    _require_full_dimensional(P, "the Ehrhart polynomial")
    poly = _fitted(
        lambda t: count_points(P, t), P.ambient_dim, P.volume_d, "interpolated enumerator"
    )
    _check_shape(poly, P)
    return EhrhartPolynomial(poly)


def _check_shape(poly: RationalPolynomial, P: LatticePolytope) -> None:
    d = P.ambient_dim
    if poly.constant_term != 1:
        raise InternalConsistencyError(
            f"enumerator constant term {poly.constant_term} != 1"
        )
    scale = factorial(d)
    for k, c in enumerate(poly.coeffs):
        if (c * scale).denominator != 1:
            raise InternalConsistencyError(
                f"{d}! * coefficient of t^{k} is not an integer: {c}"
            )
    h_star = _h_star(poly, d)
    if any(h < 0 for h in h_star):
        raise InternalConsistencyError(
            f"h*-vector {[str(h) for h in h_star]} has a negative entry (Stanley 1980)"
        )


def _h_star(poly: RationalPolynomial, d: int) -> list[Fraction]:
    """h*_k = sum_{j <= k} (-1)^j C(d+1, j) L(k - j) for k = 0..d.

    These are the coefficients of the numerator of the Ehrhart series
    sum_t L(t) z^t = h*(z) / (1 - z)^(d+1).
    """
    values = [poly.evaluate(t) for t in range(d + 1)]
    return [
        sum((-1) ** j * comb(d + 1, j) * values[k - j] for j in range(k + 1))
        for k in range(d + 1)
    ]


def check_reciprocity(P: LatticePolytope, t_max: int) -> bool:
    """True iff L_P(-t) = (-1)^d * #(interior of tP) for every t in 1..t_max."""
    if t_max < 1:
        raise ValueError("t_max must be a positive integer")
    poly = ehrhart_polynomial(P).poly
    sign = (-1) ** P.ambient_dim
    for t in range(1, t_max + 1):
        if poly.evaluate(-t) != sign * count_points(P, t, interior=True):
            return False
    return True
