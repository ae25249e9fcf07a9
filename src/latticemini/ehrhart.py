"""Ehrhart polynomials by exact interpolation, plus structural checks.

For a full-dimensional lattice polytope the lattice-point enumerator is a
degree-d polynomial with constant term 1, leading coefficient equal to the
volume, and d! times every coefficient integral. `polynomial._fitted`
interpolates once through the counts at t = 0..d+2, by Newton's forward
differences, and checks the degree and lead; `_check_shape` reads L(0) = 1
and a nonnegative h*-vector (Stanley 1980) off the counts at t = 0..d. The
rest needs no check of its own: a fit through integer counts at t = 0..d
has integer differences, so d! c_i is integral, and the h*-vector of any
degree-d polynomial with lead vol sums to d! vol.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .counting import count_points
from .errors import InternalConsistencyError
from .geometry import LatticePolytope, _require_full_dimensional
from .polynomial import RationalPolynomial, _fitted


@dataclass(frozen=True)
class EhrhartPolynomial:
    """Interpolated enumerator polynomial and the counts L(0..d+2) it was fitted
    through, from which `polynomial._tabulated` reads L at any run of t >= 0."""

    poly: RationalPolynomial
    counts: tuple[int, ...]


def ehrhart_polynomial(P: LatticePolytope) -> EhrhartPolynomial:
    """Exact degree-d Ehrhart polynomial of a full-dimensional lattice polytope."""
    _require_full_dimensional(P, "the Ehrhart polynomial")
    d = P.ambient_dim
    counts = [count_points(P, t) for t in range(d + 3)]
    poly = _fitted(counts, d, P.volume_d, "interpolated enumerator")
    _check_shape(counts[: d + 1])
    return EhrhartPolynomial(poly, tuple(counts))


def _check_shape(values: list[int]) -> None:
    if values[0] != 1:
        raise InternalConsistencyError(f"enumerator constant term {values[0]} != 1")
    h_star = _h_star(values)
    if any(h < 0 for h in h_star):
        raise InternalConsistencyError(
            f"h*-vector {h_star} has a negative entry (Stanley 1980)"
        )


def _h_star(values: list[int]) -> list[int]:
    """h*_k = sum_{j <= k} (-1)^j C(d+1, j) L(k - j) for k = 0..d = len(values)-1.

    These are the coefficients of the numerator of the Ehrhart series
    sum_t L(t) z^t = h*(z) / (1 - z)^(d+1).
    """
    d = len(values) - 1
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
