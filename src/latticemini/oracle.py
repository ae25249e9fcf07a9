"""Brute-force ground truth, intentionally naive and formula-free.

The enumerator searches an explicit shift box for every scale factor and
keeps a copy iff all its vertices pass the half-space membership test; it
never touches the census or polynomial machinery, so agreement between the
two paths is meaningful evidence. `sum_prod_poly` fits explicit sums with
`polynomial._fitted`, which also checks their degree and lead. Hard input
guards keep runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial

from .errors import ResourceLimitError
from .geometry import (
    LatticePolytope,
    _require_full_dimensional,
    bounding_box,
    contains,
    dilate,
)
from .polynomial import RationalPolynomial, _fitted

# hard caps so oracle runs stay at desk scale and deterministic
_MAX_RESOLUTION = {1: 12, 2: 12, 3: 6}


@dataclass(frozen=True)
class CopyWitness:
    """One horizontal lattice copy, scale * P + shift."""

    scale: int
    shift: tuple[int, ...]


def _check_guards(P: LatticePolytope, n: int) -> None:
    _require_full_dimensional(P, "the oracle")
    if n < 1:
        raise ValueError(f"resolution must be a positive integer, got {n}")
    cap = _MAX_RESOLUTION.get(P.ambient_dim)
    if cap is None:
        raise ResourceLimitError(
            f"oracle enumeration supports d <= 3, got d = {P.ambient_dim}"
        )
    if n > cap:
        raise ResourceLimitError(
            f"oracle enumeration for d = {P.ambient_dim} is capped at n <= {cap}, "
            f"got n = {n}"
        )


def enumerate_copies(P: LatticePolytope, n: int) -> list[CopyWitness]:
    """Every (scale, shift) with scale*P + shift inside nP, sorted.

    The shift box [n*min - i*max, n*max - i*min] per coordinate provably
    contains all feasible shifts; vertex containment suffices by convexity.
    """
    _check_guards(P, n)
    big = dilate(P, n)
    d = P.ambient_dim
    mins, maxs = bounding_box(P)
    witnesses = []
    for i in range(1, n + 1):
        ranges = [
            range(n * mn - i * mx, n * mx - i * mn + 1) for mn, mx in zip(mins, maxs)
        ]
        for shift in product(*ranges):
            if all(
                contains(big, tuple(i * v[j] + shift[j] for j in range(d)))
                for v in P.vertices
            ):
                witnesses.append(CopyWitness(i, shift))
    witnesses.sort(key=lambda w: (w.scale, w.shift))
    return witnesses


def average_miniature_volume(P: LatticePolytope, n: int) -> Fraction:
    """Mean volume of the resolution-n miniatures, straight off the witness list."""
    witnesses = enumerate_copies(P, n)
    total = sum((Fraction(w.scale, n) ** P.ambient_dim * P.volume_d for w in witnesses),
                Fraction(0))
    return total / len(witnesses)


def sum_prod_poly(p: int, q: int) -> RationalPolynomial:
    """The exact polynomial in n equal to sum_{i=1}^{n} i^p (n-i)^q.

    Fitted through explicit sums at n = 0..p+q+1 and checked against two
    fresh ones; degree p+q+1 with leading coefficient p! q! / (p+q+1)!.
    """
    if p < 1 or q < 1:
        raise ValueError(f"exponents must be positive integers, got p={p}, q={q}")
    if p + q > 10:
        raise ValueError(f"p + q is capped at 10, got {p + q}")

    def sample(n: int) -> int:
        return sum(i**p * (n - i) ** q for i in range(1, n + 1))

    lead = Fraction(factorial(p) * factorial(q), factorial(p + q + 1))
    return _fitted(sample, p + q + 1, lead, "power-product sum")
