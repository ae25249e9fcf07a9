"""Dense polynomials with exact rational coefficients.

Coefficients are stored lowest degree first and kept canonical (no trailing
zeros), so equality is coefficient-wise equality and degree is implicit.
`_fitted` is the one fit-and-check, for L, the census moments behind H and
N, and the oracle's power-product sums: one interpolation through degree+3
samples, where a higher degree is an internal error, then a check of degree
and lead against the closed form the theorem gives. `_tabulated` gives the
checked polynomial's values at 0, 1, 2, ... from the same integer samples,
by integer additions alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import factorial, lcm
from typing import Iterable, Sequence

from .errors import InternalConsistencyError, TheoremViolationError


def _canonical(coeffs: Iterable) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial sum(coeffs[k] * t**k) with exact Fraction coefficients."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "RationalPolynomial":
        return cls(_canonical(coeffs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def evaluate(self, t) -> Fraction:
        """Exact Horner evaluation at an integer or rational point."""
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __call__(self, t) -> Fraction:
        return self.evaluate(t)

    @classmethod
    def interpolate(cls, values: Sequence) -> "RationalPolynomial":
        """The polynomial p of degree < m = len(values) with p(t) = values[t].

        Newton's forward differences: p(t) = sum_k D^k p(0) C(t, k). Each
        falling factorial t(t-1)...(t-k+1) is expanded from the one before in
        integers, the sum is kept over the common denominator q (m-1)!, where
        q clears the values' denominators, and each coefficient becomes one
        Fraction at the end.
        """
        if not values:
            return cls(())
        m = len(values)
        q = lcm(*(Fraction(v).denominator for v in values))
        weight = factorial(m - 1)  # (m-1)!/k! for the current k
        scale = q * weight
        out = [0] * m
        falling = [1]  # t(t-1)...(t-k+1), lowest degree first
        for k, head in enumerate(_differences([int(Fraction(v) * q) for v in values])):
            lead = head * weight
            if lead:
                for j, c in enumerate(falling):
                    out[j] += lead * c
            falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
            weight //= k + 1
        return cls(_canonical(Fraction(c, scale) for c in out))

    def coeff_strings(self) -> list[str]:
        """Coefficients low-to-high as decimal-free rational strings."""
        return [str(c) for c in self.coeffs]

    def pretty(self) -> str:
        """Human-readable rendering in t, highest degree first."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = "t" if k == 1 else f"t^{k}"
                body = power if mag == 1 else f"{mag} {power}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.pretty()


def _fitted(samples, degree: int, lead: Fraction, what: str) -> RationalPolynomial:
    """The polynomial through samples[0..degree+2], of the given degree and lead.

    The fit through the first degree+1 samples matches the last two iff the
    interpolant through all of them has degree <= `degree`; a higher degree
    raises InternalConsistencyError. A fit of another degree or leading
    coefficient than the closed form `lead` raises TheoremViolationError.
    """
    poly = RationalPolynomial.interpolate(samples)
    if poly.degree > degree:
        raise InternalConsistencyError(
            f"{what} through samples 0..{degree} misses the next two: the fit "
            f"through all {len(samples)} has degree {poly.degree}, not {degree}"
        )
    if poly.degree != degree or poly.leading_coefficient != lead:
        raise TheoremViolationError(
            f"{what} has degree {poly.degree} and leading coefficient "
            f"{poly.leading_coefficient}, not degree {degree} and lead {lead}"
        )
    return poly


def _differences(values: Sequence[int]) -> list[int]:
    """D^k p(0) for k = 0..deg, where p is the polynomial with p(t) = values[t].

    These head the rows of the forward-difference table of the values; the
    table stops at its first row of zeros, so the zero polynomial has none.
    """
    heads = []
    row = list(values)
    while any(row):
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return heads


def _tabulated(samples: Sequence[int], count: int) -> list[int]:
    """Values at t = 0..count-1 of the polynomial through the integer samples.

    Each D^k p(0) starts a running sum fed by the order above it, so every
    value costs deg integer additions and no Fraction (Knuth, TAOCP vol. 2,
    sec. 4.6.4). Once `_fitted` has checked the samples, the table's top two
    differences are zero and these are the fit's values.
    """
    heads = _differences(samples)
    column = repeat(heads.pop() if heads else 0)  # the constant D^deg p
    for head in reversed(heads):
        column = accumulate(column, initial=head)
    return list(islice(column, count))
