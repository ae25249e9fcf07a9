"""Dense polynomials with exact rational coefficients.

Coefficients are stored lowest degree first and kept canonical (no trailing
zeros), so equality is coefficient-wise equality and degree is implicit.
`_fitted` is the one fit-and-check, for L, the census moments behind H and
N, and the oracle's power-product sums: it verifies each fit at two fresh
samples, then checks its degree and leading coefficient against the closed
form the theorem gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
        diffs = [int(Fraction(v) * q) for v in values]
        weight = factorial(m - 1)  # (m-1)!/k! for the current k
        scale = q * weight
        out = [0] * m
        falling = [1]  # t(t-1)...(t-k+1), lowest degree first
        for k in range(m):
            lead = diffs[0] * weight
            if lead:
                for j, c in enumerate(falling):
                    out[j] += lead * c
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
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


def _fitted(sample, degree: int, lead: Fraction, what: str) -> RationalPolynomial:
    """The polynomial through sample(0..degree), of the given degree and lead.

    The fit is checked against sample at degree+1 and degree+2; a mismatch
    raises InternalConsistencyError. A fit of another degree or leading
    coefficient than the closed form `lead` raises TheoremViolationError.
    """
    poly = RationalPolynomial.interpolate([sample(k) for k in range(degree + 1)])
    for k in (degree + 1, degree + 2):
        expected = sample(k)
        if poly.evaluate(k) != expected:
            raise InternalConsistencyError(
                f"{what} disagrees with a fresh sample at {k}: "
                f"{poly.evaluate(k)} != {expected}"
            )
    if poly.degree != degree or poly.leading_coefficient != lead:
        raise TheoremViolationError(
            f"{what} has degree {poly.degree} and leading coefficient "
            f"{poly.leading_coefficient}, not degree {degree} and lead {lead}"
        )
    return poly
