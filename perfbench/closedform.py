"""Lattice polytopes with answers known in closed form, built without the library.

Every polytope the benchmark sends is U(F1 x ... x Fk) + s: a product of
factors whose Ehrhart polynomials are known, mapped by a random unimodular
matrix U and shifted by an integer vector s. A unimodular map with an integer
shift is a bijection of Z^d onto itself, so it keeps every lattice-point
count, closed and interior. The counts of a product are the products of the
factors' counts, and the interior of a product is the product of the
interiors. So the expected closed and interior counts, the volume, the
Ehrhart coefficients, the per-scale copy census, the mean ratio mu(n) and its
limit all follow from the factors alone.

The factor families are segments [0, a], standard simplices, Reeve
tetrahedra and random lattice polygons. A polygon is hulled here by Andrew's
monotone chain and counted by Pick's theorem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd

# Polynomials are tuples of Fractions, lowest degree first.


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_eval(p, t) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _linear_product(roots, scale):
    """Coefficients of scale * prod (t - r) over the given roots."""
    p = (Fraction(scale),)
    for r in roots:
        p = poly_mul(p, (Fraction(-r), Fraction(1)))
    return p


@dataclass(frozen=True)
class Factor:
    """One factor: its vertices, all its lattice points and its two enumerators."""

    name: str
    vertices: tuple[tuple[int, ...], ...]
    points: tuple[tuple[int, ...], ...]
    closed: tuple[Fraction, ...]
    interior: tuple[Fraction, ...]

    @property
    def dim(self) -> int:
        return len(self.vertices[0])


def segment(a: int) -> Factor:
    """[0, a]: L(t) = a t + 1, interior a t - 1."""
    return Factor(
        f"seg{a}",
        ((0,), (a,)),
        tuple((x,) for x in range(a + 1)),
        (Fraction(1), Fraction(a)),
        (Fraction(-1), Fraction(a)),
    )


def simplex(k: int) -> Factor:
    """Standard k-simplex: L(t) = C(t + k, k), interior C(t - 1, k)."""
    origin = (0,) * k
    verts = (origin,) + tuple(origin[:j] + (1,) + origin[j + 1:] for j in range(k))
    scale = Fraction(1, factorial(k))
    return Factor(
        f"simplex{k}",
        verts,
        verts,
        _linear_product([-j for j in range(1, k + 1)], scale),
        _linear_product(list(range(1, k + 1)), scale),
    )


def reeve(r: int) -> Factor:
    """Reeve tetrahedron of height r: L(t) = r/6 t^3 + t^2 + (2 - r/6) t + 1.

    Its only lattice points are its four vertices; the interior enumerator
    is (-1)^3 L(-t) by Ehrhart-Macdonald reciprocity.
    """
    verts = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, r))
    c3 = Fraction(r, 6)
    return Factor(
        f"reeve{r}",
        verts,
        verts,
        (Fraction(1), 2 - c3, Fraction(1), c3),
        (Fraction(-1), 2 - c3, Fraction(-1), c3),
    )


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_2d(points) -> list[tuple[int, int]]:
    """Counter-clockwise extreme points by Andrew's monotone chain."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def polygon(rng: random.Random, radius: int, corners: int) -> Factor:
    """Hull with `corners` vertices of random points of [0, radius]^2.

    Counted by Pick's theorem: with area A and B boundary points,
    L(t) = A t^2 + B/2 t + 1 and the interior enumerator is A t^2 - B/2 t + 1.
    """
    hull: list = []
    while len(hull) != corners:
        hull = hull_2d((rng.randint(0, radius), rng.randint(0, radius)) for _ in range(corners + 2))
    twice_area = sum(
        hull[i - 1][0] * hull[i][1] - hull[i][0] * hull[i - 1][1] for i in range(len(hull))
    )
    boundary = sum(
        gcd(abs(hull[i][0] - hull[i - 1][0]), abs(hull[i][1] - hull[i - 1][1]))
        for i in range(len(hull))
    )
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    inside = tuple(
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if all(_cross(hull[i - 1], hull[i], (x, y)) >= 0 for i in range(len(hull)))
    )
    area = Fraction(twice_area, 2)
    half_b = Fraction(boundary, 2)
    return Factor(
        f"polygon{len(hull)}",
        tuple(sorted(hull)),
        inside,
        (Fraction(1), half_b, area),
        (Fraction(1), -half_b, area),
    )


def random_unimodular(rng: random.Random, d: int, shears: int, magnitude: int):
    """A random integer matrix of determinant +-1.

    A signed permutation followed by `shears` elementary row operations
    row_i += c row_j with 1 <= |c| <= magnitude.
    """
    perm = list(range(d))
    rng.shuffle(perm)
    rows = [[(rng.choice((-1, 1)) if perm[i] == j else 0) for j in range(d)] for i in range(d)]
    for _ in range(shears if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.randint(1, magnitude) * rng.choice((-1, 1))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class Polytope:
    """U(F1 x ... x Fk) + s together with its closed-form enumerators."""

    factors: tuple[Factor, ...]
    matrix: tuple[tuple[int, ...], ...]
    shift: tuple[int, ...]

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @cached_property
    def closed(self):
        p = (Fraction(1),)
        for f in self.factors:
            p = poly_mul(p, f.closed)
        return p

    @cached_property
    def interior(self):
        p = (Fraction(1),)
        for f in self.factors:
            p = poly_mul(p, f.interior)
        return p

    @property
    def volume(self) -> Fraction:
        return self.closed[-1]

    def image(self, point) -> tuple[int, ...]:
        return tuple(
            sum(m * x for m, x in zip(row, point)) + s for row, s in zip(self.matrix, self.shift)
        )

    def vertices(self) -> list[list[int]]:
        """The mapped product of the factors' vertex sets, as JSON-ready lists."""
        return [
            list(self.image(sum(parts, ())))
            for parts in product(*(f.vertices for f in self.factors))
        ]

    def padded_cloud(self, rng: random.Random, extra: int) -> list[list[int]]:
        """The vertices plus `extra` distinct lattice points that are not vertices."""
        verts = {tuple(v) for v in self.vertices()}
        pads: set = set()
        candidates = 1
        for f in self.factors:
            candidates *= len(f.points)
        extra = min(extra, candidates - len(verts))
        while len(pads) < extra:
            p = self.image(sum((rng.choice(f.points) for f in self.factors), ()))
            if p not in verts:
                pads.add(p)
        cloud = [list(p) for p in verts | pads]
        rng.shuffle(cloud)
        return cloud

    def count(self, t: int, interior: bool = False) -> int:
        value = poly_eval(self.interior if interior else self.closed, t)
        return int(value) if t > 0 or not interior else 0

    def mu_limit(self) -> Fraction:
        """The limit vol(P) / C(2d + 1, d)."""
        return self.volume / comb(2 * self.dim + 1, self.dim)

    def census(self, n: int) -> dict[int, int]:
        """Copies of scale i in nP, for i = 1..n: L_P(n - i)."""
        return {i: self.count(n - i) for i in range(1, n + 1)}

    def mu(self, n: int) -> Fraction:
        """Mean volume of the resolution-n miniatures."""
        per_scale = self.census(n)
        weighted = sum(i**self.dim * c for i, c in per_scale.items())
        return self.volume * Fraction(weighted, n**self.dim) / sum(per_scale.values())


def place(rng: random.Random, factors, shears: int, magnitude: int, spread: int) -> Polytope:
    """The product of `factors` under a random unimodular map and integer shift."""
    d = sum(f.dim for f in factors)
    matrix = random_unimodular(rng, d, shears, magnitude)
    shift = tuple(rng.randint(-spread, spread) for _ in range(d))
    return Polytope(tuple(factors), matrix, shift)
