"""Exact lattice-point enumeration for dilates of lattice polytopes.

This is the package's hot loop. The scan walks the integer bounding box of
tP coordinate by coordinate, keeping per-half-space partial sums, prunes a
prefix as soon as some fully-determined constraint fails, and resolves the
innermost axis in closed form: the slice of a convex body along a lattice
line is an interval, so its integer count is floor(hi) - ceil(lo) + 1.
All arithmetic is plain Python int; interior counts reuse the closed-count
kernel with each integer bound tightened by one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import LatticePolytope, _require_full_dimensional


@dataclass(frozen=True)
class LatticeCount:
    """Counts for one dilate: #(tP cap Z^d) and #(interior(tP) cap Z^d)."""

    dilate: int
    closed_count: int
    interior_count: int


def bounding_box(P: LatticePolytope) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Componentwise (min, max) over the vertices; contains every point of P."""
    mins = tuple(min(v[j] for v in P.vertices) for j in range(P.ambient_dim))
    maxs = tuple(max(v[j] for v in P.vertices) for j in range(P.ambient_dim))
    return mins, maxs


def _scan(constraints, lows, highs) -> int:
    """Count integer points of the box satisfying normal . x <= bound for all."""
    d = len(lows)
    # index of the last coordinate each normal touches, for prefix pruning
    final = [max(j for j, c in enumerate(a) if c) for a, _ in constraints]

    def rec(level: int, partials) -> int:
        if level == d - 1:
            lo, hi = lows[level], highs[level]
            for (a, c), s in zip(constraints, partials):
                ad = a[level]
                rem = c - s
                if ad == 0:
                    if rem < 0:
                        return 0
                elif ad > 0:
                    q = rem // ad
                    if q < hi:
                        hi = q
                else:
                    q = -(rem // -ad)
                    if q > lo:
                        lo = q
            return hi - lo + 1 if hi >= lo else 0
        total = 0
        for x in range(lows[level], highs[level] + 1):
            nxt = []
            feasible = True
            for ci, ((a, c), s) in enumerate(zip(constraints, partials)):
                s2 = s + a[level] * x
                if s2 > c and final[ci] <= level:
                    feasible = False
                    break
                nxt.append(s2)
            if feasible:
                total += rec(level + 1, nxt)
        return total

    return rec(0, [0] * len(constraints))


def _scan_input(P: LatticePolytope, t: int, interior: bool):
    """The constraints and box of the scan of tP; None when tP is one point.

    Validates t and rejects a lower-dimensional P of positive dimension.
    """
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise ValueError(f"dilation factor must be a nonnegative integer, got {t!r}")
    if P.dim == 0:
        return None
    _require_full_dimensional(P, "lattice-point counting")
    if t == 0:
        return None
    shrink = 1 if interior else 0
    constraints = [(h.normal, t * h.offset - shrink) for h in P.halfspaces]
    mins, maxs = bounding_box(P)
    return constraints, [t * m for m in mins], [t * m for m in maxs]


def count_points(P: LatticePolytope, t: int, interior: bool = False) -> int:
    """Exact number of integer points in the closed (or open) dilate tP."""
    scan = _scan_input(P, t, interior)
    if scan is None:
        return 0 if interior else 1
    return _scan(*scan)


def count_points_partitioned(
    P: LatticePolytope, t: int, interior: bool = False, slabs: int = 2
) -> int:
    """Count by splitting the box into disjoint slabs along the first axis.

    Bit-identical to count_points by construction; exists to pin down the
    determinism contract of the enumeration kernel.
    """
    if slabs < 1:
        raise ValueError("slabs must be >= 1")
    scan = _scan_input(P, t, interior)
    if scan is None:
        return 0 if interior else 1
    constraints, lows, highs = scan
    width = highs[0] - lows[0] + 1
    step = -(-width // slabs)
    total = 0
    start = lows[0]
    while start <= highs[0]:
        stop = min(start + step - 1, highs[0])
        total += _scan(constraints, [start] + lows[1:], [stop] + highs[1:])
        start = stop + 1
    return total


def count_table(P: LatticePolytope, t_max: int) -> list[LatticeCount]:
    """Closed and interior counts for t = 0..t_max."""
    return [
        LatticeCount(t, count_points(P, t), count_points(P, t, interior=True))
        for t in range(t_max + 1)
    ]
