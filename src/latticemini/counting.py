"""Exact lattice-point enumeration for dilates of lattice polytopes.

This is the package's hot loop: project-and-lift enumeration, as in Normaliz
(Bruns-Ichim), which is Fourier-Motzkin projection applied to lattice
points. P's axes are ordered by bounding-box width, narrowest first
(outermost). Once the first k coordinates are fixed, the facets of P's
projection onto the first k+1 axes, scaled by t, give the range of the next
coordinate in closed form, so every prefix enumerated lies in the projection
of tP and no dead part of the bounding box is walked. The last axis is
resolved per line: the slice of a convex body along a lattice line is an
interval, so its integer count is floor(hi) - ceil(lo) + 1. The projections
do not depend on t; they are built once per polytope object
(`LatticePolytope.lift_plan`) and reused by every dilate, closed and
interior. Partial sums are carried down the levels incrementally, in plain
Python ints. An interior count tightens each facet of P by one and keeps
the other projection facets closed; those admit a superset of the interior
points' prefixes, so the count stays exact.
"""

from __future__ import annotations

from .geometry import LatticePolytope, _require_full_dimensional


def _lift(levels, slack, k: int) -> int:
    """Points of the tower above one prefix y_0..y_{k-1}, from level k on.

    `slack` holds b - (a . prefix) for every row of levels k and above, in
    plan order. The range of y_k is read off level k's rows in closed form;
    fixing y_k = x takes a_k x off the slack of every row above. The last two
    levels are fused into one loop over the lines of the last axis.
    """
    upper, lower, above = levels[k]
    hi = min([s // a for s, a in zip(slack, upper)])
    lo = -min([s // a for s, a in zip(slack[len(upper):], lower)])
    if k == len(levels) - 1:
        return hi - lo + 1 if hi >= lo else 0
    rest = slack[len(upper) + len(lower):]
    if k < len(levels) - 2:
        total = 0
        for x in range(lo, hi + 1):
            total += _lift(levels, [s - a * x for s, a in zip(rest, above)], k + 1)
        return total
    # the hot loop: one pass per line, plain loops (no comprehension per line)
    line_upper, line_lower, _ = levels[k + 1]
    n = len(line_upper)
    (s0, a0, e0), *tops = zip(rest, above, line_upper)
    (s1, a1, e1), *bottoms = zip(rest[n:], above[n:], line_lower)
    total = 0
    for x in range(lo, hi + 1):
        top = (s0 - a0 * x) // e0
        for s, a, e in tops:
            q = (s - a * x) // e
            if q < top:
                top = q
        bottom = (s1 - a1 * x) // e1
        for s, a, e in bottoms:
            q = (s - a * x) // e
            if q < bottom:
                bottom = q
        # the line holds -bottom <= y <= top
        if top + bottom >= 0:
            total += top + bottom + 1
    return total


def count_points(P: LatticePolytope, t: int, interior: bool = False) -> int:
    """Exact number of integer points in the closed (or open) dilate tP."""
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise ValueError(f"dilation factor must be a nonnegative integer, got {t!r}")
    if P.dim == 0:
        return 0 if interior else 1
    _require_full_dimensional(P, "lattice-point counting")
    plan = P.lift_plan
    if interior:
        slack = [t * b - s for b, s in zip(plan.offsets, plan.strict)]
    else:
        slack = [t * b for b in plan.offsets]
    return _lift(plan.levels, slack, 0)

