"""Exact lattice-point enumeration for dilates of lattice polytopes.

This is the package's hot path: project-and-lift enumeration, as in Normaliz
(Bruns-Ichim), which is Fourier-Motzkin projection applied to lattice
points, over P's projection tower (`LiftPlan`). Its axes are P's axes by
bounding-box width, narrowest first (outermost), ties by index. Level k
holds the facets a.y <= b of P's projection onto axes 0..k with a_k != 0:
once y_0..y_{k-1} are fixed, they bound y_k above (a_k > 0) and below
(a_k < 0), scaled by t, so every prefix enumerated lies in the projection
of tP. A facet with a_k = 0 is implied by the level below and dropped; a
facet of P sits in the level of its last nonzero coefficient. The tower
does not depend on t, so `LatticePolytope.lift_plan` builds it once per
object. An interior count tightens each facet of P by one and keeps the
other rows closed; it stays exact, as those admit a superset of the
interior points' prefixes and the slice counts only the x where its lines
are not empty.

The last two axes are one slice, counted in closed form with no loop over
its lines: the top and the bottom of the line at x are each the lowest of a
few linear functions of x, so the slice splits into pieces on which one row
bounds each side, and on each piece the sum of floor(top) + floor(bottom) +
1 is a Euclid-like floor sum (Graham-Knuth-Patashnik, Concrete Mathematics,
section 3.5). A count costs the prefixes of the outer levels times a few
rows and pieces, however long its slices are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import (
    LatticePolytope,
    _facet_halfspaces,
    _require_full_dimensional,
    bounding_box,
)


@dataclass(frozen=True)
class LiftPlan:
    """P's projection tower, row by row, as the module docstring lays it out.

    offsets   b of every row, level by level, each level's upper bounds first
    strict    1 for a facet of P (a row an interior count tightens), else 0
    levels    per level k: (a_k of its upper rows, -a_k of its lower rows,
              a_k of every row of the levels above k, in row order)
    """

    offsets: tuple[int, ...]
    strict: tuple[int, ...]
    levels: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]


def _lift_plan(P: LatticePolytope) -> LiftPlan:
    d = P.ambient_dim
    mins, maxs = bounding_box(P)
    order = sorted(range(d), key=lambda j: (maxs[j] - mins[j], j))
    verts = [tuple(v[j] for j in order) for v in P.vertices]
    own = {(tuple(h.normal[j] for j in order), h.offset) for h in P.halfspaces}
    rows, split = [], []
    for k in range(d):
        if k < d - 1:
            shadow = sorted({v[: k + 1] for v in verts})
            facets = [(h.normal, h.offset) for h, _ in _facet_halfspaces(shadow, k + 1)]
        else:
            facets = sorted(own)
        pad = (0,) * (d - 1 - k)
        upper = [(n + pad, b) for n, b in facets if n[k] > 0]
        lower = [(n + pad, b) for n, b in facets if n[k] < 0]
        rows += upper + lower
        split.append((upper, lower, len(rows)))
    return LiftPlan(
        tuple(b for _, b in rows),
        tuple(int(row in own) for row in rows),
        tuple(
            (
                tuple(n[k] for n, _ in upper),
                tuple(-n[k] for n, _ in lower),
                tuple(n[k] for n, _ in rows[end:]),
            )
            for k, (upper, lower, end) in enumerate(split)
        ),
    )


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) over i = 0..n-1, for m >= 1.

    The Euclid-like reduction of Graham-Knuth-Patashnik (Concrete
    Mathematics, section 3.5), in the loop form of the AtCoder Library's
    floor_sum: `divmod` takes the whole parts of a/m and b/m out, which
    also normalises negative a and b, and then the lattice points under the
    line are counted along the other axis, a smaller instance.
    """
    total = 0
    while True:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        y = a * n + b
        if y < m:
            return total
        n, b = divmod(y, m)
        m, a = a, m


def _envelope(rows, lo: int, hi: int) -> list[tuple[int, int, int, int]]:
    """The pieces of min over `rows` of (s - a*x)/e on the integers lo..hi.

    `rows` holds (s, a, e) with e > 0 and lo <= hi. Returns (end, s, a, e)
    per piece, left to right: the row is lowest from the integer after the
    previous piece's end (lo for the first) up to `end`, and the last piece
    ends at hi. At each start the lowest row is chosen, the steepest among
    ties, so only a steeper row can take over; it does so after the floor
    of the crossing. Rows are compared by cross multiplication, in
    integers only.
    """
    if len(rows) == 1:
        return [(hi, *rows[0])]
    pieces = []
    x = lo
    s, a, e = rows[0]
    while True:
        v = s - a * x
        for s2, a2, e2 in rows:
            v2 = s2 - a2 * x
            if v2 * e < v * e2 or (v2 * e == v * e2 and a2 * e > a * e2):
                s, a, e, v = s2, a2, e2, v2
        end = hi
        for s2, a2, e2 in rows:
            steeper = a2 * e - a * e2
            if steeper > 0:
                crossing = (s2 * e - s * e2) // steeper
                if crossing < end:
                    end = crossing
        pieces.append((end, s, a, e))
        if end == hi:
            return pieces
        x = end + 1


def _slice(upper, lower, lo: int, hi: int) -> int:
    """Lattice points (x, y) with lo <= x <= hi under every row of both sides.

    Each row is (s, a, e) with e > 0: an upper row bounds y above by
    (s - a*x)/e, and a lower row bounds -y above the same way. The two
    envelopes are merged into pieces on which one row of each side is
    active; on each piece the line counts floor(top) + floor(bottom) + 1
    are summed in closed form over the x where top + bottom >= 0. There the
    count is >= 0, and elsewhere it is < 0 and clamps to an empty line, so
    a slice that is empty in places (as tightened interior slices can be)
    is still counted exactly.
    """
    ups = _envelope(upper, lo, hi)
    downs = _envelope(lower, lo, hi)
    total = 0
    x = lo
    i = j = 0
    while x <= hi:
        up_end, s, a, e = ups[i]
        down_end, t, b, f = downs[j]
        end = min(up_end, down_end)
        # top + bottom >= 0 is c - g*x >= 0
        c, g = s * f + t * e, a * f + b * e
        first, last = x, end
        if g > 0:
            last = min(last, c // g)
        elif g < 0:
            first = max(first, -(c // -g))
        elif c < 0:
            last = first - 1
        n = last - first + 1
        if n > 0:
            total += (
                _floor_sum(n, e, -a, s - a * first)
                + _floor_sum(n, f, -b, t - b * first)
                + n
            )
        x = end + 1
        i += up_end == end
        j += down_end == end
    return total


def _lift(levels, slack, k: int) -> int:
    """Points of the tower above one prefix y_0..y_{k-1}, from level k on.

    `slack` holds b - (a . prefix) for every row of levels k and above, in
    plan order. The range of y_k is read off level k's rows in closed form;
    fixing y_k = x takes a_k x off the slack of every row above. The last
    two levels are one slice, counted by `_slice` with no loop over x.
    """
    upper, lower, above = levels[k]
    hi = min([s // a for s, a in zip(slack, upper)])
    lo = -min([s // a for s, a in zip(slack[len(upper):], lower)])
    if k == len(levels) - 1:
        return hi - lo + 1 if hi >= lo else 0
    if hi < lo:
        return 0
    rest = slack[len(upper) + len(lower):]
    if k == len(levels) - 2:
        line_upper, line_lower, _ = levels[k + 1]
        rows = list(zip(rest, above, line_upper + line_lower))
        n = len(line_upper)
        return _slice(rows[:n], rows[n:], lo, hi)
    total = 0
    for x in range(lo, hi + 1):
        total += _lift(levels, [s - a * x for s, a in zip(rest, above)], k + 1)
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

