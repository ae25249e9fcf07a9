"""The benchmark's workloads: seeded request streams with closed-form checks.

A workload is a fixed list of slots. A pass draws one fresh request for
every slot and shuffles them, so every pass has the same mix of request
kinds and sizes. A request holds only vertex lists: its `call` goes from
them to the library's answer, and its `check` compares that answer with the
closed form, outside the timed interval.

Every request draws a new random input. The skewed deep-count inputs
practically never recur. The small unskewed (symbolic) and mildly sheared
(census) shapes come from finite families, so an input can recur within a
run; repeated work inside one request is what census measures.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, prod
from typing import Callable

import closedform as cf


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    slot: int = -1


# -- request kinds ------------------------------------------------------------


def ehrhart_request(lm, rng, P: cf.Polytope, padding: int) -> Request:
    """Ehrhart coefficients of the hull of a point cloud padded with lattice points."""
    cloud = P.padded_cloud(rng, padding)
    return Request(
        "ehrhart",
        lambda: lm.ehrhart_polynomial(lm.from_vertices(cloud)).poly.coeffs,
        lambda coeffs: tuple(coeffs) == P.closed,
    )


def limit_request(lm, P: cf.Polytope) -> Request:
    """The symbolic limit vol(P) / C(2d + 1, d)."""
    verts = P.vertices()
    return Request(
        "limit",
        lambda: lm.mu_limit_symbolic(lm.from_vertices(verts)),
        lambda value: value == P.mu_limit(),
    )


def pie_request(lm, rng, sides, cuts: int) -> Request:
    """Inclusion-exclusion over a box cut into slabs along one axis, under one map.

    The union is the whole box, so the answer is vol(box) / C(2d + 1, d).
    """
    d = len(sides)
    whole = _plain(rng, [cf.segment(a) for a in sides])
    axis = rng.choice([j for j in range(d) if sides[j] > cuts])
    marks = [0] + sorted(rng.sample(range(1, sides[axis]), cuts)) + [sides[axis]]
    vertex_lists = []
    for lo, hi in zip(marks, marks[1:]):
        factors = list(whole.factors)
        factors[axis] = cf.segment(hi - lo)
        corner = tuple(lo if j == axis else 0 for j in range(d))
        slab = cf.Polytope(tuple(factors), whole.matrix, whole.image(corner))
        vertex_lists.append(slab.vertices())
    expected = whole.mu_limit()
    return Request(
        "pie",
        lambda: lm.mu_inclusion_exclusion([lm.from_vertices(v) for v in vertex_lists]),
        lambda value: value == expected,
    )


def decimal12(value: Fraction) -> str:
    """`value` rounded half up to 12 decimal places."""
    scaled = floor(abs(value) * 10**12 + Fraction(1, 2))
    whole, frac = divmod(scaled, 10**12)
    return f"{'-' if value < 0 else ''}{whole}.{frac:012d}"


def _outer_widths(vertices) -> list[int]:
    """Bounding-box widths along every axis but the last."""
    return [max(v[j] for v in vertices) - min(v[j] for v in vertices)
            for j in range(len(vertices[0]) - 1)]


def census_request(lm, P: cf.Polytope, lines: int) -> Request:
    """`latticemini mu --format csv` in process, through `cli.run` and a captured stream.

    n_max is the smallest resolution at which the per-scale counts of the
    censuses n = 1..n_max, L_P(t) for t < n, span at least `lines` lattice
    lines of their dilated boxes, parallel to the last axis. That fixes a
    slot's counting work across shapes and skews.
    """
    widths = _outer_widths(P.vertices())
    n_max = covered = per_census = 0
    while covered < lines:
        per_census += prod(n_max * w + 1 for w in widths)
        covered += per_census
        n_max += 1
    argv = ["mu", "--input", json.dumps({"vertices": P.vertices()}),
            "--n-max", str(n_max), "--format", "csv"]

    def call():
        out = io.StringIO()
        code = lm.cli.run(lm.cli.config_from_args(lm.cli.build_parser().parse_args(argv)), out)
        return code, out.getvalue()

    def check(result) -> bool:
        code, text = result
        lines = text.splitlines()
        limit = P.mu_limit()
        ratios = [(n, P.mu(n)) for n in range(1, n_max + 1)]
        rows = [f"{n},{r.numerator},{r.denominator},{decimal12(r)}" for n, r in ratios]
        notes = dict(line.removeprefix("# ").split(" = ") for line in lines[n_max + 1:])
        return (
            code == 0
            and lines[:n_max + 1] == ["n,ratio_num,ratio_den,ratio_decimal"] + rows
            and {key: Fraction(value) for key, value in notes.items()} == {
                "limit": limit,
                "closed_form": limit,
                "bound_constant": max(abs(r - limit) * n for n, r in ratios),
            }
        )

    return Request("census", call, check)


def deep_count_request(lm, P: cf.Polytope, lines: int) -> Request:
    """Closed and interior counts of tP at one large dilate t.

    t is the smallest dilate whose bounding box holds at least `lines`
    lattice lines parallel to the last axis. A box scan resolves each such
    line in closed form, so this fixes a slot's work across skews, while
    which axis comes last stays random.
    """
    verts = P.vertices()
    widths = _outer_widths(verts)

    def box_lines(t: int) -> int:
        return prod(t * w + 1 for w in widths)

    hi = 1
    while box_lines(hi) < lines:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if box_lines(mid) < lines else (lo, mid)
    t = hi

    def call():
        Q = lm.from_vertices(verts)
        return lm.count_points(Q, t), lm.count_points(Q, t, interior=True)

    return Request("deep-count", call, lambda got: got == (P.count(t), P.count(t, True)))


# -- workloads ----------------------------------------------------------------

# Each slot maps (library, rng) to one request. A slot's size is fixed in
# work, not in input value, so its latency stays in a narrow band across
# seeds. The mix puts the median among several slots of similar cost and the
# slowest tenth of requests inside one slot repeated every pass, so that
# neither the median nor the tail sits on a gap between slots.


def _plain(rng, factors) -> cf.Polytope:
    """Unskewed: a signed permutation of the axes and a shift by at most 1."""
    return cf.place(rng, factors, shears=0, magnitude=1, spread=1)


def _mild(rng, factors) -> cf.Polytope:
    """Near the origin under two unit shears, as users state small polytopes."""
    return cf.place(rng, factors, shears=2, magnitude=1, spread=1)


def _skewed(rng, factors) -> cf.Polytope:
    """Far from the origin under four shears of magnitude up to 2."""
    return cf.place(rng, factors, shears=4, magnitude=2, spread=50)


SYMBOLIC = [
    lambda lm, rng: ehrhart_request(
        lm, rng, _plain(rng, [cf.polygon(rng, 4, 5), cf.segment(2)]), 8),
    lambda lm, rng: ehrhart_request(lm, rng, _plain(rng, [cf.reeve(2), cf.segment(2)]), 6),
    lambda lm, rng: ehrhart_request(
        lm, rng, _plain(rng, [cf.polygon(rng, 3, 3), cf.polygon(rng, 3, 4)]), 4),
    lambda lm, rng: ehrhart_request(lm, rng, _plain(rng, [cf.segment(1)] * 4), 0),
    lambda lm, rng: limit_request(lm, _plain(rng, [cf.polygon(rng, 3, 4), cf.segment(1)])),
    lambda lm, rng: limit_request(lm, _plain(rng, [cf.polygon(rng, 3, 5), cf.segment(1)])),
    lambda lm, rng: pie_request(lm, rng, (2, 1, 1), 1),
    lambda lm, rng: pie_request(lm, rng, (3, 1, 1), 2),
]

CENSUS = [
    lambda lm, rng: census_request(lm, _mild(rng, [cf.polygon(rng, 4, 5)]), 40_000),
    lambda lm, rng: census_request(lm, _mild(rng, [cf.polygon(rng, 3, 4)]), 60_000),
    lambda lm, rng: census_request(lm, _mild(rng, [cf.simplex(2)]), 60_000),
    lambda lm, rng: census_request(lm, _mild(rng, [cf.simplex(2)]), 120_000),
    lambda lm, rng: census_request(lm, _mild(rng, [cf.reeve(3)]), 5_000),
    lambda lm, rng: census_request(lm, _mild(rng, [cf.simplex(3)]), 5_000),
    lambda lm, rng: census_request(lm, _mild(rng, [cf.simplex(2), cf.segment(1)]), 5_000),
    lambda lm, rng: census_request(lm, _mild(rng, [cf.segment(1)] * 3), 5_000),
    lambda lm, rng: census_request(lm, _mild(rng, [cf.segment(1)] * 3), 10_000),
]

DEEP_COUNT = [
    lambda lm, rng: deep_count_request(lm, _skewed(rng, [cf.polygon(rng, 4, 5)]), 40_000),
    lambda lm, rng: deep_count_request(lm, _skewed(rng, [cf.polygon(rng, 4, 5)]), 20_000),
    lambda lm, rng: deep_count_request(lm, _skewed(rng, [cf.segment(2), cf.segment(3)]), 20_000),
    lambda lm, rng: deep_count_request(lm, _skewed(rng, [cf.simplex(3)]), 20_000),
    lambda lm, rng: deep_count_request(
        lm, _skewed(rng, [cf.polygon(rng, 3, 4), cf.segment(2)]), 20_000),
    lambda lm, rng: deep_count_request(
        lm, _skewed(rng, [cf.polygon(rng, 3, 4), cf.segment(2)]), 20_000),
    lambda lm, rng: deep_count_request(lm, _skewed(rng, [cf.simplex(4)]), 20_000),
    lambda lm, rng: deep_count_request(lm, _skewed(rng, [cf.simplex(3), cf.segment(1)]), 10_000),
    lambda lm, rng: deep_count_request(lm, _skewed(rng, [cf.simplex(3), cf.segment(1)]), 20_000),
    lambda lm, rng: deep_count_request(lm, _skewed(rng, [cf.simplex(2), cf.simplex(2)]), 10_000),
]

WORKLOADS = {"symbolic": SYMBOLIC, "census": CENSUS, "deep-count": DEEP_COUNT}


def passes(lm, workload: str, seed: int):
    """Endless passes of fresh requests; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}/{seed}")
    slots = WORKLOADS[workload]
    while True:
        batch = [slot(lm, rng) for slot in slots]
        for index, request in enumerate(batch):
            request.slot = index
        rng.shuffle(batch)
        yield batch
