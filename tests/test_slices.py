"""The closed-form slice kernel: floor sums, envelopes, slices, huge dilates.

`counting._slice` counts the last two lift levels with no loop over the
lines of a slice, so these tests compare each of its parts with a direct
per-x evaluation, and whole counts at dilates no per-line loop could reach
with Pick's theorem and the Ehrhart polynomial of a unimodular triangle.
"""

from fractions import Fraction
from math import gcd
from time import perf_counter

from hypothesis import given, settings, strategies as st

from conftest import shoelace
from latticemini import corpus, count_points, from_vertices
from latticemini.counting import _envelope, _floor_sum, _slice

# a unimodular triangle whose slices are 1,000 times longer than wide
SKEW = ((0, 0), (1000, 999), (1001, 1000))


@given(
    n=st.integers(0, 40),
    m=st.integers(1, 60),
    a=st.integers(-10**4, 10**4),
    b=st.integers(-10**4, 10**4),
)
@settings(max_examples=300, deadline=None)
def test_floor_sum_matches_brute_force(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def lowest(rows, x) -> Fraction:
    return min(Fraction(s - a * x, e) for s, a, e in rows)


def assert_pieces_are_lowest(rows, lo, hi):
    pieces = _envelope(rows, lo, hi)
    assert pieces[-1][0] == hi
    start = lo
    for end, s, a, e in pieces:
        assert start <= end
        for x in range(start, end + 1):
            assert Fraction(s - a * x, e) == lowest(rows, x), (x, (s, a, e))
        start = end + 1
    return pieces


def test_envelope_ties_at_a_crossing():
    # three rows meet at x = 2: 4, 6 - x and 8 - 2x; the steepest takes over
    # after the tie, and the middle row never owns a piece
    rows = [(4, 0, 1), (6, 1, 1), (8, 2, 1)]
    assert assert_pieces_are_lowest(rows, 0, 5) == [(2, 4, 0, 1), (5, 8, 2, 1)]
    # the same rows scaled by e = 3 and listed steepest first
    scaled = [(3 * s, 3 * a, 3) for s, a, _ in reversed(rows)]
    assert assert_pieces_are_lowest(scaled, 0, 5) == [(2, 12, 0, 3), (5, 24, 6, 3)]


def test_envelope_ties_at_the_start_and_between_parallel_rows():
    # tied at lo = 0, where the steeper row owns the whole range; of its
    # parallel copies one lies higher, and the equal ones add no piece
    rows = [(4, 0, 1), (10, 2, 2), (4, 1, 1), (8, 2, 2), (4, 1, 1)]
    assert assert_pieces_are_lowest(rows, 0, 6) == [(6, 4, 1, 1)]
    # a crossing at x = 5/2 ends the first piece at its floor
    assert assert_pieces_are_lowest([(5, 0, 2), (5, 1, 1)], -3, 7) == [
        (2, 5, 0, 2),
        (7, 5, 1, 1),
    ]


row_lists = st.lists(
    st.tuples(st.integers(-60, 60), st.integers(-6, 6), st.integers(1, 5)),
    min_size=1,
    max_size=5,
)


@given(
    upper=row_lists, lower=row_lists, lo=st.integers(-15, 15), width=st.integers(0, 30)
)
@settings(max_examples=200, deadline=None)
def test_slice_matches_line_by_line(upper, lower, lo, width):
    # arbitrary rows, so parts of the range are empty and others are not
    hi = lo + width
    assert_pieces_are_lowest(upper, lo, hi)
    assert_pieces_are_lowest(lower, lo, hi)
    expected = 0
    for x in range(lo, hi + 1):
        top = min((s - a * x) // e for s, a, e in upper)
        bottom = min((s - a * x) // e for s, a, e in lower)
        expected += max(top + bottom + 1, 0)
    assert _slice(upper, lower, lo, hi) == expected


def timed_counts(P, t):
    start = perf_counter()
    counts = count_points(P, t), count_points(P, t, interior=True)
    return counts, perf_counter() - start


def test_pentagon_obeys_pick_at_a_huge_dilate():
    P = corpus.pentagon()
    ring = [(0, 0), (2, 0), (3, 1), (2, 2), (0, 2)]
    assert sorted(ring) == list(P.vertices)
    area = shoelace(ring)
    boundary = sum(
        gcd(x2 - x1, y2 - y1) for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1])
    )
    t = 10**12
    (closed, interior), seconds = timed_counts(P, t)
    assert closed == area * t**2 + Fraction(boundary, 2) * t + 1
    assert interior == area * t**2 - Fraction(boundary, 2) * t + 1
    assert seconds < 1, seconds


def test_skew_triangle_at_a_huge_dilate():
    P = from_vertices(SKEW)
    assert P.volume_d == Fraction(1, 2)
    t = 10**6
    (closed, interior), seconds = timed_counts(P, t)
    # a unimodular triangle: L(t) = (t+1)(t+2)/2, and L(-t) by reciprocity
    assert closed == (t + 1) * (t + 2) // 2
    assert interior == (t - 1) * (t - 2) // 2
    assert seconds < 1, seconds
