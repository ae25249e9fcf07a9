"""Hull construction, half-spaces, volume, dilation, translation, pyramids."""

from fractions import Fraction
from itertools import product
from math import factorial, gcd

import pytest

from conftest import det3, in_hull, shoelace
from latticemini import (
    ConstructionError,
    NotFullDimensionalError,
    contains,
    dilate,
    from_vertices,
    pyramid,
    translate,
    volume,
)
from latticemini import corpus


class TestFromVertices:
    def test_unit_triangle(self):
        P = from_vertices([(0, 0), (1, 0), (0, 1)])
        assert P.ambient_dim == 2
        assert P.dim == 2
        assert P.vertices == ((0, 0), (0, 1), (1, 0))
        assert P.volume_d == Fraction(1, 2)

    def test_repr_is_short(self):
        assert repr(corpus.triangle()) == (
            "LatticePolytope(ambient_dim=2, dim=2, vertices=3, volume=1/2)"
        )

    def test_non_extreme_point_discarded(self):
        P = from_vertices([(0, 0), (2, 0), (0, 2), (1, 1)])
        assert len(P.vertices) == 3
        assert (1, 1) not in P.vertices
        assert P.volume_d == 2
        # brute-force extreme test: (1,1) is a convex combination of the others
        assert in_hull([(0, 0), (2, 0), (0, 2)], (1, 1))
        for v in P.vertices:
            others = [w for w in P.vertices if w != v]
            assert not in_hull(others, v)

    def test_single_point(self):
        P = from_vertices([(5,)])
        assert P.dim == 0
        assert P.volume_d == 0
        assert P.vertices == ((5,),)

    def test_duplicates_collapse(self):
        P = from_vertices([(0, 0), (1, 0), (1, 0), (0, 1), (0, 0)])
        assert P.vertices == ((0, 0), (0, 1), (1, 0))

    def test_lower_dimensional_hull(self):
        P = from_vertices([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert P.dim == 1
        assert P.vertices == ((0, 0), (3, 3))
        assert P.volume_d == 0
        assert P.halfspaces == ()

    def test_empty_input_rejected(self):
        with pytest.raises(ConstructionError):
            from_vertices([])

    def test_ragged_input_rejected(self):
        with pytest.raises(ConstructionError):
            from_vertices([(0, 0), (1,)])

    def test_non_integer_rejected(self):
        with pytest.raises(ConstructionError, match="0.5"):
            from_vertices([(0, 0.5)])

    def test_bool_rejected(self):
        with pytest.raises(ConstructionError):
            from_vertices([(True, 0)])

    def test_vertices_lex_sorted_and_order_independent(self):
        a = from_vertices([(2, 2), (0, 0), (2, 0), (0, 2)])
        b = from_vertices([(0, 2), (2, 0), (0, 0), (2, 2)])
        assert a == b
        assert list(a.vertices) == sorted(a.vertices)

    def test_hull_idempotence_fixed_sets(self):
        point_sets = [
            [(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)],
            [(0,), (3,), (1,), (2,)],
            [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)],
        ]
        for pts in point_sets:
            P = from_vertices(pts)
            assert from_vertices(P.vertices).vertices == P.vertices


class TestHalfSpaces:
    def test_primitive_normals(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            for h in P.halfspaces:
                g = 0
                for c in h.normal:
                    g = gcd(g, abs(c))
                assert g == 1, (name, h)

    def test_vertices_satisfy_all_halfspaces(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            for v in P.vertices:
                for h in P.halfspaces:
                    assert h.holds(v), (name, v, h)

    def test_each_halfspace_tight_at_dim_vertices(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            for h in P.halfspaces:
                tight = sum(1 for v in P.vertices if h.value(v) == h.offset)
                assert tight >= P.dim, (name, h)

    def test_triangle_halfspaces(self):
        P = corpus.triangle()
        as_pairs = {(h.normal, h.offset) for h in P.halfspaces}
        assert as_pairs == {((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)}


class TestContains:
    def test_center_strictly_inside(self):
        S = corpus.square()
        assert contains(S, (Fraction(1, 2), Fraction(1, 2)), strict=True)

    def test_boundary_vertex(self):
        S = corpus.square()
        assert not contains(S, (1, 1), strict=True)
        assert contains(S, (1, 1), strict=False)

    def test_outside_hyperplane(self):
        T = corpus.triangle()
        assert not contains(T, (Fraction(3, 4), Fraction(3, 4)), strict=False)

    def test_lower_dimensional_unsupported(self):
        P = from_vertices([(0, 0), (1, 1)])
        with pytest.raises(NotFullDimensionalError):
            contains(P, (0, 0))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            contains(corpus.square(), (0, 0, 0))

    def test_matches_convex_combination_oracle(self):
        # V/H consistency on small instances: halfspace membership agrees
        # with convex-combination feasibility at every box point
        for P in (corpus.triangle(), corpus.pentagon(), corpus.box(2, 1), corpus.reeve()):
            lows = [min(v[j] for v in P.vertices) for j in range(P.ambient_dim)]
            highs = [max(v[j] for v in P.vertices) for j in range(P.ambient_dim)]
            for x in product(*[range(lo - 1, hi + 2) for lo, hi in zip(lows, highs)]):
                assert contains(P, x) == in_hull(list(P.vertices), x), (P, x)


class TestDilate:
    def test_identity(self):
        S = corpus.square()
        assert dilate(S, 1) == S

    def test_scaling(self):
        S3 = dilate(corpus.square(), 3)
        assert S3.vertices == ((0, 0), (0, 3), (3, 0), (3, 3))
        assert S3.volume_d == 9

    def test_degenerate(self):
        P = dilate(corpus.triangle(), 0)
        assert P.dim == 0
        assert P.vertices == ((0, 0),)

    def test_scaling_law(self, full_corpus):
        for name, P in full_corpus:
            for k in range(6):
                assert volume(dilate(P, k)) == P.volume_d * k**P.ambient_dim, (name, k)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dilate(corpus.square(), -1)


class TestTranslate:
    def test_identity(self):
        S = corpus.square()
        assert translate(S, (0, 0)) == S

    def test_shift(self):
        moved = translate(corpus.square(), (2, 3))
        assert moved.vertices == ((2, 3), (2, 4), (3, 3), (3, 4))
        assert moved.volume_d == 1

    def test_volume_invariance(self, full_corpus):
        for name, P in full_corpus:
            a = tuple(range(3, 3 + P.ambient_dim))
            Q = translate(P, a)
            assert Q.volume_d == P.volume_d and Q.dim == P.dim, name

    def test_commutes_with_dilate(self):
        for P in (corpus.triangle(), corpus.square(), corpus.reeve()):
            a = tuple(range(1, P.ambient_dim + 1))
            for k in range(4):
                left = dilate(translate(P, a), k)
                right = translate(dilate(P, k), tuple(k * x for x in a))
                assert left == right

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            translate(corpus.square(), (1, 2, 3))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            translate(corpus.square(), (1, 0.5))


class TestVolume:
    def test_unit_cubes(self):
        for d in (1, 2, 3):
            assert volume(corpus.box(*([1] * d))) == 1

    def test_standard_simplices(self):
        for d in (1, 2, 3):
            assert volume(corpus.simplex(d)) == Fraction(1, factorial(d))

    def test_pentagon_against_shoelace(self):
        P = corpus.pentagon()
        ring = [(0, 0), (2, 0), (3, 1), (2, 2), (0, 2)]
        assert set(ring) == set(P.vertices)
        assert volume(P) == shoelace(ring) == 5

    def test_lower_dimensional_volume_zero(self):
        assert volume(from_vertices([(0, 0), (4, 4)])) == 0


class TestPyramid:
    def test_segment_becomes_triangle(self):
        P = pyramid(corpus.segment(1))
        assert P.vertices == ((0, 0), (0, 1), (1, 0))

    def test_volume_ratio(self, full_dim_corpus):
        for name, P in full_dim_corpus:
            assert (P.ambient_dim + 1) * volume(pyramid(P)) == P.volume_d, name

    def test_square_pyramid_against_tetrahedral_decomposition(self):
        P = pyramid(corpus.square())
        apex = (0, 0, 1)
        tets = [
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), apex],
            [(0, 0, 0), (1, 1, 0), (0, 1, 0), apex],
        ]
        oracle = Fraction(0)
        for t in tets:
            rows = [tuple(b - a for a, b in zip(t[0], p)) for p in t[1:]]
            oracle += Fraction(abs(det3(rows)), 6)
        assert oracle == Fraction(1, 3)
        assert volume(P) == oracle

