"""The Bareiss kernel, the LLL reduction and the projection chart against
independent routes.

Determinants go against a Leibniz permutation sum, ranks against a Fraction
elimination, reduced bases against a Fraction Gram-Schmidt, and hulls of
lattice polytopes carried into R^4 and R^5 by integer maps against the
images of the known vertices.
"""

from fractions import Fraction
from itertools import permutations

from hypothesis import assume, given, settings, strategies as st

from conftest import image, rank_exact, unimodular
from latticemini import _linalg as la
from latticemini import corpus, from_vertices

entry = st.integers(min_value=-3, max_value=3)


def leibniz_det(m) -> int:
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i) if perm[j] > perm[i])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@st.composite
def matrices(draw, square: bool = False):
    """Integer matrices up to 5 x 6; half the time one row depends on two others."""
    n = draw(st.integers(min_value=1, max_value=5))
    k = n if square else draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    if n >= 3 and draw(st.booleans()):
        a, b = draw(entry), draw(entry)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@given(matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_det_matches_leibniz(m):
    assert la.det(m) == leibniz_det(m)


def test_det_of_empty_matrix():
    assert la.det([]) == 1


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_fraction_elimination(m):
    # the pivot count is the rank: the hull chart keeps the pivot columns
    assert len(la.echelon(m)[1]) == rank_exact(m)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_null_vector_spans_a_line(m):
    k = len(m[0])
    v = la.null_vector(m, k)
    assert (v is not None) == (rank_exact(m) == k - 1)
    if v is not None:
        assert all(isinstance(x, int) for x in v) and any(v)
        assert all(la.dot(v, row) == 0 for row in m)


def identity(d: int):
    return [[int(i == j) for j in range(d)] for i in range(d)]


def gram_schmidt(basis, gram):
    """Coefficients mu[k][j] and squared lengths of `basis` under `gram`, in Fractions."""

    def form(u, w):
        return sum(x * g * y for x, row in zip(u, gram) for g, y in zip(row, w))

    stars, mu, norms = [], [], []
    for b in basis:
        coefficients = [form(b, s) / n for s, n in zip(stars, norms)]
        star = [Fraction(x) for x in b]
        for c, s in zip(coefficients, stars):
            star = [x - c * y for x, y in zip(star, s)]
        stars.append(star)
        mu.append(coefficients)
        norms.append(form(star, star))
    return mu, norms


@st.composite
def cloud_grams(draw):
    """The Gram matrix, sum of p p^T, of a skewed integer point cloud of full rank in R^d."""
    d = draw(st.integers(min_value=1, max_value=6))
    coord = st.integers(min_value=-20, max_value=20)
    points = draw(st.lists(st.tuples(*([coord] * d)), min_size=d, max_size=d + 4))
    points = image(points, draw(unimodular(d, shear=10)), [0] * d)
    gram = [[sum(p[i] * p[j] for p in points) for j in range(d)] for i in range(d)]
    assume(rank_exact(gram) == d)
    return gram


@given(cloud_grams())
@settings(max_examples=150, deadline=None)
def test_lll_basis_is_reduced(gram):
    d = len(gram)
    U, V = la.lll(gram)
    assert all(isinstance(x, int) for row in U + V for x in row)
    assert [[la.dot(row, column) for column in zip(*V)] for row in U] == identity(d)
    mu, norms = gram_schmidt(U, gram)
    for k in range(d):
        assert all(abs(c) <= Fraction(1, 2) for c in mu[k]), (k, mu)  # size reduced
        if k:  # the Lovasz condition, delta = 3/4
            assert norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1], (k, norms)


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_lll_keeps_a_reduced_diagonal_form(lengths):
    # the unit vectors are orthogonal, and squared lengths that never fall
    # meet the Lovasz condition, so there is nothing to reduce
    d = len(lengths)
    gram = [[x if i == j else 0 for j, x in enumerate(sorted(lengths))] for i in range(d)]
    assert la.lll(gram) == (identity(d), identity(d))


@st.composite
def embeddings(draw, r: int, d: int):
    """A full-dimensional lattice polytope in R^r and an injective integer map to R^d."""
    coord = st.integers(min_value=-3, max_value=3)
    points = draw(st.lists(st.tuples(*([coord] * r)), min_size=r + 1, max_size=7))
    P = from_vertices(points)
    assume(P.is_full_dimensional)
    matrix = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=d, max_size=d))
    assume(rank_exact(matrix) == r)
    shift = draw(st.lists(entry, min_size=d, max_size=d))
    return points, P, matrix, shift


@given(st.one_of(embeddings(2, 4), embeddings(3, 5)))
@settings(max_examples=60, deadline=None)
def test_embedded_polytope_keeps_its_vertices(case):
    points, P, matrix, shift = case
    Q = from_vertices(image(points, matrix, shift))
    assert Q.dim == P.dim
    assert Q.halfspaces == () and Q.volume_d == 0
    assert Q.vertices == tuple(sorted(image(P.vertices, matrix, shift)))


@given(st.sampled_from([corpus.box(1, 1, 1, 1), corpus.simplex(5)]), st.data())
@settings(max_examples=20, deadline=None)
def test_unimodular_image_keeps_volume_and_vertices(P, data):
    d = P.ambient_dim
    matrix = data.draw(unimodular(d))
    assert abs(leibniz_det(matrix)) == 1
    shift = data.draw(st.lists(entry, min_size=d, max_size=d))
    Q = from_vertices(image(P.vertices, matrix, shift))
    assert Q.volume_d == P.volume_d
    assert len(Q.vertices) == len(P.vertices)
    assert len(Q.halfspaces) == len(P.halfspaces)
    assert Q.vertices == tuple(sorted(image(P.vertices, matrix, shift)))
