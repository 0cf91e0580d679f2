"""Shared random generators for the property tests, and the sparse form of
integer rows. Everything is seeded."""

from random import Random

from qfact.certify import sample_coefficients
from qfact.errors import DegenerateHull
from qfact.lattice import convex_hull, is_simplicial, lattice_points, normal_fan
from qfact.laurent import LaurentPolynomial, homogenize, parse_laurent
from qfact.linalg import IntMatrix, SparseRows
from qfact.toric import anticanonical_degree, build_toric_data, polytope_degree


def random_int_matrix(rng: Random, nrows: int, ncols: int, bound: int = 9):
    return [
        [rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)
    ]


def sparse_rows(rows):
    """The (columns, values) rows of a list of integer rows, the form that
    `linalg._rank_mod_p` takes."""
    return SparseRows.of(IntMatrix.from_rows(rows)).rows


def random_polytope(rng: Random, bound: int = 3, npoints: int = 8):
    """Full-dimensional hull of a few random points in a small box."""
    while True:
        pts = [
            tuple(rng.randint(-bound, bound) for _ in range(3))
            for _ in range(npoints)
        ]
        try:
            return convex_hull(pts)
        except DegenerateHull:
            continue


def random_simplicial_polytope(rng: Random, bound: int = 2, npoints: int = 6):
    """Random polytope whose normal fan is simplicial: half the time a
    polygon prism (class rank at least 2), else the hull of random points,
    redrawn until its fan is simplicial (nearly always a tetrahedron)."""
    if rng.random() < 0.5:
        return random_polygon_prism(rng, bound=bound)
    while True:
        P = random_polytope(rng, bound=bound, npoints=npoints)
        if is_simplicial(normal_fan(P)):
            return P


def random_polygon_prism(rng: Random, bound: int = 3, height: int = 2):
    """A random lattice polygon times a segment of length at most height,
    mapped by a random unimodular matrix. Its normal fan is simplicial and
    its class rank is the polygon's edge count minus one, so at least 2."""
    while True:
        polygon = [
            (rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(5)
        ]
        h = rng.randint(1, height)
        try:
            P = convex_hull([(x, y, z) for x, y in polygon for z in (0, h)])
        except DegenerateHull:
            continue
        A = random_unimodular(rng, shears=3)
        return convex_hull([apply_matrix(A, v) for v in P.vertices])


def hermite_tetrahedra(max_volume: int):
    """Vertices of every lattice tetrahedron of normalized volume at most
    max_volume, up to affine unimodular maps and with repeats: conv(0, rows
    of H) for each lower triangular integer H with a positive diagonal and
    0 <= h_ij < h_ii for j < i. The edge vectors of any lattice tetrahedron, as the rows of a matrix E, have
    such a Hermite form H = E U with U unimodular (Cohen, "A Course in
    Computational Algebraic Number Theory", 2.4), and det H is the volume."""
    for a in range(1, max_volume + 1):
        for b in range(1, max_volume // a + 1):
            for c in range(1, max_volume // (a * b) + 1):
                for h21 in range(b):
                    for h31 in range(c):
                        for h32 in range(c):
                            yield ((0, 0, 0), (a, 0, 0), (h21, b, 0), (h31, h32, c))


def random_support_polynomial(P, rng: Random, bound: int = 9):
    """Nonzero coefficients on the full lattice support of a polytope."""
    pairs = []
    for m in lattice_points(P):
        k = rng.randrange(2 * bound)
        pairs.append((m, k - bound if k < bound else k - bound + 1))
    return LaurentPolynomial.from_terms(pairs)


def random_unimodular(rng: Random, shears: int = 6):
    """Random GL(3, Z) matrix as a product of elementary shears and swaps."""
    A = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(shears):
        i, j = rng.sample(range(3), 2)
        k = rng.choice((-2, -1, 1, 2))
        for col in range(3):
            A[i][col] += k * A[j][col]
        if rng.random() < 0.3:
            a, b = rng.sample(range(3), 2)
            A[a], A[b] = A[b], A[a]
        if rng.random() < 0.3:
            i = rng.randrange(3)
            A[i] = [-x for x in A[i]]
    return tuple(tuple(row) for row in A)


def apply_matrix(A, v):
    return tuple(sum(A[i][j] * v[j] for j in range(3)) for i in range(3))


def transform_polynomial(F: LaurentPolynomial, A) -> LaurentPolynomial:
    """Exponent substitution t -> t^A, i.e. m maps to A m."""
    return LaurentPolynomial.from_terms(
        (apply_matrix(A, e), c) for e, c in F.terms
    )


def toric_of(P):
    return build_toric_data(normal_fan(P))


def surjectivity_cases():
    """(T, f, beta, beta0) for the Fermat quartic, the generic cubic,
    [0,2]^3, the demicube and six random simplicial polytopes."""
    quartic = convex_hull([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)])
    pairs = [(quartic, parse_laurent("x^4 + y^4 + z^4 + 1"))]
    for verts in (
        [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)],
        [(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)],
        [(0, 0, 0), (2, 2, 0), (2, 0, 2), (0, 2, 2)],
    ):
        P = convex_hull(verts)
        pairs.append((P, sample_coefficients(P, 0, 10)))
    rng = Random(97)
    for _ in range(6):
        P = random_simplicial_polytope(rng)
        pairs.append((P, random_support_polynomial(P, rng)))
    cases = []
    for P, F in pairs:
        T = toric_of(P)
        cases.append(
            (T, homogenize(F, P, T), polytope_degree(T, P), anticanonical_degree(T))
        )
    return cases
