"""Hulls, lattice points and fans, checked against brute-force oracles."""

from itertools import product
from random import Random

import pytest

from oracles import box_points, brute_facets, brute_vertices, naive_rank
from util import apply_matrix, random_polytope, random_unimodular

from qfact.errors import DegenerateHull
from qfact.lattice import (
    Facet,
    NormalFan,
    _independent_points,
    convex_hull,
    dot,
    is_simplicial,
    lattice_points,
    normal_fan,
    scan_chart,
    sub,
)

SIMPLEX4 = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)]
CUBE2 = [(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)]
OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
DEMICUBE = [(0, 0, 0), (2, 2, 0), (2, 0, 2), (0, 2, 2)]
SHEAR = ((1, 1000, 0), (0, 1, 1000), (0, 0, 1))
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def affine_rank(points) -> int:
    """Dimension of the affine span of a nonempty point set, by the oracle's
    rank of the differences to the first point."""
    return naive_rank([sub(p, points[0]) for p in points[1:]])


def test_simplex_hull():
    P = convex_hull(SIMPLEX4)
    assert P.vertices == ((0, 0, 0), (0, 0, 4), (0, 4, 0), (4, 0, 0))
    assert [(f.normal, f.offset) for f in P.facets] == [
        ((-1, -1, -1), 4),
        ((0, 0, 1), 0),
        ((0, 1, 0), 0),
        ((1, 0, 0), 0),
    ]


def test_hull_drops_interior_and_duplicate_points():
    P = convex_hull(SIMPLEX4 + [(1, 1, 1), (0, 0, 0), (2, 0, 0)])
    assert P == convex_hull(SIMPLEX4)


def test_degenerate_hulls_rejected():
    with pytest.raises(DegenerateHull):
        convex_hull([])
    with pytest.raises(DegenerateHull):
        convex_hull([(1, 2, 3)])
    with pytest.raises(DegenerateHull):
        convex_hull([(0, 0, 0), (5, 0, 0)])
    with pytest.raises(DegenerateHull):
        convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (3, 4, 0)])


def test_octahedron_hull():
    P = convex_hull(OCTAHEDRON)
    assert len(P.vertices) == 6
    assert len(P.facets) == 8
    assert all(f.offset == 1 for f in P.facets)
    assert sorted(f.normal for f in P.facets) == sorted(
        (a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)
    )
    assert lattice_points(P) == sorted(OCTAHEDRON + [(0, 0, 0)])


def test_facet_inequalities_are_tight_and_valid():
    rng = Random(11)
    for _ in range(20):
        P = random_polytope(rng)
        for f in P.facets:
            values = [f.value(v) for v in P.vertices]
            assert min(values) == 0
            tight = [v for v, s in zip(P.vertices, values) if s == 0]
            assert affine_rank(tight) == 2


def test_lattice_points_examples():
    assert len(lattice_points(convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]))) == 10
    assert len(lattice_points(convex_hull(CUBE2))) == 27
    unit = convex_hull([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    assert len(lattice_points(unit)) == 8
    assert lattice_points(unit)[0] == (0, 0, 0)


def test_hull_idempotence():
    rng = Random(21)
    for _ in range(25):
        P = random_polytope(rng)
        assert convex_hull(lattice_points(P)) == P
        assert convex_hull(P.vertices) == P


def test_hull_matches_brute_force_oracle():
    rng = Random(31)
    trials = 0
    while trials < 50:
        pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(7)]
        try:
            P = convex_hull(pts)
        except DegenerateHull:
            continue
        trials += 1
        expected = brute_facets(pts)
        assert {(f.normal, f.offset) for f in P.facets} == {
            (n, a) for n, a in expected
        }
        assert set(P.vertices) == set(brute_vertices(pts))


def _signed_permutation(rng):
    perm = rng.sample(range(3), 3)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    return lambda v: tuple(s * v[i] for s, i in zip(signs, perm))


def test_hull_does_not_depend_on_order():
    # Shuffling the input, and mapping it by a signed coordinate permutation
    # (which changes both the extreme points visited first and the sorted
    # order of the rest), must give the same hull, mapped.
    rng = Random(81)
    trials = 0
    while trials < 30:
        pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(5, 30))]
        try:
            P = convex_hull(pts)
        except DegenerateHull:
            continue
        trials += 1
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert convex_hull(shuffled) == P
        g = _signed_permutation(rng)
        Q = convex_hull([g(p) for p in shuffled])
        assert set(Q.vertices) == {g(v) for v in P.vertices}
        assert {(f.normal, f.offset) for f in Q.facets} == {
            (g(f.normal), f.offset) for f in P.facets
        }


def _assert_matches_oracle(pts):
    P = convex_hull(pts)
    assert {(f.normal, f.offset) for f in P.facets} == brute_facets(pts)
    assert list(P.vertices) == brute_vertices(pts)
    # The hull's facet self-check asks only for three independent tight
    # vertices; it must find them whichever vertex comes first.
    for f in P.facets:
        tight = [v for v in P.vertices if f.value(v) == 0]
        for k in range(len(tight)):
            assert len(_independent_points(tight[k:] + tight[:k])) == 3


def test_hull_matches_oracle_on_many_coplanar_points():
    # boxes and prisms over a quadrilateral: facets with four vertices
    for a, b, c in ((1, 1, 1), (2, 3, 5), (4, 4, 1)):
        _assert_matches_oracle([(x, y, z) for x in (0, a) for y in (0, b) for z in (0, c)])
    for k in (2, 3, 5):
        quad = ((0, 0), (k, 0), (0, k), (k, k - 1))
        _assert_matches_oracle([(x, y, z) for x, y in quad for z in (0, 1)])
    ball = [p for p in product(range(-2, 3), repeat=3) if dot(p, p) <= 4]
    assert len(ball) == 33
    _assert_matches_oracle(ball)
    rng = Random(91)
    trials = 0
    while trials < 30:
        pts = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(12, 20))]
        if affine_rank(pts) < 3:
            continue
        trials += 1
        _assert_matches_oracle(pts)


def test_hull_matches_oracle_on_points_tied_in_distance_from_the_centroid():
    # {-1, 0, 1}^3 without the origin: the hull visits its points farthest
    # from the centroid (the origin) first, and the 8 corners, the 12 edge
    # midpoints and the 6 face centres each tie. Scaled by 10^30 too.
    shell = [p for p in product((-1, 0, 1), repeat=3) if p != (0, 0, 0)]
    for scale in (1, 10**30):
        _assert_matches_oracle([tuple(scale * x for x in p) for p in shell])


def test_full_lattice_supports_hull_to_simplex_and_cube():
    simplex5 = [p for p in product(range(6), repeat=3) if sum(p) <= 5]
    assert len(simplex5) == 56
    assert convex_hull(simplex5) == convex_hull(
        [(0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 5)]
    )
    assert [(f.normal, f.offset) for f in convex_hull(simplex5).facets] == [
        ((-1, -1, -1), 5),
        ((0, 0, 1), 0),
        ((0, 1, 0), 0),
        ((1, 0, 0), 0),
    ]
    cube3 = list(product(range(4), repeat=3))
    P = convex_hull(cube3)
    assert P.vertices == tuple(product((0, 3), repeat=3))
    assert [(f.normal, f.offset) for f in P.facets] == [
        ((-1, 0, 0), 3),
        ((0, -1, 0), 3),
        ((0, 0, -1), 3),
        ((0, 0, 1), 0),
        ((0, 1, 0), 0),
        ((1, 0, 0), 0),
    ]


def test_lattice_points_match_box_oracle():
    rng = Random(41)
    for _ in range(50):
        P = random_polytope(rng)
        pairs = [(f.normal, f.offset) for f in P.facets]
        assert lattice_points(P) == box_points(pairs, bound=4)


def test_ball_lattice_points_match_box_oracle():
    # 80 facets: eliminating y combines only rows that share an input row
    # (Kohler's rule), and that must not change a single point.
    ball = [p for p in product(range(-5, 6), repeat=3) if dot(p, p) <= 25]
    P = convex_hull(ball)
    assert len(P.facets) == 80
    pairs = [(f.normal, f.offset) for f in P.facets]
    assert lattice_points(P) == box_points(pairs, bound=5) == ball


def test_normal_fan_structure():
    P = convex_hull(SIMPLEX4)
    fan = normal_fan(P)
    assert fan.rays == tuple(f.normal for f in P.facets)
    assert len(fan.maximal_cones) == len(P.vertices)
    # the cone at a vertex indexes exactly the facets through it
    for v, cone in zip(P.vertices, fan.maximal_cones):
        for i, f in enumerate(P.facets):
            assert (f.value(v) == 0) == (i in cone)


def test_vertex_minimizes_its_cone_directions():
    rng = Random(61)
    for _ in range(15):
        P = random_polytope(rng)
        fan = normal_fan(P)
        for v, cone in zip(P.vertices, fan.maximal_cones):
            w = tuple(sum(fan.rays[i][k] for i in cone) for k in range(3))
            assert all(dot(w, v) <= dot(w, u) for u in P.vertices)


def test_is_simplicial_cases():
    assert is_simplicial(normal_fan(convex_hull(SIMPLEX4)))
    assert is_simplicial(normal_fan(convex_hull(CUBE2)))
    assert not is_simplicial(normal_fan(convex_hull(OCTAHEDRON)))
    # three rays in one plane do not span a cone of dimension 3
    flat = NormalFan(rays=((1, 0, 0), (0, 1, 0), (1, 1, 0)), maximal_cones=((0, 1, 2),))
    assert not is_simplicial(flat)
    tilted = NormalFan(rays=((1, 0, 0), (0, 1, 0), (1, 1, 1)), maximal_cones=((0, 1, 2),))
    assert is_simplicial(tilted)


def test_gl3_equivariance():
    """Random polytopes under random GL3(Z) matrices; the cube under a shear
    that stretches its bounding box to 2003 x 2003 x 3; and, in the identity
    scan chart, the demicube (no unimodular cone) and the octahedron (four
    facets at each vertex, none of whose triples is unimodular)."""
    rng = Random(71)
    cases = [(random_polytope(rng), random_unimodular(rng)) for _ in range(10)]
    cases.append((convex_hull(CUBE2), SHEAR))
    cases += [(convex_hull(V), random_unimodular(rng)) for V in (DEMICUBE, OCTAHEDRON)]
    assert scan_chart(normal_fan(convex_hull(CUBE2))) != IDENTITY
    for V in (DEMICUBE, OCTAHEDRON):
        assert scan_chart(normal_fan(convex_hull(V))) == IDENTITY
    for P, A in cases:
        Q = convex_hull([apply_matrix(A, v) for v in P.vertices])
        assert len(Q.vertices) == len(P.vertices)
        assert len(Q.facets) == len(P.facets)
        assert len(lattice_points(Q)) == len(lattice_points(P))
        assert sorted(apply_matrix(A, p) for p in lattice_points(P)) == lattice_points(Q)
        assert is_simplicial(normal_fan(Q)) == is_simplicial(normal_fan(P))


@pytest.mark.parametrize(
    "points, count",
    [([(0, 0, 0, 9), (1, 0, 0, 9), (0, 1, 0, 9), (0, 0, 1, 9)], 4),
     ([(0, 0), (1, 0), (0, 1)], 2),
     (SIMPLEX4 + [(1, 1)], 2)],
    ids=["four", "two", "one_short"],
)
def test_hull_rejects_points_without_three_coordinates(points, count):
    with pytest.raises(DegenerateHull, match=f"has {count} coordinates, need 3"):
        convex_hull(points)


def test_affine_rank_examples():
    assert affine_rank([(3, 1, 4)]) == 0
    assert affine_rank([(0, 0, 0), (2, 2, 2)]) == 1
    assert affine_rank([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
    assert affine_rank(SIMPLEX4) == 3
    # the greedy search behind the hull's seed and facet check finds one
    # point more than the affine rank, and none in an empty set
    for pts in (
        [],
        [(1, 2, 3)],
        [(0, 0, 0), (0, 0, 5)],
        [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
        [(3, -1, 2), (5, 0, 0), (1, -2, 4), (7, 1, -2)],
        [(0, 0, 0), (1, 1, 1), (2, 2, 3)],
        [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 0, 1)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
    ):
        assert len(_independent_points(pts)) == (affine_rank(pts) + 1 if pts else 0)


def test_facet_value_convention():
    f = Facet(normal=(1, 0, 0), offset=2)
    assert f.value((-2, 5, 5)) == 0
    assert f.value((0, 0, 0)) == 2
