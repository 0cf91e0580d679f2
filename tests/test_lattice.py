"""Hulls, lattice points and fans, checked against brute-force oracles."""

from random import Random

import pytest

from oracles import box_points, brute_facets, brute_vertices
from util import apply_matrix, random_polytope, random_unimodular

from qfact.errors import DegenerateHull
from qfact.lattice import (
    Facet,
    affine_rank,
    convex_hull,
    dot,
    is_simplicial,
    lattice_points,
    normal_fan,
)

SIMPLEX4 = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)]
CUBE2 = [(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)]
OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


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


def test_lattice_points_match_box_oracle():
    rng = Random(41)
    for _ in range(50):
        P = random_polytope(rng)
        pairs = [(f.normal, f.offset) for f in P.facets]
        assert lattice_points(P) == box_points(pairs, bound=4)


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


def test_gl3_equivariance():
    rng = Random(71)
    for _ in range(10):
        P = random_polytope(rng)
        A = random_unimodular(rng)
        Q = convex_hull([apply_matrix(A, v) for v in P.vertices])
        assert len(Q.vertices) == len(P.vertices)
        assert len(Q.facets) == len(P.facets)
        assert len(lattice_points(Q)) == len(lattice_points(P))
        assert sorted(apply_matrix(A, p) for p in lattice_points(P)) == lattice_points(Q)
        assert is_simplicial(normal_fan(Q)) == is_simplicial(normal_fan(P))


def test_affine_rank_examples():
    assert affine_rank([(3, 1, 4)]) == 0
    assert affine_rank([(0, 0, 0), (2, 2, 2)]) == 1
    assert affine_rank([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
    assert affine_rank(SIMPLEX4) == 3


def test_contains():
    P = convex_hull(SIMPLEX4)
    assert P.contains((1, 1, 1))
    assert P.contains((0, 0, 4))
    assert not P.contains((3, 3, 3))
    assert not P.contains((-1, 0, 0))


def test_facet_value_convention():
    f = Facet(normal=(1, 0, 0), offset=2)
    assert f.value((-2, 5, 5)) == 0
    assert f.value((0, 0, 0)) == 2
