"""Class-group gradings: presentations, distinguished degrees, monomial bases."""

from random import Random

import pytest

from util import random_simplicial_polytope, toric_of

from qfact.errors import FanMismatch, NotSimplicial
from qfact.lattice import convex_hull, dot, lattice_points, normal_fan
from qfact.linalg import IntMatrix
from qfact.toric import (
    GradedDegree,
    anticanonical_degree,
    build_toric_data,
    monomials_of_degree,
    polytope_degree,
)

SIMPLEX4 = convex_hull([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)])
SIMPLEX3 = convex_hull([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
CUBE2 = convex_hull([(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)])
DEMICUBE = convex_hull([(0, 0, 0), (2, 2, 0), (2, 0, 2), (0, 2, 2)])
OCTAHEDRON = convex_hull(
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
)


def test_projective_space_presentation():
    T = toric_of(SIMPLEX4)
    assert T.nrays == 4
    assert T.class_rank == 1
    assert T.torsion == ()
    # all four variables generate the same hyperplane class
    assert all(d.free_part == (1,) and d.torsion_part == () for d in T.variable_degrees)
    assert anticanonical_degree(T).free_part == (4,)
    assert polytope_degree(T, SIMPLEX4).free_part == (4,)


def test_cubic_polytope_same_fan_different_degree():
    T = toric_of(SIMPLEX4)
    # the dilated simplex has the same normal fan, only offsets change
    assert normal_fan(SIMPLEX3).rays == T.rays
    assert polytope_degree(T, SIMPLEX3).free_part == (3,)


def test_product_of_lines_presentation():
    T = toric_of(CUBE2)
    assert T.nrays == 6
    assert T.class_rank == 3
    assert T.torsion == ()
    free = [d.free_part for d in T.variable_degrees]
    # opposite facets carry equal classes; together the three unit classes
    assert sorted(free) == [(0, 0, 1), (0, 0, 1), (0, 1, 0), (0, 1, 0), (1, 0, 0), (1, 0, 0)]
    assert anticanonical_degree(T).free_part == (2, 2, 2)
    assert polytope_degree(T, CUBE2) == anticanonical_degree(T)


def test_torsion_presentation():
    T = toric_of(DEMICUBE)
    assert T.class_rank == 1
    assert T.torsion == (2, 2)
    assert anticanonical_degree(T).free_part == (4,)
    assert anticanonical_degree(T).torsion_part == (0, 0)
    # the four variables hit all four torsion residues exactly once
    residues = sorted(d.torsion_part for d in T.variable_degrees)
    assert residues == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(d.free_part == (1,) for d in T.variable_degrees)


def test_non_simplicial_rejected():
    with pytest.raises(NotSimplicial):
        build_toric_data(normal_fan(OCTAHEDRON))


def test_anticanonical_is_sum_of_variable_degrees():
    rng = Random(17)
    for P in (SIMPLEX4, CUBE2, DEMICUBE, *(random_simplicial_polytope(rng) for _ in range(5))):
        T = toric_of(P)
        total = T.degree_of_exponents((0,) * T.nrays)
        for d in T.variable_degrees:
            total = total + d
        assert total == anticanonical_degree(T)


def test_lattice_directions_have_zero_class():
    rng = Random(27)
    for _ in range(10):
        T = toric_of(random_simplicial_polytope(rng))
        for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, 5)):
            image = tuple(dot(m, v) for v in T.rays)
            assert T.degree_of_exponents(image).is_zero


def test_degree_of_exponents_is_additive():
    rng = Random(37)
    for _ in range(10):
        T = toric_of(random_simplicial_polytope(rng))
        a = tuple(rng.randint(0, 4) for _ in range(T.nrays))
        b = tuple(rng.randint(0, 4) for _ in range(T.nrays))
        lhs = T.degree_of_exponents(tuple(x + y for x, y in zip(a, b)))
        rhs = T.degree_of_exponents(a) + T.degree_of_exponents(b)
        assert lhs == rhs


def test_degree_arithmetic():
    d = GradedDegree(free_part=(2, -1), torsion_part=(1,), torsion_moduli=(2,))
    e = GradedDegree(free_part=(1, 1), torsion_part=(1,), torsion_moduli=(2,))
    assert (d + e).free_part == (3, 0)
    assert (d + e).torsion_part == (0,)  # residues wrap modulo the invariant
    assert (d - e).free_part == (1, -2)
    assert (d - e).torsion_part == (0,)
    assert (d - d).is_zero
    zero = GradedDegree(free_part=(0, 0), torsion_part=(0,), torsion_moduli=(2,))
    assert zero.is_zero and not d.is_zero
    assert d + zero == d


def test_degree_validation():
    with pytest.raises(ValueError):
        GradedDegree(free_part=(1,), torsion_part=(2,), torsion_moduli=(2,))
    with pytest.raises(ValueError):
        GradedDegree(free_part=(1,), torsion_part=(0, 0), torsion_moduli=(2,))
    d = GradedDegree(free_part=(1,), torsion_part=(), torsion_moduli=())
    e = GradedDegree(free_part=(1, 1), torsion_part=(), torsion_moduli=())
    with pytest.raises(ValueError):
        d + e


def test_fan_mismatch_rejected():
    T = toric_of(CUBE2)
    with pytest.raises(FanMismatch):
        polytope_degree(T, SIMPLEX4)


def test_monomials_of_degree_examples():
    T = toric_of(SIMPLEX4)
    beta = polytope_degree(T, SIMPLEX4)
    quartics = monomials_of_degree(T, beta)
    assert len(quartics) == 35
    assert all(sum(e) == 4 and all(x >= 0 for x in e) for e in quartics)
    assert quartics == sorted(quartics)
    quartics.clear()
    assert len(monomials_of_degree(T, beta)) == 35
    zero = T.degree_of_exponents((0,) * T.nrays)
    assert monomials_of_degree(T, zero) == [(0, 0, 0, 0)]
    negative = zero - anticanonical_degree(T)
    assert monomials_of_degree(T, negative) == []


def test_monomials_of_degree_consistency():
    rng = Random(47)
    for _ in range(8):
        T = toric_of(random_simplicial_polytope(rng))
        gamma = anticanonical_degree(T)
        monos = monomials_of_degree(T, gamma)
        assert len(set(monos)) == len(monos)
        for e in monos:
            assert all(x >= 0 for x in e)
            assert T.degree_of_exponents(e) == gamma


def test_monomials_wrong_class_group_rejected():
    T = toric_of(SIMPLEX4)
    alien = GradedDegree(free_part=(1, 1), torsion_part=(), torsion_moduli=())
    with pytest.raises(ValueError):
        monomials_of_degree(T, alien)


def test_sections_match_lattice_points():
    # dim of the polytope-degree piece equals the lattice point count
    rng = Random(57)
    cases = [SIMPLEX4, SIMPLEX3, CUBE2, DEMICUBE]
    cases += [random_simplicial_polytope(rng) for _ in range(8)]
    for P in cases:
        T = toric_of(P)
        beta = polytope_degree(T, P)
        assert len(monomials_of_degree(T, beta)) == len(lattice_points(P))


def test_demicube_sections():
    T = toric_of(DEMICUBE)
    beta = polytope_degree(T, DEMICUBE)
    assert beta == anticanonical_degree(T)
    assert len(monomials_of_degree(T, beta)) == 11


def test_smith_presentation_consistency():
    # U (ray matrix) V = D must hold for the published decomposition
    rng = Random(67)
    for P in (SIMPLEX4, DEMICUBE, *(random_simplicial_polytope(rng) for _ in range(5))):
        T = toric_of(P)
        R = IntMatrix.from_rows(T.rays)
        assert T.smith.U.mul(R).mul(T.smith.V) == T.smith.D
        diag = T.smith.diagonal
        assert tuple(d for d in diag if d > 1) == T.torsion
        assert T.class_rank == T.nrays - 3
