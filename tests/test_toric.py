"""Class-group gradings: presentations, distinguished degrees, monomial bases."""

from itertools import product
from random import Random

import pytest

from oracles import box_monomials_of_degree, box_points
from util import apply_matrix, random_simplicial_polytope, toric_of

from qfact.errors import FanMismatch, NotSimplicial
from qfact.lattice import (
    convex_hull,
    dot,
    integer_lines,
    lattice_points,
    normal_fan,
    scan_chart,
)
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


# The `sheared` benchmark workload's matrix, and the shear of the frontier
# suite's sheared cube, whose image of [0,2]^3 has a 2003 x 2003 x 3 bounding box.
CORPUS_SHEAR = ((15, 2, 9), (4, 1, 3), (2, 0, 1))
WIDE_SHEAR = ((1, 1000, 0), (0, 1, 1000), (0, 0, 1))
PRISM3 = convex_hull([(x, y, z) for x, y in ((0, 0), (3, 0), (0, 3)) for z in (0, 1)])


def _vertex_box(P):
    return [(min(v[k] for v in P.vertices), max(v[k] for v in P.vertices)) for k in range(3)]


def _degrees(T, P):
    """beta, 2 beta - beta0 and beta - beta0 of the polytope P on T."""
    beta, beta0 = polytope_degree(T, P), anticanonical_degree(T)
    return beta, beta + beta - beta0, beta - beta0


def _tight(P, f):
    return frozenset(v for v in P.vertices if f.value(v) == 0)


def test_line_expansion_matches_box_scans():
    """lattice_points and monomials_of_degree expand each scan line with
    ranges, or repeats where a coordinate's step along the line is 0. On
    the images under the corpus shear and its negative (the corpus composes
    it with signed permutations) of the demicube, the octahedron (its fan is
    not simplicial: points only) and prism3, they match the box oracles
    list for list, at the degrees beta, 2 beta - beta0 and beta - beta0 (an
    empty fiber on prism3, which has no interior point). The charts between
    them step by negative, zero and positive amounts along z, and some
    lines hold one point."""
    point_steps, monomial_steps, run_lengths = set(), set(), set()
    flipped = tuple(tuple(-x for x in row) for row in CORPUS_SHEAR)
    for V, A in product((DEMICUBE, OCTAHEDRON, PRISM3), (CORPUS_SHEAR, flipped)):
        P = convex_hull([apply_matrix(A, v) for v in V.vertices])
        fan = normal_fan(P)
        facets = [(f.normal, f.offset) for f in P.facets]
        assert lattice_points(P) == box_points(facets, _vertex_box(P))
        normals = [tuple(dot(c, f.normal) for c in scan_chart(fan)) for f in P.facets]
        lines = integer_lines(normals, [f.offset for f in P.facets])
        point_steps.update(scan_chart(fan)[2])
        run_lengths.update(hi - lo + 1 for _, _, lo, hi in lines)
        if V is OCTAHEDRON:
            continue
        T = build_toric_data(fan)
        monomial_steps.update(w[2] for w in T.scan_rays)
        beta, top, interior = _degrees(T, P)
        for gamma in (beta, top, interior):
            assert monomials_of_degree(T, gamma) == box_monomials_of_degree(T, gamma)
        assert (monomials_of_degree(T, interior) == []) == (V is PRISM3)
    assert {(s > 0) - (s < 0) for s in point_steps} == {-1, 0, 1}
    assert {(s > 0) - (s < 0) for s in monomial_steps} == {-1, 0, 1}
    assert 1 in run_lengths and max(run_lengths) > 1


def test_line_expansion_on_a_wide_shear():
    """[0,2]^3 under WIDE_SHEAR: its boxes are too large to scan, so the
    oracles scan [0,2]^3 itself, and its points and monomials are carried
    over by the shear and by the facet each facet maps to."""
    P = CUBE2
    Q = convex_hull([apply_matrix(WIDE_SHEAR, v) for v in P.vertices])
    facets = [(f.normal, f.offset) for f in P.facets]
    expected = sorted(apply_matrix(WIDE_SHEAR, m) for m in box_points(facets, 2))
    assert lattice_points(Q) == expected
    image = {
        frozenset(apply_matrix(WIDE_SHEAR, v) for v in _tight(P, f)): i
        for i, f in enumerate(P.facets)
    }
    source = [image[_tight(Q, g)] for g in Q.facets]
    TP, TQ = toric_of(P), toric_of(Q)
    assert {(w[2] > 0) - (w[2] < 0) for w in TQ.scan_rays} == {-1, 0, 1}
    for gamma_P, gamma_Q in zip(_degrees(TP, P), _degrees(TQ, Q)):
        expected = [tuple(e[i] for i in source) for e in box_monomials_of_degree(TP, gamma_P)]
        assert monomials_of_degree(TQ, gamma_Q) == sorted(expected)
