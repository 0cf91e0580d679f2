"""Parsing, Newton polytopes, and the homogenization round trip."""

from fractions import Fraction
from random import Random

import pytest

from oracles import coordinates, cox_product, dehomogenize
from util import (
    random_simplicial_polytope,
    random_support_polynomial,
    toric_of,
)

from qfact.errors import (
    DegenerateHull,
    EmptyPolynomial,
    FanMismatch,
    ParseError,
    SupportOutsidePolytope,
)
from qfact.lattice import convex_hull, lattice_points
from qfact.laurent import (
    CoxPolynomial,
    LaurentPolynomial,
    homogenize,
    newton_polytope,
    parse_laurent,
    partial_derivatives,
)
from qfact.linalg import IntMatrix, solve_integer
from qfact.toric import polytope_degree

SIMPLEX4 = convex_hull([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)])
DEMICUBE = convex_hull([(0, 0, 0), (2, 2, 0), (2, 0, 2), (0, 2, 2)])


def test_parse_reflexive_simplex_polynomial():
    F = parse_laurent("x + y + z + 1/(x*y*z)")
    assert F.terms == (
        ((-1, -1, -1), Fraction(1)),
        ((0, 0, 1), Fraction(1)),
        ((0, 1, 0), Fraction(1)),
        ((1, 0, 0), Fraction(1)),
    )


def test_parse_fermat_quartic():
    F = parse_laurent("x^4 + y^4 + z^4 + 1")
    assert F.support == ((0, 0, 0), (0, 0, 4), (0, 4, 0), (4, 0, 0))
    assert all(c == 1 for _, c in F.terms)


def test_parse_coefficients_and_signs():
    F = parse_laurent("2*x^2*y - 3/2*z^-1 + 1/2")
    lookup = dict(F.terms)
    assert lookup[(2, 1, 0)] == 2
    assert lookup[(0, 0, -1)] == Fraction(-3, 2)
    assert lookup[(0, 0, 0)] == Fraction(1, 2)


def test_parse_division_forms():
    assert parse_laurent("x/2").terms == (((1, 0, 0), Fraction(1, 2)),)
    assert parse_laurent("6/3").terms == (((0, 0, 0), Fraction(2)),)
    assert parse_laurent("x/y").terms == (((1, -1, 0), Fraction(1)),)
    assert parse_laurent("x*y^2*z^-3").terms == (((1, 2, -3), Fraction(1)),)
    assert parse_laurent("-x + x").is_zero


def test_parse_leading_sign_and_whitespace():
    assert parse_laurent("-x + y") == parse_laurent("  -  x  +  y ")
    assert dict(parse_laurent("-x + y").terms)[(1, 0, 0)] == -1
    assert parse_laurent("+x") == parse_laurent("x")


def test_parse_errors_with_positions():
    for text, pos in [("", 0), ("x +", 3), ("x^", 2), ("q", 0), ("x & y", 2)]:
        with pytest.raises(ParseError) as err:
            parse_laurent(text)
        assert err.value.position == pos
    with pytest.raises(ParseError):
        parse_laurent("1/0")
    with pytest.raises(ParseError):
        parse_laurent("x/0")
    with pytest.raises(ParseError):
        parse_laurent("(x+y)*z")  # only monomial subexpressions are allowed


def test_parse_nesting_depth():
    assert parse_laurent("(" * 50 + "2*x" + ")" * 50) == parse_laurent("2*x")
    assert parse_laurent("1/" + "(" * 50 + "x*y*z" + ")" * 50) == parse_laurent(
        "x^-1*y^-1*z^-1"
    )
    with pytest.raises(ParseError):
        parse_laurent("(" * 5000 + "x" + ")" * 5000)


@pytest.mark.parametrize(
    "text",
    ["\u00b2", "x^\u00b3", "2/\u00b9", "1" * 5000 + "*x"],
    ids=["superscript", "superscript-exponent", "superscript-denominator", "5000-digits"],
)
def test_parse_rejects_non_integer_digits(text):
    # each used to raise ValueError out of int()
    with pytest.raises(ParseError):
        parse_laurent(text)


def test_canonical_form():
    F = LaurentPolynomial.from_terms(
        [((1, 0, 0), 2), ((1, 0, 0), -2), ((0, 1, 0), Fraction(1, 3))]
    )
    assert F.terms == (((0, 1, 0), Fraction(1, 3)),)
    assert LaurentPolynomial.from_terms((e, 0 * c) for e, c in F.terms).is_zero
    tripled = LaurentPolynomial.from_terms((e, 3 * c) for e, c in F.terms)
    assert tripled.terms == (((0, 1, 0), Fraction(1)),)


def test_newton_polytope():
    F = parse_laurent("x^4 + y^4 + z^4 + 1")
    assert newton_polytope(F) == SIMPLEX4
    with pytest.raises(EmptyPolynomial):
        newton_polytope(LaurentPolynomial(()))
    with pytest.raises(DegenerateHull):
        newton_polytope(parse_laurent("x + y"))
    simplex = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    with pytest.raises(DegenerateHull, match="has 4 coordinates"):
        newton_polytope(LaurentPolynomial.from_terms((e, 1) for e in simplex))


def test_homogenize_fermat_quartic():
    T = toric_of(SIMPLEX4)
    F = parse_laurent("x^4 + y^4 + z^4 + 1")
    f = homogenize(F, SIMPLEX4, T)
    assert f.degree == polytope_degree(T, SIMPLEX4)
    # each input term becomes a pure 4th power of a single variable
    supports = sorted(e for e, _ in f.terms)
    expected = sorted(
        tuple(4 if j == i else 0 for j in range(4)) for i in range(4)
    )
    assert supports == expected
    assert all(c == 1 for _, c in f.terms)


def test_homogenize_places_exponents_by_ray():
    T = toric_of(SIMPLEX4)
    f = homogenize(parse_laurent("x^4"), SIMPLEX4, T)
    ((e, c),) = f.terms
    # exponent sits on the variable of the ray that pairs trivially with x^4
    i = T.rays.index((1, 0, 0))
    assert e[i] == 4 and sum(e) == 4
    g = homogenize(parse_laurent("1"), SIMPLEX4, T)
    ((e0, _),) = g.terms
    j = T.rays.index((-1, -1, -1))
    assert e0[j] == 4 and sum(e0) == 4


def test_homogenize_guards():
    T = toric_of(SIMPLEX4)
    with pytest.raises(EmptyPolynomial):
        homogenize(LaurentPolynomial(()), SIMPLEX4, T)
    with pytest.raises(SupportOutsidePolytope):
        homogenize(parse_laurent("x^5 + 1 + y"), SIMPLEX4, T)
    # the first support point outside, in sorted order, is the one named
    outside = r"^support point \(0, 0, -1\) lies outside the polytope$"
    with pytest.raises(SupportOutsidePolytope, match=outside):
        homogenize(parse_laurent("x^5 + 1 + y + z^-1"), SIMPLEX4, T)
    cube = convex_hull([(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)])
    with pytest.raises(FanMismatch):
        homogenize(parse_laurent("x + 1"), cube, T)


def test_homogenize_names_the_first_outside_point_in_term_order():
    # Exponents are built ray by ray. (-1, 0, 0) breaks only the last facet
    # of 4Δ, x >= 0, and (0, 0, 5) only the first, x + y + z <= 4; the
    # message names the point that comes first among the terms.
    T = toric_of(SIMPLEX4)
    assert [f.normal for f in SIMPLEX4.facets][::3] == [(-1, -1, -1), (1, 0, 0)]
    F = parse_laurent("z^5 + 1 + y + x^-1")
    assert F.support == ((-1, 0, 0), (0, 0, 0), (0, 0, 5), (0, 1, 0))
    outside = r"^support point \(-1, 0, 0\) lies outside the polytope$"
    with pytest.raises(SupportOutsidePolytope, match=outside):
        homogenize(F, SIMPLEX4, T)


def test_homogenize_is_linear():
    T = toric_of(SIMPLEX4)
    F = parse_laurent("x^4 + 2*y^2 - z")
    G = parse_laurent("7 - y^2 + x*y*z")
    merged = CoxPolynomial.from_terms(
        homogenize(F, SIMPLEX4, T).terms + homogenize(G, SIMPLEX4, T).terms,
        polytope_degree(T, SIMPLEX4),
    )
    F_plus_G = LaurentPolynomial.from_terms(F.terms + G.terms)
    assert merged == homogenize(F_plus_G, SIMPLEX4, T)


def test_partial_derivatives_of_fermat():
    T = toric_of(SIMPLEX4)
    f = homogenize(parse_laurent("x^4 + y^4 + z^4 + 1"), SIMPLEX4, T)
    partials = partial_derivatives(f, T)
    assert len(partials) == 4
    for i, p in enumerate(partials):
        ((e, c),) = p.terms
        assert c == 4
        assert e[i] == 3 and sum(e) == 3
        assert p.degree == f.degree - T.variable_degrees[i]
        assert T.degree_of_exponents(e) == p.degree


def test_partials_are_canonical():
    # The partials are built without re-sorting: their terms must still be
    # what from_terms would make of them, sorted with distinct exponents.
    rng = Random(23)
    for _ in range(10):
        P = random_simplicial_polytope(rng)
        T = toric_of(P)
        f = homogenize(random_support_polynomial(P, rng), P, T)
        for p in partial_derivatives(f, T):
            assert p == CoxPolynomial.from_terms(p.terms, p.degree)
            exponents = [e for e, _ in p.terms]
            assert exponents == sorted(set(exponents))
            assert all(isinstance(c, Fraction) and c for _, c in p.terms)


def test_zero_partial_keeps_its_degree():
    T = toric_of(SIMPLEX4)
    f = homogenize(parse_laurent("x^4"), SIMPLEX4, T)
    partials = partial_derivatives(f, T)
    zero_ones = [p for p in partials if not p.terms]
    assert len(zero_ones) == 3
    for i, p in enumerate(partials):
        assert p.degree == f.degree - T.variable_degrees[i]


def test_product_adds_degrees():
    unit = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    T = toric_of(unit)
    f = homogenize(parse_laurent("x + y"), unit, T)
    square = cox_product(f, f)
    assert square.degree == f.degree + f.degree
    assert len(square.terms) == 3  # x^2, 2xy, y^2
    assert Fraction(2) in dict(square.terms).values()


def test_dehomogenize_round_trip_examples():
    T = toric_of(SIMPLEX4)
    for text in ("x^4 + y^4 + z^4 + 1", "x^2*y*z - 3", "x + y + z"):
        F = parse_laurent(text)
        assert dehomogenize(homogenize(F, SIMPLEX4, T), SIMPLEX4, T) == F


def test_dehomogenize_round_trip_random():
    rng = Random(87)
    for _ in range(25):
        P = random_simplicial_polytope(rng)
        T = toric_of(P)
        F = random_support_polynomial(P, rng)
        f = homogenize(F, P, T)
        assert dehomogenize(f, P, T) == F


def test_dehomogenize_round_trip_with_torsion():
    # the demicube's rays span an index-4 sublattice: class group torsion (2, 2)
    T = toric_of(DEMICUBE)
    assert T.torsion == (2, 2)
    F = LaurentPolynomial.from_terms(
        (m, k + 1) for k, m in enumerate(lattice_points(DEMICUBE))
    )
    f = homogenize(F, DEMICUBE, T)
    assert dehomogenize(f, DEMICUBE, T) == F
    # solve_integer on the rays finds the same lattice point for every
    # monomial (the coefficients are distinct, so each term is matched)
    rays = IntMatrix(T.rays)
    offsets = [fc.offset for fc in DEMICUBE.facets]
    solved = [
        (solve_integer(rays, [x - a for x, a in zip(e, offsets)]), c) for e, c in f.terms
    ]
    assert LaurentPolynomial.from_terms(solved) == F
    # exponents minus offsets equal the rays paired with (1, 3/2, 3/2):
    # a rational solution that is not a lattice point
    assert T.rays == ((-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))
    assert offsets == [4, 0, 0, 0]
    half = CoxPolynomial.from_terms([((0, 2, 1, 1), 1)], polytope_degree(T, DEMICUBE))
    with pytest.raises(ValueError):
        dehomogenize(half, DEMICUBE, T)
    assert solve_integer(rays, (-4, 2, 1, 1)) is None


def test_dehomogenize_round_trip_full_support_simplex5():
    P = convex_hull([(0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 5)])
    T = toric_of(P)
    points = lattice_points(P)
    F = LaurentPolynomial.from_terms((m, k + 1) for k, m in enumerate(points))
    assert len(F.terms) == 56
    assert dehomogenize(homogenize(F, P, T), P, T) == F


def test_dehomogenize_unit_monomials():
    T = toric_of(SIMPLEX4)
    beta = polytope_degree(T, SIMPLEX4)
    offsets = tuple(fc.offset for fc in SIMPLEX4.facets)
    unit = CoxPolynomial.from_terms([(offsets, 1)], beta)
    assert dehomogenize(unit, SIMPLEX4, T) == parse_laurent("1")
    i = T.rays.index((1, 0, 0))
    power = CoxPolynomial.from_terms(
        [(tuple(4 if j == i else 0 for j in range(4)), 1)], beta
    )
    assert dehomogenize(power, SIMPLEX4, T) == parse_laurent("x^4")


def test_coordinates_in_basis():
    T = toric_of(SIMPLEX4)
    f = homogenize(parse_laurent("x^4 + 2"), SIMPLEX4, T)
    i = T.rays.index((1, 0, 0))
    j = T.rays.index((-1, -1, -1))
    mono_x = tuple(4 if k == i else 0 for k in range(4))
    mono_1 = tuple(4 if k == j else 0 for k in range(4))
    row = coordinates(f, [mono_1, mono_x])
    assert row == (Fraction(2), Fraction(1))
    with pytest.raises(ValueError):
        coordinates(f, [mono_1])  # basis misses a monomial of f
