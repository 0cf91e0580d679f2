"""Graded quotient pieces and the multiplication-map surjectivity test."""

import importlib
from collections import Counter
from random import Random

import pytest

from oracles import (
    box_monomials_of_degree,
    exhaustive_term_rank,
    interior_point_counts,
    naive_rank,
    product_jacobian_rows,
    product_surjectivity,
    sampled_term_rank,
    uncovered_columns,
)
from util import (
    hermite_tetrahedra,
    random_polygon_prism,
    random_simplicial_polytope,
    random_support_polynomial,
    surjectivity_cases,
    toric_of,
)

from qfact import jacobian, linalg, toric
from qfact.certify import CertificationRequest, certify, sample_coefficients
from qfact.jacobian import (
    coverage,
    graded_piece,
    hilbert_profile,
    multiplication_surjective,
    uncovered_term_rank,
)
from qfact.lattice import convex_hull
from qfact.laurent import LaurentPolynomial, homogenize, parse_laurent
from qfact.linalg import IntMatrix, rank, rank_and_pivot_columns
from qfact.toric import (
    GradedDegree,
    anticanonical_degree,
    monomials_of_degree,
    polytope_degree,
)

SIMPLEX4 = convex_hull([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)])
SIMPLEX3 = convex_hull([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
CUBE2 = convex_hull([(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)])
DEMICUBE = convex_hull([(0, 0, 0), (2, 2, 0), (2, 0, 2), (0, 2, 2)])
PRISM3 = convex_hull([(x, y, z) for x, y in ((0, 0), (3, 0), (0, 3)) for z in (0, 1)])


def _setup(P, text=None, seed=0):
    T = toric_of(P)
    F = parse_laurent(text) if text else sample_coefficients(P, seed, 10)
    f = homogenize(F, P, T)
    beta = polytope_degree(T, P)
    beta0 = anticanonical_degree(T)
    return T, f, beta, beta0


def test_fermat_quartic_pieces():
    T, f, beta, beta0 = _setup(SIMPLEX4, "x^4 + y^4 + z^4 + 1")
    top = graded_piece(f, T, beta)
    assert (top.s_dimension, top.jacobian_rank, top.r_dimension) == (35, 16, 19)
    low = graded_piece(f, T, beta - beta0)
    assert (low.s_dimension, low.jacobian_rank, low.r_dimension) == (1, 0, 1)


def test_generic_cubic_pieces():
    T, f, beta, beta0 = _setup(SIMPLEX3)
    target = graded_piece(f, T, beta + beta - beta0)
    assert (target.s_dimension, target.jacobian_rank, target.r_dimension) == (10, 4, 6)
    assert graded_piece(f, T, beta - beta0).s_dimension == 0


def test_fermat_cubic_cross_check():
    T, f, beta, beta0 = _setup(SIMPLEX3, "x^3 + y^3 + z^3 + 1")
    target = graded_piece(f, T, beta + beta - beta0)
    assert target.jacobian_rank == 4


def test_quartic_multiplication_surjective():
    T, f, beta, beta0 = _setup(SIMPLEX4, "x^4 + y^4 + z^4 + 1")
    v = multiplication_surjective(f, T)
    assert v.surjective
    assert v.dims == (19, 1, 19)
    assert (v.image_rank, v.target_needed) == (35, 35)
    assert [p.degree for p in v.pieces] == [beta, beta - beta0, beta + beta - beta0]
    assert tuple(p.r_dimension for p in v.pieces) == v.dims


def test_cubic_multiplication_not_surjective():
    T, f, beta, beta0 = _setup(SIMPLEX3)
    v = multiplication_surjective(f, T)
    assert not v.surjective
    assert v.dims == (4, 0, 6)
    assert (v.image_rank, v.target_needed) == (4, 10)


def test_anticanonical_cube_certifies():
    T, f, beta, beta0 = _setup(CUBE2)
    assert beta == beta0
    v = multiplication_surjective(f, T)
    assert v.surjective
    assert v.dims == (17, 1, 17)
    assert (v.image_rank, v.target_needed) == (27, 27)


def test_torsion_case_certifies():
    T, f, beta, beta0 = _setup(DEMICUBE)
    assert beta == beta0
    v = multiplication_surjective(f, T)
    assert v.surjective
    assert v.dims == (7, 1, 7)
    assert (v.image_rank, v.target_needed) == (11, 11)


def test_unit_tensor_reduces_to_identity_map():
    # when beta = beta0 the right factor is spanned by the constant, so the
    # image contains the whole left quotient and surjectivity follows iff
    # the left piece already spans the target quotient
    T, f, beta, beta0 = _setup(CUBE2, seed=3)
    v = multiplication_surjective(f, T)
    left = graded_piece(f, T, beta)
    assert v.dims[0] == v.dims[2] == left.r_dimension


def test_empty_target_is_vacuously_surjective():
    unit = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    T, f, beta, beta0 = _setup(unit)
    v = multiplication_surjective(f, T)
    assert v.surjective
    assert (v.image_rank, v.target_needed) == (0, 0)
    assert v.dims == (0, 0, 0)


def test_dimension_formula_everywhere():
    rng = Random(97)
    for _ in range(6):
        P = random_simplicial_polytope(rng)
        T = toric_of(P)
        f = homogenize(random_support_polynomial(P, rng), P, T)
        beta = polytope_degree(T, P)
        beta0 = anticanonical_degree(T)
        for gamma in (beta, beta - beta0, beta + beta - beta0):
            piece = graded_piece(f, T, gamma)
            assert piece.r_dimension == piece.s_dimension - piece.jacobian_rank
            assert piece.jacobian_rank <= piece.s_dimension
            assert piece.s_dimension == len(monomials_of_degree(T, gamma))


def test_jacobian_rows_live_in_the_piece():
    T, f, beta, beta0 = _setup(SIMPLEX4, "x^4 + y^4 + z^4 + 1")
    piece = graded_piece(f, T, beta + beta - beta0)
    assert piece.jacobian_rows.ncols == piece.s_dimension
    assert rank(piece.jacobian_rows) == piece.jacobian_rank


@pytest.mark.parametrize(
    "P, text",
    [
        (convex_hull([(0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 5)]), None),
        (CUBE2, None),
        (DEMICUBE, None),
        (PRISM3, None),
        (SIMPLEX3, "1/2*x^3 + 2/3*y^3 - 3/4*z^3 + 5/6*x*y*z + 7/9*x^2*z - 1"),
        (convex_hull([(-1, 0, -2), (-1, 1, -1), (-1, 2, 2), (0, -2, -2)]), None),
        (SIMPLEX3, "x^3 + y^3 + 1"),
        (SIMPLEX4, "x^4 + 2*y^4 + 1/3*x*y"),
    ],
    ids=[
        "simplex5", "cube2", "torsion-simplex", "prism", "p-over-q", "tetrahedron",
        "zero-partial-3", "zero-partial-4",
    ],
)
def test_jacobian_rows_equal_the_product_oracle(P, text):
    # The coded exponent sums must give the rows of m * (d f / d z_i),
    # entry for entry and in order, in every piece the verdict uses. On the
    # tetrahedron, two basis monomials at degree beta have one code in base
    # (largest exponent) 2, so the radix must exceed it. The last two f miss
    # z, so one partial is zero and contributes no rows.
    T, f, beta, beta0 = _setup(P, text)
    for gamma in (beta, beta - beta0, beta + beta - beta0):
        piece = graded_piece(f, T, gamma)
        assert list(piece.jacobian_rows.entries) == product_jacobian_rows(f, T, gamma)


def test_jacobian_rows_of_an_empty_piece():
    # 3Δ has no interior lattice point: no monomial of degree beta - beta0
    T, f, beta, beta0 = _setup(SIMPLEX3)
    piece = graded_piece(f, T, beta - beta0)
    assert piece.monomial_basis == ()
    assert piece.jacobian_rows == IntMatrix(())
    assert product_jacobian_rows(f, T, beta - beta0) == []


def _prism(k):
    return convex_hull([(x, y, z) for x, y in ((0, 0), (k, 0), (0, k)) for z in (0, 1)])


@pytest.mark.parametrize(
    "P, size",
    [
        (PRISM3, 10),
        (_prism(4), 21),
        (_prism(5), 36),
        (convex_hull([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 1)]), 9),
        (convex_hull([(x, y, z) for x in (0, 3) for y in (0, 3) for z in (0, 1)]), 25),
        (convex_hull([(0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 2, 3)]), 3),
        (DEMICUBE, 0),
        (CUBE2, 0),
        (convex_hull([(0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 5)]), 0),
    ],
    ids=[
        "prism3", "prism4", "prism5", "slab2", "slab3",
        "torsion-simplex-3", "demicube", "cube2", "simplex5",
    ],
)
def test_uncovered_columns_match_the_tuple_sum_oracle(P, size):
    # U from tuple sums of the box-scanned bases, and the image rank from the
    # polynomial-product rows restricted to U, by Fraction elimination.
    T, f, beta, beta0 = _setup(P)
    bases = [box_monomials_of_degree(T, g) for g in (beta, beta - beta0, beta + beta - beta0)]
    U = uncovered_columns(*bases)
    assert len(U) == size
    rows = product_jacobian_rows(f, T, beta + beta - beta0)
    covered = len(bases[2]) - len(U)
    verdict = multiplication_surjective(f, T)
    assert verdict.uncovered == len(U)
    assert verdict.image_rank == covered + naive_rank([[r[j] for j in U] for r in rows])


def test_lift_independence_of_the_verdict():
    # the product-of-representatives oracle, under random lifts of its
    # representatives, agrees with the coverage test on every case
    for T, f, beta, beta0 in surjectivity_cases():
        v = multiplication_surjective(f, T)
        for trial in range(5):
            assert product_surjectivity(f, T, beta, beta0, Random(trial)) == (
                v.surjective, v.dims, v.image_rank, v.target_needed
            )


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_one_computation_per_graded_piece(monkeypatch):
    # 4Δ is reflexive: beta0 = beta, so the top degree 2*beta - beta0 is beta
    # again and its piece is built once. 3Δ has two distinct degrees with
    # rows; the middle piece, beta - beta0, has none and is only its basis.
    pieces = _counting(monkeypatch, jacobian, "graded_piece")
    for P, distinct in ((SIMPLEX4, 1), (SIMPLEX3, 2)):
        pieces.clear()
        report = certify(CertificationRequest(source_vertices=P.vertices))
        attempts = report.sample["attempt"] + 1
        assert len(pieces) == distinct * attempts
        assert len({args[2] for args in pieces}) == distinct
    T, f, beta, beta0 = _setup(SIMPLEX4)
    left, right, top = multiplication_surjective(f, T).pieces
    assert top is left and right.degree == beta - beta0


def test_no_stale_state_after_another_polynomial():
    # A piece of g on a T that has served f equals the piece on a fresh T.
    T, f, beta, beta0 = _setup(CUBE2)
    multiplication_surjective(f, T)
    g = homogenize(sample_coefficients(CUBE2, 1, 10), CUBE2, T)
    assert graded_piece(g, T, beta) == graded_piece(g, toric_of(CUBE2), beta)
    assert graded_piece(f, T, beta) == graded_piece(f, toric_of(CUBE2), beta)


@pytest.mark.parametrize(
    "P, image_rank, term_rank",
    [(PRISM3, 2, 2), (SIMPLEX3, 4, 4)],
    ids=["prism3", "simplex3"],
)
def test_no_second_rank_when_every_column_is_uncovered(
    monkeypatch, P, image_rank, term_rank
):
    # No product reaches the top piece, so U is every column and the rank on
    # U is the top piece's own: one rank call per graded piece with Jacobian
    # rows (beta and the top), none more.
    T, f, beta, beta0 = _setup(P)
    ranks = _counting(monkeypatch, jacobian, "rank")
    v = multiplication_surjective(f, T)
    top = v.pieces[2]
    assert v.uncovered == top.s_dimension == v.target_needed
    assert len(ranks) == 2
    rows = top.jacobian_rows.entries
    assert v.image_rank == naive_rank(rows) == image_rank
    # the sample has full support, so its pattern is the support's
    cover = coverage(T, beta)
    assert uncovered_term_rank(T, cover, f) == uncovered_term_rank(T, cover, None)
    assert uncovered_term_rank(T, cover, f) == exhaustive_term_rank(rows) == term_rank
    assert not v.surjective


def test_hall_from_the_support_is_the_sampled_term_rank():
    # The support-only term rank that certify reads before any sample equals
    # the one read off a full-support sample's rows, on the 1,325 Hermite
    # tetrahedra of volume <= 12 and 200 random draws; Hall's condition
    # fails on some and holds on others.
    polytopes = [convex_hull(v) for v in hermite_tetrahedra(12)]
    for helper in (random_simplicial_polytope, random_polygon_prism):
        polytopes += [helper(Random(seed)) for seed in range(100)]
    outcomes = Counter()
    for P in polytopes:
        T = toric_of(P)
        cover = coverage(T, polytope_degree(T, P))
        hall = uncovered_term_rank(T, cover, None)
        assert hall == sampled_term_rank(P), P.vertices
        outcomes["holds" if hall == len(cover.uncovered) else "fails"] += 1
    assert outcomes["holds"] and outcomes["fails"]


def test_sections_once_per_degree_across_attempts(monkeypatch):
    # The k=3 prism has no interior lattice point, so every sampled attempt
    # fails and asks for the codes of the same degrees; each degree is
    # scanned once per certify call, from the inverse of U that the rays'
    # Smith decomposition carries, so that is the only Smith decomposition.
    # Its failure is structural and would end sampling at attempt 0, so the
    # term rank is made to say that Hall's condition holds, and the vertex
    # member and all five attempts run.
    module = importlib.import_module("qfact.certify")
    monkeypatch.setattr(
        module, "uncovered_term_rank", lambda T, cover, f: len(cover.uncovered)
    )
    smiths = _counting(monkeypatch, toric, "smith_normal_form")
    requests = _counting(monkeypatch, jacobian, "monomial_codes")
    scans = _counting(monkeypatch, toric, "integer_lines")
    prism = tuple((x, y, z) for x, y in ((0, 0), (3, 0), (0, 3)) for z in (0, 1))
    report = certify(CertificationRequest(source_vertices=prism))
    assert report.verdict == "INCONCLUSIVE"
    assert report.sample["attempt"] == 4
    degrees = {gamma for _, gamma, _ in requests}
    assert len(degrees) > 2
    assert len(smiths) == 1
    assert len(requests) >= 6 * len(degrees)
    # one scan per degree, each from its own origin e0
    assert len(scans) == len(degrees) == len({tuple(e0) for _, e0 in scans})


def test_a_false_euler_relation_is_an_error(monkeypatch):
    # A weight that misses f's exponents: the exact check of w . e = 0 on
    # each exponent of f catches it before any row is left out, and certify
    # reports it instead of raising.
    real = jacobian._euler_weights

    def corrupted(T, beta):
        weights = real(T, beta)
        return [(weights[0][0] + 1,) + weights[0][1:]] + weights[1:]

    monkeypatch.setattr(jacobian, "_euler_weights", corrupted)
    T, f, beta, beta0 = _setup(CUBE2)
    with pytest.raises(AssertionError):
        graded_piece(f, T, beta)
    report = certify(CertificationRequest(source_vertices=CUBE2.vertices))
    assert report.verdict == "ERROR"
    assert report.reason.startswith("AssertionError:")


@pytest.mark.parametrize("axis, side", [(a, s) for a in range(3) for s in (0, 2)])
def test_rows_left_out_beside_a_zero_partial_keep_the_rank(axis, side):
    # f supported on one facet of [0,2]^3 has a zero partial: at a weight's
    # lead (the facets x = 2 and y = 2) there is no row to leave out, and
    # elsewhere the relations run through zero rows. Either way the rank of
    # the rows kept is that of every distinct row.
    points = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    facet = [m for m in points if m[axis] == side]
    F = LaurentPolynomial.from_terms([(m, k + 1) for k, m in enumerate(facet)])
    T = toric_of(CUBE2)
    f = homogenize(F, CUBE2, T)
    assert any(not any(e[i] for e, _ in f.terms) for i in range(T.nrays))
    beta, beta0 = polytope_degree(T, CUBE2), anticanonical_degree(T)
    for gamma in (beta, beta - beta0, beta + beta - beta0):
        piece = graded_piece(f, T, gamma)
        distinct = IntMatrix(tuple(dict.fromkeys(piece.jacobian_rows.entries)))
        assert piece.jacobian_rank == rank_and_pivot_columns(distinct)[0]


def test_rows_left_out_among_merged_rows_keep_the_rank():
    # Class rank 2, where two partials' multiples merge into one row: the
    # rank of the rows kept is that of every distinct row.
    vertices = [(-6, -6, -10), (-6, -4, -10), (-3, -3, -5)]
    vertices += [(-3, -1, -5), (-2, -2, -3), (-2, 0, -3)]
    P = convex_hull(vertices)
    T = toric_of(P)
    f = homogenize(sample_coefficients(P, 339, 1), P, T)
    piece = graded_piece(f, T, polytope_degree(T, P))
    distinct = IntMatrix(tuple(dict.fromkeys(piece.jacobian_rows.entries)))
    assert T.class_rank == 2
    assert (piece.jacobian_rows.nrows, distinct.nrows, piece.s_dimension) == (13, 10, 9)
    assert piece.jacobian_rank == rank_and_pivot_columns(distinct)[0] == 8


def _box(a, b, c):
    return convex_hull([(x, y, z) for x in (0, a) for y in (0, b) for z in (0, c)])


def test_frontier_ranks_need_no_bareiss(monkeypatch):
    # Rank-deficient pieces of class rank > 1, each settled by the Euler
    # relations and the mod-p rank; the ranks are the integer elimination's.
    bareiss = _counting(monkeypatch, linalg, "_echelon")
    cube4 = _box(4, 4, 4)
    report = certify(CertificationRequest(source_vertices=cube4.vertices))
    assert report.verdict == "CERTIFIED_Q_FACTORIAL"
    assert [p["rank_j"] for p in report.dimensions["profile"]] == [10, 0, 162]
    prisms = [
        convex_hull([(x, y, z) for x, y in ((0, 0), (k, 0), (0, k)) for z in (0, 1)])
        for k in range(3, 9)
    ]
    slabs = [_box(a, a, 1) for a in range(2, 6)]
    for P in [cube4, *prisms, *slabs]:
        T, f, beta, beta0 = _setup(P)
        del bareiss[:]
        for gamma in (beta, beta - beta0, beta + beta - beta0):
            graded_piece(f, T, gamma)
        assert bareiss == []


def test_basis_order_independence_of_ranks():
    T, f, beta, _ = _setup(SIMPLEX4, "x^4 + y^4 + z^4 + 1")
    piece = graded_piece(f, T, beta)
    rng = Random(13)
    perm = list(range(piece.s_dimension))
    rng.shuffle(perm)
    permuted = IntMatrix.from_rows(
        [[row[j] for j in perm] for row in piece.jacobian_rows.entries]
    )
    assert rank(permuted) == piece.jacobian_rank


def test_hilbert_profile_agrees_with_pieces():
    T, f, beta, beta0 = _setup(SIMPLEX4, "x^4 + y^4 + z^4 + 1")
    degrees = [T.degree_of_exponents((0,) * T.nrays), beta - beta0, beta]
    table = hilbert_profile(f, T, degrees)
    assert [row[0] for row in table] == degrees
    for gamma, s, j, r in table:
        piece = graded_piece(f, T, gamma)
        assert (s, j, r) == (piece.s_dimension, piece.jacobian_rank, piece.r_dimension)


def test_fermat_profile_palindrome():
    T, f, _, _ = _setup(SIMPLEX4, "x^4 + y^4 + z^4 + 1")
    degrees = [
        GradedDegree(free_part=(k,), torsion_part=(), torsion_moduli=())
        for k in range(9)
    ]
    table = hilbert_profile(f, T, degrees)
    assert [r for _, _, _, r in table] == [1, 4, 10, 16, 19, 16, 10, 4, 1]


def _sampled_verdict(P):
    T = toric_of(P)
    return multiplication_surjective(homogenize(sample_coefficients(P, 0, 10), P, T), T)


def test_dimensions_match_the_closed_forms_from_interior_point_counts():
    # For f with full support and generic coefficients (Batyrev-Cox,
    # Danilov-Khovanskii): dim R_(beta-beta0) = l*(P) and
    # dim R_(2beta-beta0) = l*(2P) - 4 l*(P) - sum over facets F of l*(F).
    # Their hypotheses go unchecked, so they are an oracle only.
    for helper in (random_simplicial_polytope, random_polygon_prism):
        for seed in range(40):
            P = helper(Random(seed))
            inner, inner2, on_facets = interior_point_counts(P)
            dims = _sampled_verdict(P).dims
            assert dims[1:] == (inner, inner2 - 4 * inner - on_facets), (helper, seed)


def test_the_middle_piece_has_no_jacobian_rows():
    # Its multipliers would have degree deg z_i - beta0: exponents
    # <u, v_j> - 1 + [j = i] >= 0, so <u, v_j> >= 1 for every j != i. A
    # complete fan has a relation sum_j c_j v_j = 0 with every c_j > 0, which
    # rules that out. So dim R_(beta-beta0) = l*(P) for every f, generic or not.
    polytopes = [
        convex_hull([(0, 0, 0), (k, 0, 0), (0, k, 0), (0, 0, k)]) for k in range(2, 8)
    ]
    polytopes += [CUBE2, DEMICUBE, PRISM3]
    polytopes.append(convex_hull([(a, b, c) for a in (0, 3) for b in (0, 3) for c in (0, 3)]))
    for helper in (random_simplicial_polytope, random_polygon_prism):
        polytopes += [helper(Random(seed)) for seed in range(40)]
    for P in polytopes:
        T, f, beta, beta0 = _setup(P)
        assert graded_piece(f, T, beta - beta0).jacobian_rows.nrows == 0, P


def test_every_tetrahedron_up_to_volume_12():
    # ROADMAP item 12's tier-1 slice, 1,325 Hermite forms, certified at seed
    # 0. The closed forms of ROADMAP item 7 hold on all of them; l, l* and
    # every dim S on the right come from the box oracles. The beta form
    # needs l*(P) >= 1; l(P) is dim S at beta.
    tally = Counter()
    beta_cases = 0
    for vertices in hermite_tetrahedra(12):
        report = certify(CertificationRequest(source_vertices=vertices))
        d = report.dimensions
        if report.verdict == "INCONCLUSIVE":
            assert d["term_rank"] < d["uncovered"], vertices
        else:
            assert report.verdict == "CERTIFIED_Q_FACTORIAL", (vertices, report.reason)
        left, right, top = d["profile"]
        P = convex_hull(vertices)
        inner, inner2, on_facets = interior_point_counts(P)
        assert (right["dim_r"], right["rank_j"]) == (inner, 0), vertices
        assert top["dim_r"] == inner2 - 4 * inner - on_facets, vertices
        if inner:
            beta_cases += 1
            T = toric_of(P)
            points = len(box_monomials_of_degree(T, polytope_degree(T, P)))
            rays = sum(len(box_monomials_of_degree(T, g)) for g in T.variable_degrees)
            assert left["dim_r"] == points - rays + T.class_rank - 1, vertices
        S, U = d["target_needed"], d["uncovered"]
        kind = "no top" if S == 0 else "U empty" if U == 0 else "U all" if U == S else "U part"
        tally[report.verdict[:4], kind] += 1
    assert beta_cases == 429
    assert tally == {
        ("CERT", "no top"): 71,
        ("CERT", "U empty"): 183,
        ("CERT", "U all"): 368,
        ("INCO", "U all"): 457,
        ("INCO", "U part"): 246,
    }


def test_closed_form_on_a_prism_without_interior_points():
    # A quadrilateral with one interior point times a unit segment: l*(P) = 0,
    # l*(2P) = 5, and each cap holds one relative-interior point. The top
    # piece has 5 columns and 2 rows of rank 2, so dim R = 5 - 0 - 2 = 3;
    # leaving out the caps' points would predict 5.
    P = random_polygon_prism(Random(5))
    v = _sampled_verdict(P)
    assert v.dims == (4, 0, 3)
    assert interior_point_counts(P) == (0, 5, 2)
    top = v.pieces[2].jacobian_rows
    assert (top.nrows, top.ncols, naive_rank(top.entries)) == (2, 5, 2)
