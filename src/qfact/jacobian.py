"""Graded pieces of the coordinate ring modulo the partial-derivative ideal,
and the surjectivity test for the multiplication map between them.

Everything reduces to exact rank computations: a graded piece is a monomial
basis plus the rows spanning the ideal's slice in that basis, and the
quotient dimension is basis size minus row rank.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from operator import mul

from .laurent import CoxPolynomial
from .linalg import IntMatrix, rank, term_rank
from .toric import (
    GradedDegree,
    ToricData,
    _euler_weights,
    anticanonical_degree,
    code_radix,
    monomial_codes,
)


class GradedPiece(
    namedtuple("GradedPiece", "degree codes radix nrays jacobian_rows jacobian_rank")
):
    """One degree slice: monomial basis, ideal rows, quotient dimension.

    The ideal's rows are those of the partials of f scaled by the lcm of
    f's coefficient denominators, so they are integers and span the same
    slice. There is one row per monomial multiple of a partial, repeats
    included, so that the rows' zero pattern depends on f's support alone.

    Fields: the GradedDegree, the basis as `monomial_codes` in base radix of
    nrays exponents (monomial_basis decodes it), the rows and their rank.
    """

    __slots__ = ()

    @property
    def monomial_basis(self) -> tuple:
        powers = [self.radix**t for t in range(self.nrays - 1, -1, -1)]
        return tuple(tuple(c // p % self.radix for p in powers) for c in self.codes)

    @property
    def s_dimension(self) -> int:
        return len(self.codes)

    @property
    def r_dimension(self) -> int:
        return len(self.codes) - self.jacobian_rank


class SurjectivityVerdict(
    namedtuple(
        "SurjectivityVerdict",
        "surjective dims image_rank target_needed uncovered term_rank pieces",
    )
):
    """Outcome of the multiplication-map test.

    pieces holds the graded pieces at the (left, right, target) degrees
    beta, beta - beta0 and 2*beta - beta0, and dims their quotient
    dimensions. image_rank is the dimension of the span of the products
    and the ideal inside the target degree: the number of target monomials
    that are a product of two source monomials, plus the rank of the
    ideal's rows restricted to the remaining, uncovered columns. It is
    compared with target_needed, the full dimension of the target's
    monomial basis.

    uncovered is the number of uncovered columns, and term_rank the term
    rank of the ideal's rows on them: an upper bound on their rank for
    every f with the same support. It is only computed when the rank falls
    short of uncovered; otherwise it equals uncovered.
    """

    __slots__ = ()


def graded_piece(f: CoxPolynomial, T: ToricData, gamma: GradedDegree) -> GradedPiece:
    """Degree-gamma slice of the ring modulo the partials of f.

    The ideal's slice is spanned by monomial multiples of the partials:
    for the i-th partial (of degree beta - deg z_i) every monomial of
    degree gamma - (beta - deg z_i) contributes one row. Scaling f by the
    lcm of its coefficient denominators leaves the ideal unchanged and
    makes every row integral. Monomials are `monomial_codes` in the radix of
    beta = deg f, 2*beta - beta0 and gamma, and the rows come from f's coded
    terms: the i-th partial has a term c * e_i at code(e) - code(1_i) for
    each term c z^e of f with e_i > 0. The rank is taken on distinct rows.

    Some rows are left out of that rank, as the Euler formula makes them
    dependent: sum_i w_i z_i (d f / d z_i) = sum_e c_e (w . e) z^e, which
    is 0 for each Euler weight w (see `_euler_weights`), since w . e = 0 is
    checked exactly on each exponent e of f. Times a monomial m' of degree
    gamma - beta it says that the rows m' z_i (d f / d z_i), weighted by
    w_i, sum to zero. The weights are in echelon form, so the row at the
    first nonzero w_l is a combination of rows at later partials; from the
    last weight back, each row so left out is a combination of rows kept,
    and the rank is unchanged. The row stays in `jacobian_rows`.
    """
    top = f.degree + f.degree - anticanonical_degree(T)
    radix = code_radix(T, f.degree, top, gamma)
    basis = monomial_codes(T, gamma, radix)
    # A multiplier m of the i-th partial, or m' of degree gamma - beta, is below
    # the basis monomial m + e - 1_i or m' + e (e_i > 0), so entries stay below radix
    powers = [radix**t for t in range(T.nrays - 1, -1, -1)]
    index = dict(zip(basis, range(len(basis))))
    scale = lcm(*(c.denominator for _, c in f.terms))
    coeffs = [c.numerator * (scale // c.denominator) for _, c in f.terms]
    terms = [(sum(map(mul, e, powers)), e, c) for (e, _), c in zip(f.terms, coeffs)]
    weights = _euler_weights(T, f.degree)
    if any(sum(map(mul, w, e)) for w in weights for e, _ in f.terms):
        raise AssertionError("an Euler weight does not vanish on an exponent of f")
    shift = gamma - f.degree
    leads = [next(i for i, x in enumerate(w) if x) for w in weights]
    left_out = {(i, m + powers[i]) for i in leads for m in monomial_codes(T, shift, radix)}
    rows = []
    distinct = {}
    for i, (power, degree) in enumerate(zip(powers, T.variable_degrees)):
        partial = [(e_code - power, c * e[i]) for e_code, e, c in terms if e[i]]
        if not partial:
            continue
        for m_code in monomial_codes(T, shift + degree, radix):
            row = [0] * len(index)
            # distinct terms land in distinct columns, so no cell is set twice,
            # and the row is never zero: the terms have nonzero coefficients
            for e_code, c in partial:
                row[index[m_code + e_code]] = c
            row = tuple(row)
            rows.append(row)
            if (i, m_code) not in left_out:
                distinct[row] = None
    return GradedPiece(
        degree=gamma,
        codes=basis,
        radix=radix,
        nrays=T.nrays,
        jacobian_rows=IntMatrix(tuple(rows)),
        jacobian_rank=rank(IntMatrix(tuple(distinct))),
    )


def multiplication_surjective(f: CoxPolynomial, T: ToricData) -> SurjectivityVerdict:
    """Decide surjectivity of multiplication from degrees beta and
    beta - beta0 into degree 2*beta - beta0, all taken in the quotient ring,
    where beta is f's degree and beta0 the anticanonical degree.

    The image of the map, lifted to the target degree, is the span of
    every product of a beta-monomial with a (beta - beta0)-monomial plus
    the ideal's slice. The products are monomials themselves, so they cover
    some target columns outright (the pieces share one radix, so a product's
    code is the sum of its factors'); the map is surjective exactly when the
    ideal's rows, restricted to the uncovered columns U, have rank |U|
    (the combinatorial core of Green's infinitesimal Noether-Lefschetz
    argument). An empty target is vacuously surjective.

    The entry of a row m * (d f / d z_i) at an uncovered column t is
    c_e * e_i for the one exponent e = t - m + 1_i, so every f with f's
    support gives the rows the same zero pattern. When the rank falls short,
    the term rank of that pattern is computed too: if it is below the
    number of uncovered columns (Hall's condition fails), no such f is
    surjective.
    """
    beta, middle = f.degree, f.degree - anticanonical_degree(T)
    # On a reflexive polytope the top is beta.
    pieces = {g: graded_piece(f, T, g) for g in dict.fromkeys((beta, beta + middle))}
    left, top = pieces[beta], pieces[beta + middle]
    # No monomial has degree deg z_i - beta0 on a complete fan, so the middle
    # piece has no Jacobian rows.
    codes = monomial_codes(T, middle, top.radix)
    right = GradedPiece(middle, codes, top.radix, T.nrays, IntMatrix(()), 0)

    covered = {x + y for x in left.codes for y in right.codes}
    uncovered = [j for j, c in enumerate(top.codes) if c not in covered]
    restricted = top.jacobian_rows.entries
    if len(uncovered) == top.s_dimension:
        # U is every column: graded_piece has ranked these rows already.
        uncovered_rank = top.jacobian_rank
    else:
        restricted = [tuple(row[j] for j in uncovered) for row in restricted]
        # Rows that vanish on U, or repeat another there, add nothing to the rank.
        uncovered_rank = rank(
            IntMatrix(tuple(dict.fromkeys(row for row in restricted if any(row))))
        )
    short = uncovered_rank < len(uncovered)
    target_needed = top.s_dimension
    return SurjectivityVerdict(
        surjective=not short,
        dims=(left.r_dimension, right.r_dimension, top.r_dimension),
        image_rank=target_needed - len(uncovered) + uncovered_rank,
        target_needed=target_needed,
        uncovered=len(uncovered),
        term_rank=(
            term_rank(IntMatrix(tuple(restricted))) if short else len(uncovered)
        ),
        pieces=(left, right, top),
    )


# perfbench/tracer.py binds this name; it can go after ROADMAP item 4.
def hilbert_profile(
    f: CoxPolynomial, T: ToricData, degrees
) -> list[tuple[GradedDegree, int, int, int]]:
    """Per-degree table (degree, dim S, rank J, dim R)."""
    out = []
    for gamma in degrees:
        piece = graded_piece(f, T, gamma)
        out.append((gamma, piece.s_dimension, piece.jacobian_rank, piece.r_dimension))
    return out
