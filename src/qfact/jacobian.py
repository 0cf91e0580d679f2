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
    monomials_of_degree,
)


class GradedPiece(
    namedtuple("GradedPiece", "degree monomial_basis jacobian_rows jacobian_rank")
):
    """One degree slice: monomial basis, ideal rows, quotient dimension.

    The ideal's rows are those of the partials of f scaled by the lcm of
    f's coefficient denominators, so they are integers and span the same
    slice. There is one row per monomial multiple of a partial, repeats
    included, so that the rows' zero pattern depends on f's support alone.

    Fields: the GradedDegree, the basis as a tuple of CoxMonomial, the rows
    as an IntMatrix and their rank.
    """

    __slots__ = ()

    @property
    def s_dimension(self) -> int:
        return len(self.monomial_basis)

    @property
    def r_dimension(self) -> int:
        return len(self.monomial_basis) - self.jacobian_rank


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


def _exponent_code(basis, nrays: int):
    """Exponent vectors as base-radix integers, radix = 1 + the largest
    exponent in `basis`: code(a) + code(b) = code(a + b), and the code is
    one-to-one on nonnegative vectors with every entry below radix, so on
    the basis and on any two vectors that sum into it. Also returns the
    codes of the unit vectors, radix**i."""
    radix = 1 + max(map(max, basis), default=0)
    powers = [radix**t for t in range(nrays)]

    def code(e):
        return sum(map(mul, e, powers))

    return code, powers


def graded_piece(f: CoxPolynomial, T: ToricData, gamma: GradedDegree) -> GradedPiece:
    """Degree-gamma slice of the ring modulo the partials of f.

    The ideal's slice is spanned by monomial multiples of the partials:
    for the i-th partial (of degree beta - deg z_i) every monomial of
    degree gamma - (beta - deg z_i) contributes one row. Scaling f by the
    lcm of its coefficient denominators leaves the ideal unchanged and
    makes every row integral. The rows come straight from f's coded terms:
    the i-th partial has a term c * e_i at code(e) - code(1_i) for each
    term c z^e of f with e_i > 0. The rank is taken on the distinct rows.

    Those rows satisfy known linear relations, which bound the rank from
    above: for each Euler weight w (see `_euler_weights`) the Euler formula
    gives sum_i w_i z_i (d f / d z_i) = 0, so for every monomial m' of
    degree gamma - beta the rows m' z_i (d f / d z_i) weighted by w_i sum
    to zero. Each such relation, moved onto the distinct rows, is handed to
    `rank` as a left-kernel vector.
    """
    basis = tuple(monomials_of_degree(T, gamma))
    # m + e - 1_i lies in the basis for each multiplier m of the i-th partial
    # and term e of f with e_i > 0, so m has every entry below radix
    code, powers = _exponent_code(basis, T.nrays)
    n = len(basis)
    index = dict(zip(map(code, basis), range(n)))
    scale = lcm(*(c.denominator for _, c in f.terms))
    terms = [(code(e), e, c.numerator * (scale // c.denominator)) for e, c in f.terms]
    shift = gamma - f.degree
    rows = []
    # distinct row -> its index; (partial i, code of multiplier m) -> index of its row
    distinct = {}
    position = {}
    for i, (power, degree) in enumerate(zip(powers, T.variable_degrees)):
        partial = [(e_code - power, c * e[i]) for e_code, e, c in terms if e[i]]
        if not partial:
            continue
        for m_code in map(code, monomials_of_degree(T, shift + degree)):
            row = [0] * n
            # distinct terms land in distinct columns, so no cell is set twice,
            # and the row is never zero: the terms have nonzero coefficients
            for e_code, c in partial:
                row[index[m_code + e_code]] = c
            row = tuple(row)
            rows.append(row)
            position[i, m_code] = distinct.setdefault(row, len(distinct))
    # A zero partial has no position: its rows are zero and drop out of
    # every relation. A repeated row's weight goes to its first copy.
    kernel = []
    for w in _euler_weights(T, f.degree):
        for m_code in map(code, monomials_of_degree(T, shift)):
            k = [0] * len(distinct)
            for i, (x, power) in enumerate(zip(w, powers)):
                j = position.get((i, m_code + power))
                if x and j is not None:
                    k[j] += x
            kernel.append(k)
    return GradedPiece(
        degree=gamma,
        monomial_basis=basis,
        jacobian_rows=IntMatrix(tuple(rows)),
        jacobian_rank=rank(IntMatrix(tuple(distinct)), kernel),
    )


def multiplication_surjective(f: CoxPolynomial, T: ToricData) -> SurjectivityVerdict:
    """Decide surjectivity of multiplication from degrees beta and
    beta - beta0 into degree 2*beta - beta0, all taken in the quotient ring,
    where beta is f's degree and beta0 the anticanonical degree.

    The image of the map, lifted to the target degree, is the span of
    every product of a beta-monomial with a (beta - beta0)-monomial plus
    the ideal's slice. The products are monomials themselves, so they cover
    some target columns outright; the map is surjective exactly when the
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
    beta, beta0 = f.degree, anticanonical_degree(T)
    degrees = (beta, beta - beta0, beta + beta - beta0)
    # On a reflexive polytope beta0 = beta, so the top degree is beta again.
    pieces = {g: graded_piece(f, T, g) for g in dict.fromkeys(degrees)}
    left, right, top = (pieces[g] for g in degrees)

    # every product a * b lies in the top basis
    code, _ = _exponent_code(top.monomial_basis, T.nrays)
    right_codes = [code(b) for b in right.monomial_basis]
    covered = {x + y for x in map(code, left.monomial_basis) for y in right_codes}
    uncovered = [j for j, m in enumerate(top.monomial_basis) if code(m) not in covered]
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
