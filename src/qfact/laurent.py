"""Laurent polynomials in x, y, z and their life in the coordinate ring.

A Laurent polynomial is a finite sum of rational multiples of monomials
x^a y^b z^c with integer exponents of either sign. Homogenization sends it
into the graded coordinate ring of the toric variety of a polytope that
contains its support.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .errors import EmptyPolynomial, ParseError, SupportOutsidePolytope
from .lattice import LatticePolytope, Vec3, convex_hull
from .toric import GradedDegree, ToricData, polytope_degree


def _canonical(pairs):
    acc = {}
    for expo, coeff in pairs:
        expo = tuple(expo)
        if type(coeff) is not Fraction:
            coeff = Fraction(coeff)
        acc[expo] = acc[expo] + coeff if expo in acc else coeff
    return tuple(sorted((e, c) for e, c in acc.items() if c))


class LaurentPolynomial(namedtuple("LaurentPolynomial", "terms")):
    """Sorted (exponent, coefficient) pairs, a Vec3 and a Fraction each; no
    zero coefficients stored."""

    __slots__ = ()

    @classmethod
    def from_terms(cls, pairs) -> "LaurentPolynomial":
        return cls(_canonical(pairs))

    @property
    def support(self) -> tuple[Vec3, ...]:
        return tuple(e for e, _ in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms


class CoxPolynomial(namedtuple("CoxPolynomial", "terms degree")):
    """Element of one graded piece: sorted (CoxMonomial, Fraction) terms
    plus the declared GradedDegree."""

    __slots__ = ()

    @classmethod
    def from_terms(cls, pairs, degree: GradedDegree) -> "CoxPolynomial":
        return cls(_canonical(pairs), degree)


# ------------------------------- parsing ---------------------------------
#
# poly   := [sign] term (sign term)*
# term   := atom (('*' | '/') atom)*
# atom   := INT ['/' INT]  |  VAR ['^' ['-'] INT]  |  '(' term ')'
#
# Division by an atom inverts it, so 1/(x*y*z) is the monomial x^-1 y^-1 z^-1;
# only single-monomial divisors are invertible here.

_VARS = {"x": 0, "y": 1, "z": 2}

# One token per match, after whitespace (\s matches exactly where
# str.isspace is true; checked over every code point on 3.11); group 1 is
# empty and marks where the token starts. Digits are ASCII only: \d also
# accepts characters that int() rejects.
_TOKEN = re.compile(
    r"\s*()(?:"
    r"([0-9]+)(?:\s*(/)\s*([0-9]+))?"  # 2 INT, 3 '/', 4 INT
    r"|([xyz])(?:\s*\^\s*(-)?\s*([0-9]+))?"  # 5 VAR, 6 '-', 7 INT
    r"|(.?))",  # 8 any other character, or "" at the end
    re.DOTALL,
)

# Parentheses nest by recursion, so their depth is capped well below the
# interpreter's recursion limit; deeper input is a ParseError.
_MAX_NESTING = 100


def _int(m, group: int) -> int:
    try:
        return int(m[group])
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(m.start(group), str(exc)) from None


def _unexpected(m, wanted: str) -> ParseError:
    at = m.start(1)
    return ParseError(at, f"expected {wanted}, found {m.string[at : at + 1]!r}")


def _term(tokens, i: int, depth: int):
    """The product starting at tokens[i]: numerator, denominator, exponent
    list and the index of the token after it."""
    num, den, expo = 1, 1, [0, 0, 0]
    divide = False
    while True:
        m = tokens[i]
        i += 1
        if m[5] is not None:
            if m[7] is not None:
                k = -_int(m, 7) if m[6] else _int(m, 7)
            elif tokens[i][8] == "^":  # no integer after '^' or '^-'
                j = i + 2 if tokens[i + 1][8] == "-" else i + 1
                raise ParseError(tokens[j].start(1), "expected an integer")
            else:
                k = 1
            expo[_VARS[m[5]]] += -k if divide else k
        else:
            if m[2] is not None:
                n, d = _int(m, 2), 1
                if m[3] is not None:
                    d = _int(m, 4)
                    if d == 0:
                        raise ParseError(m.start(3), "zero denominator")
            elif m[8] == "(":
                if depth == _MAX_NESTING:
                    raise ParseError(
                        m.start(1), f"parentheses nested deeper than {_MAX_NESTING}"
                    )
                n, d, e, i = _term(tokens, i, depth + 1)
                if tokens[i][8] != ")":
                    raise _unexpected(tokens[i], "')'")
                i += 1
                sign = -1 if divide else 1
                expo = [a + sign * b for a, b in zip(expo, e)]
            else:
                raise _unexpected(m, "a coefficient or variable")
            if not divide:
                num *= n
                den *= d
            elif n:
                num *= d
                den *= n
            else:
                raise ParseError(mark, "division by zero")
        op = tokens[i][8]
        if op != "*" and op != "/":
            return num, den, expo, i
        divide = op == "/"
        mark = tokens[i].end()
        i += 1


def parse_laurent(text: str) -> LaurentPolynomial:
    """Parse a Laurent polynomial in variables x, y, z.

    Terms are joined by + and -, a term is a product of an optional rational
    coefficient and powers like x^3 or y^-2, and division by a parenthesized
    monomial is allowed. Like terms combine; exact cancellation is fine and
    yields the zero polynomial.
    """
    tokens = list(_TOKEN.finditer(text))
    sign = -1 if tokens[0][8] == "-" else 1
    i = 1 if tokens[0][8] in ("+", "-") else 0
    if tokens[i][8] == "":
        raise ParseError(tokens[i].start(1), "empty input")
    pairs = []
    while True:
        num, den, expo, i = _term(tokens, i, 0)
        pairs.append((tuple(expo), Fraction(sign * num, den)))
        op = tokens[i][8]
        if op == "":
            return LaurentPolynomial.from_terms(pairs)
        if op != "+" and op != "-":
            raise _unexpected(tokens[i], "'+' or '-'")
        sign = 1 if op == "+" else -1
        i += 1


# --------------------------- toric translation ---------------------------


def newton_polytope(F: LaurentPolynomial) -> LatticePolytope:
    """Convex hull of the support; must be full-dimensional."""
    if F.is_zero:
        raise EmptyPolynomial("zero polynomial has no Newton polytope")
    return convex_hull(F.support)


def homogenize(
    F: LaurentPolynomial, P: LatticePolytope, T: ToricData
) -> CoxPolynomial:
    """Laurent polynomial to coordinate-ring element of the polytope degree.

    The term at lattice point m picks up exponent <m, v_i> + a_i on the
    i-th variable, a_i the facet offset: m's value on the i-th facet, so a
    negative exponent means that m lies outside the polytope.
    """
    if F.is_zero:
        raise EmptyPolynomial("cannot homogenize the zero polynomial")
    beta = polytope_degree(T, P)
    support, coeffs = zip(*F.terms)
    columns = [
        [x * v0 + y * v1 + z * v2 + f.offset for x, y, z in support]
        for (v0, v1, v2), f in zip(T.rays, P.facets)
    ]
    exponents = list(zip(*columns))
    if min(map(min, columns)) < 0:
        m = next(m for m, e in zip(support, exponents) if min(e) < 0)
        raise SupportOutsidePolytope(f"support point {m} lies outside the polytope")
    return CoxPolynomial.from_terms(zip(exponents, coeffs), beta)


def partial_derivatives(f: CoxPolynomial, T: ToricData) -> list[CoxPolynomial]:
    """All variable partials; the i-th has degree deg(f) - deg(z_i).

    A partial can vanish identically; it still carries its degree. Lowering
    e_i by one keeps the surviving exponents distinct and in f's sorted
    order, so the terms are built canonical.
    """
    out = []
    for i in range(T.nrays):
        terms = tuple(
            (e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i])
            for e, c in f.terms
            if e[i] > 0
        )
        out.append(CoxPolynomial(terms, f.degree - T.variable_degrees[i]))
    return out

