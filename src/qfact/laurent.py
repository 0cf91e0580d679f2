"""Laurent polynomials in x, y, z and their life in the coordinate ring.

A Laurent polynomial is a finite sum of rational multiples of monomials
x^a y^b z^c with integer exponents of either sign. Homogenization sends it
into the graded coordinate ring of the toric variety of a polytope that
contains its support.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import (
    DegreeMismatch,
    EmptyPolynomial,
    InconsistentExponents,
    ParseError,
    SupportOutsidePolytope,
)
from .lattice import LatticePolytope, Vec3, convex_hull, dot
from .linalg import IntMatrix, _smith_solve
from .toric import CoxMonomial, GradedDegree, ToricData, polytope_degree


def _canonical(pairs):
    acc = {}
    for expo, coeff in pairs:
        expo = tuple(expo)
        c = acc.get(expo, 0) + Fraction(coeff)
        if c:
            acc[expo] = c
        else:
            acc.pop(expo, None)
    return tuple(sorted(acc.items()))


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

    def scale(self, c) -> "LaurentPolynomial":
        c = Fraction(c)
        if c == 0:
            return LaurentPolynomial(())
        return LaurentPolynomial(tuple((e, c * v) for e, v in self.terms))


class CoxPolynomial(namedtuple("CoxPolynomial", "terms degree")):
    """Element of one graded piece: sorted (CoxMonomial, Fraction) terms
    plus the declared GradedDegree. `*` multiplies polynomials."""

    __slots__ = ()

    @classmethod
    def from_terms(cls, pairs, degree: GradedDegree) -> "CoxPolynomial":
        return cls(_canonical(pairs), degree)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "CoxPolynomial") -> "CoxPolynomial":
        pairs = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                pairs.append((tuple(a + b for a, b in zip(e1, e2)), c1 * c2))
        return CoxPolynomial.from_terms(pairs, self.degree + other.degree)

    def coordinates(self, basis: list[CoxMonomial]) -> tuple[Fraction, ...]:
        """Coefficient row in a monomial basis of the declared degree."""
        lookup = dict(self.terms)
        row = tuple(lookup.get(m, Fraction(0)) for m in basis)
        if len(lookup) != sum(1 for c in row if c):
            raise DegreeMismatch("polynomial has monomials outside the basis")
        return row


# ------------------------------- parsing ---------------------------------
#
# poly   := [sign] term (sign term)*
# term   := atom (('*' | '/') atom)*
# atom   := INT ['/' INT]  |  VAR ['^' ['-'] INT]  |  '(' term ')'
#
# Division by an atom inverts it, so 1/(x*y*z) is the monomial x^-1 y^-1 z^-1;
# only single-monomial divisors are invertible here.

_VARS = {"x": 0, "y": 1, "z": 2}

# ASCII only: str.isdigit also accepts characters such as '²' that int()
# rejects.
_DIGITS = frozenset("0123456789")

# Parentheses nest by recursion, so their depth is capped well below the
# interpreter's recursion limit; deeper input is a ParseError.
_MAX_NESTING = 100


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise ParseError(self.pos, f"expected {ch!r}, found {got!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ParseError(start, "expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(start, str(exc)) from None


def _parse_atom(sc: _Scanner) -> tuple[Fraction, Vec3]:
    ch = sc.peek()
    if ch == "(":
        if sc.depth == _MAX_NESTING:
            raise ParseError(
                sc.pos, f"parentheses nested deeper than {_MAX_NESTING}"
            )
        sc.take()
        sc.depth += 1
        inner = _parse_term(sc)
        sc.expect(")")
        sc.depth -= 1
        return inner
    if ch in _DIGITS:
        num = sc.integer()
        if sc.peek() == "/":
            mark = sc.pos
            sc.take()
            if sc.peek() in _DIGITS:
                den = sc.integer()
                if den == 0:
                    raise ParseError(mark, "zero denominator")
                return Fraction(num, den), (0, 0, 0)
            sc.pos = mark  # the '/' belongs to the term level: 1/(x*y*z)
        return Fraction(num), (0, 0, 0)
    if ch in _VARS:
        sc.take()
        slot = _VARS[ch]
        exp = 1
        if sc.peek() == "^":
            sc.take()
            sign = 1
            if sc.peek() == "-":
                sc.take()
                sign = -1
            exp = sign * sc.integer()
        e = [0, 0, 0]
        e[slot] = exp
        return Fraction(1), tuple(e)
    raise ParseError(sc.pos, f"expected a coefficient or variable, found {ch!r}")


def _parse_term(sc: _Scanner) -> tuple[Fraction, Vec3]:
    coeff, expo = _parse_atom(sc)
    while sc.peek() in ("*", "/"):
        op = sc.take()
        mark = sc.pos
        c, e = _parse_atom(sc)
        if op == "/":
            if c == 0:
                raise ParseError(mark, "division by zero")
            c = 1 / c
            e = (-e[0], -e[1], -e[2])
        coeff *= c
        expo = (expo[0] + e[0], expo[1] + e[1], expo[2] + e[2])
    return coeff, expo


def parse_laurent(text: str) -> LaurentPolynomial:
    """Parse a Laurent polynomial in variables x, y, z.

    Terms are joined by + and -, a term is a product of an optional rational
    coefficient and powers like x^3 or y^-2, and division by a parenthesized
    monomial is allowed. Like terms combine; exact cancellation is fine and
    yields the zero polynomial.
    """
    sc = _Scanner(text)
    pairs = []
    sign = 1
    if sc.peek() == "-":
        sc.take()
        sign = -1
    elif sc.peek() == "+":
        sc.take()
    if sc.peek() == "":
        raise ParseError(sc.pos, "empty input")
    while True:
        coeff, expo = _parse_term(sc)
        pairs.append((expo, sign * coeff))
        ch = sc.peek()
        if ch == "":
            break
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            raise ParseError(sc.pos, f"expected '+' or '-', found {ch!r}")
        sc.take()
    return LaurentPolynomial.from_terms(pairs)


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
    i-th variable, where a_i is the facet offset; containment of the
    support in the polytope makes every exponent nonnegative.
    """
    if F.is_zero:
        raise EmptyPolynomial("cannot homogenize the zero polynomial")
    beta = polytope_degree(T, P)
    for m in F.support:
        if not P.contains(m):
            raise SupportOutsidePolytope(f"support point {m} lies outside the polytope")
    offsets = [f.offset for f in P.facets]
    pairs = []
    for m, c in F.terms:
        e = tuple(dot(m, v) + a for v, a in zip(T.rays, offsets))
        pairs.append((e, c))
    return CoxPolynomial.from_terms(pairs, beta)


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


def dehomogenize(
    f: CoxPolynomial, P: LatticePolytope, T: ToricData
) -> LaurentPolynomial:
    """Inverse of homogenize on its image.

    Each monomial e comes from the lattice point m with <m, v_i> = e_i - a_i
    for every ray v_i; the rays span R^3, so that m is unique when it exists.
    It is solved for through the Smith form of the rays in `T.smith`.
    """
    if f.degree != polytope_degree(T, P):
        raise DegreeMismatch("declared degree is not the polytope degree")
    rays = IntMatrix(T.rays)
    offsets = [fc.offset for fc in P.facets]
    pairs = []
    for e, c in f.terms:
        m = _smith_solve(rays, T.smith, tuple(x - a for x, a in zip(e, offsets)))
        if m is None:
            raise InconsistentExponents(
                f"monomial {e} is not the homogenization of any lattice point"
            )
        pairs.append((m, c))
    return LaurentPolynomial.from_terms(pairs)
