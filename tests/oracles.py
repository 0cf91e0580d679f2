"""Independent reference implementations used only to cross-check results.

Deliberately naive: rational Gaussian elimination instead of fraction-free
elimination, list-based elimination mod p instead of packed rows,
exhaustive plane enumeration instead of incremental hulls, bounding-box
scans instead of line scans, products of quotient representatives instead
of monomial coverage, polynomial products and tuple sums instead of coded
exponent sums, a character scanner instead of a token regex, Cramer's rule
instead of a Smith form. Anything these compute must agree with the
package.
"""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, lcm

from qfact.certify import _SEED_STRIDE, sample_coefficients
from qfact.errors import ParseError
from qfact.jacobian import graded_piece, multiplication_surjective
from qfact.lattice import Vec3, normal_fan
from qfact.laurent import (
    CoxPolynomial,
    LaurentPolynomial,
    homogenize,
    partial_derivatives,
)
from qfact.linalg import (
    _PRIME,
    IntMatrix,
    rank,
    rank_and_pivot_columns,
    solve_integer,
    term_rank,
)
from qfact.toric import anticanonical_degree, build_toric_data, monomials_of_degree


def naive_rank(rows) -> int:
    """Rank by textbook Gaussian elimination over Fraction."""
    M = [[Fraction(x) for x in row] for row in rows]
    if not M or not M[0]:
        return 0
    nrows, ncols = len(M), len(M[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [v * inv for v in M[r]]
        for i in range(nrows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
        if r == nrows:
            break
    return r


def rank_mod_p(rows, ncols: int) -> int:
    """Rank over the field of `_PRIME` elements by Gaussian elimination on
    lists of residues: each pivot row is scaled to a leading 1 and only
    the columns right of the pivot are updated."""
    p = _PRIME
    M = [[x % p for x in row] for row in rows]
    nrows = len(M)
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], -1, p)
        tail = [x * inv % p for x in M[rank][c + 1 :]]
        for i in range(rank + 1, nrows):
            row = M[i]
            f = row[c]
            if f:
                row[c + 1 :] = [(a - f * b) % p for a, b in zip(row[c + 1 :], tail)]
        rank += 1
    return rank


def exhaustive_term_rank(rows) -> int:
    """Largest k such that k rows can be matched to k distinct columns
    through nonzero entries, by trying every column (or none) for each row
    in turn. Exponential: small matrices only."""
    best = 0

    def extend(i, used, size):
        nonlocal best
        best = max(best, size)
        if i == len(rows) or size + len(rows) - i <= best:
            return
        for j, x in enumerate(rows[i]):
            if x and j not in used:
                extend(i + 1, used | {j}, size + 1)
        extend(i + 1, used, size)

    extend(0, frozenset(), 0)
    return best


def naive_det(rows) -> Fraction:
    """Determinant by the same elimination, tracking row swaps."""
    M = [[Fraction(x) for x in row] for row in rows]
    n = len(M)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if M[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        M[c] = [v * inv for v in M[c]]
        for i in range(c + 1, n):
            if M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return det


def matmul(A, B):
    return [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A
    ]


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _primitive(v):
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    return (v[0] // g, v[1] // g, v[2] // g)


def brute_facets(points):
    """Supporting facet planes of conv(points) by trying all point triples.

    Returns the set of (inner primitive normal, offset) pairs whose plane
    has every point on the nonnegative side and touches at least three
    affinely independent points.
    """
    pts = sorted(set(map(tuple, points)))
    found = set()
    for a, b, c in combinations(pts, 3):
        n = _cross(
            (b[0] - a[0], b[1] - a[1], b[2] - a[2]),
            (c[0] - a[0], c[1] - a[1], c[2] - a[2]),
        )
        if n == (0, 0, 0):
            continue
        n = _primitive(n)
        base = _dot(n, a)
        sides = [_dot(n, p) - base for p in pts]
        if all(s >= 0 for s in sides):
            found.add((n, -base))
        elif all(s <= 0 for s in sides):
            found.add(((-n[0], -n[1], -n[2]), base))
    return found


def brute_vertices(points):
    """Vertices of conv(points): points where 3 independent facets meet."""
    pts = sorted(set(map(tuple, points)))
    facets = brute_facets(pts)
    verts = []
    for p in pts:
        tight = [n for (n, a) in facets if _dot(n, p) + a == 0]
        if naive_rank(tight) == 3:
            verts.append(p)
    return verts


def box_points(facets, bound):
    """Integer points satisfying every inequality, in lex order, of the box
    [-bound, bound]^3, or of the box of the three (lo, hi) pairs in bound."""
    if isinstance(bound, int):
        bound = [(-bound, bound)] * 3
    axes = [range(lo, hi + 1) for lo, hi in bound]
    return [
        m for m in product(*axes) if all(_dot(n, m) + a >= 0 for (n, a) in facets)
    ]


def interior_point_counts(P):
    """l*(P), l*(2P) and the sum over the facets F of l*(F), where l*
    counts relative-interior lattice points, by scans of the bounding boxes
    of P and 2P. A point is inside kP when every facet value
    <m, n> + k a is positive, and inside a facet F of P when F's value is 0
    and every other one positive."""

    def scan(k):
        axes = [
            range(min(k * v[i] for v in P.vertices), max(k * v[i] for v in P.vertices) + 1)
            for i in range(3)
        ]
        inside = on_facets = 0
        for m in product(*axes):
            values = [_dot(f.normal, m) + k * f.offset for f in P.facets]
            low = min(values)
            if low > 0:
                inside += 1
            elif low == 0 and values.count(0) == 1:
                on_facets += 1
        return inside, on_facets

    interior, facet_interiors = scan(1)
    interior2, _ = scan(2)
    return interior, interior2, facet_interiors


def _fiber_polytope_vertices(rays, shift):
    """Vertices of { m in Q^3 : <m, v_i> >= -shift_i for all i }.

    Every vertex is cut out by three independent rows; Cramer's rule over
    exact rationals finds each candidate, and the remaining inequalities
    filter. Complete fans positively span, so this region is bounded.
    """
    n = len(rays)
    verts = []
    for subset in combinations(range(n), 3):
        a, b, c = (rays[i] for i in subset)
        det = (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
        if det == 0:
            continue
        rhs = [-shift[i] for i in subset]
        m = []
        for col in range(3):
            rows = [list(r) for r in (a, b, c)]
            for r, value in zip(rows, rhs):
                r[col] = value
            num = (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )
            m.append(Fraction(num, det))
        if all(
            sum(Fraction(v[k]) * m[k] for k in range(3)) >= -shift[i]
            for i, v in enumerate(rays)
        ):
            verts.append(tuple(m))
    return verts


def box_monomials_of_degree(T, gamma):
    """toric.monomials_of_degree by scanning the bounding box of the fiber
    polytope: every integer m in the box whose exponent vector
    e0 + (<m, v_i>)_i is nonnegative, lex sorted."""
    n = T.nrays
    target = [0] * n
    d = T.smith.diagonal
    t = 0
    for i in range(3):
        if d[i] > 1:
            target[i] = gamma.torsion_part[t]
            t += 1
    target[3:] = list(gamma.free_part)
    e0 = solve_integer(T.smith.U, target)
    if e0 is None:
        return []
    verts = _fiber_polytope_vertices(T.rays, e0)
    if not verts:
        return []
    out = []
    los = [floor(min(v[k] for v in verts)) for k in range(3)]
    his = [ceil(max(v[k] for v in verts)) for k in range(3)]
    for x in range(los[0], his[0] + 1):
        for y in range(los[1], his[1] + 1):
            for z in range(los[2], his[2] + 1):
                e = tuple(
                    e0[i] + _dot((x, y, z), v) for i, v in enumerate(T.rays)
                )
                if all(c >= 0 for c in e):
                    out.append(e)
    out.sort()
    return out


def cox_product(f, g):
    """Product of two CoxPolynomials, term by term; the degrees add."""
    pairs = [
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in f.terms
        for e2, c2 in g.terms
    ]
    return CoxPolynomial.from_terms(pairs, f.degree + g.degree)


def coordinates(f, basis):
    """Coefficient row of a CoxPolynomial in a monomial basis; ValueError
    when the basis misses one of its monomials."""
    lookup = dict(f.terms)
    if not lookup.keys() <= set(basis):
        raise ValueError("polynomial has monomials outside the basis")
    return tuple(lookup.get(m, Fraction(0)) for m in basis)


def dehomogenize(f, P, T):
    """Inverse of laurent.homogenize on its image.

    The monomial e comes from the lattice point m with <m, v_i> = e_i - a_i
    for every ray v_i, a_i the facet offset. The rays span R^3, so m is
    found by Cramer's rule on the first three independent rays and then
    checked on all of them; a monomial that no lattice point gives raises
    ValueError.
    """
    rays = T.rays
    offsets = [fc.offset for fc in P.facets]
    basis = next(
        s for s in combinations(range(len(rays)), 3) if naive_det([rays[i] for i in s])
    )
    det = naive_det([rays[i] for i in basis])
    pairs = []
    for e, c in f.terms:
        b = [x - a for x, a in zip(e, offsets)]
        m = []
        for col in range(3):
            rows = [list(rays[i]) for i in basis]
            for row, i in zip(rows, basis):
                row[col] = b[i]
            m.append(naive_det(rows) / det)
        if any(x.denominator != 1 for x in m) or any(
            _dot(m, v) != y for v, y in zip(rays, b)
        ):
            raise ValueError(f"monomial {e} is not the homogenization of a lattice point")
        pairs.append((tuple(int(x) for x in m), c))
    return LaurentPolynomial.from_terms(pairs)


def product_jacobian_rows(f, T, gamma):
    """The rows jacobian.graded_piece builds at degree gamma, from
    polynomial products: for each nonzero partial of f in order, and each
    multiplier m of the right degree in lex order (found by the box scan),
    the coordinates of m times the partial in the degree's basis, scaled by
    the lcm of f's coefficient denominators. All-zero rows are left out."""
    basis = box_monomials_of_degree(T, gamma)
    scale = lcm(*(c.denominator for _, c in f.terms))
    rows = []
    for partial in partial_derivatives(f, T):
        if not partial.terms:
            continue
        degree = gamma - partial.degree
        for m in box_monomials_of_degree(T, degree):
            product = cox_product(CoxPolynomial(((m, Fraction(1)),), degree), partial)
            row = [c * scale for c in coordinates(product, basis)]
            assert all(c.denominator == 1 for c in row)
            if any(row):
                rows.append(tuple(c.numerator for c in row))
    return rows


def uncovered_columns(left_basis, right_basis, top_basis):
    """Indices of the target monomials that are no product of a left and a
    right monomial, by tuple sums of every pair of exponent vectors."""
    covered = {tuple(x + y for x, y in zip(a, b)) for a in left_basis for b in right_basis}
    return [j for j, m in enumerate(top_basis) if m not in covered]


def sampled_term_rank(P, seed=0, bound=10):
    """The term rank on the uncovered target columns, read off a sample: the
    top piece's Jacobian rows of full-support attempt 0, restricted to the
    columns that no product covers (found by tuple sums), matched through
    their nonzero entries. `certify` reads it from the support alone."""
    T = build_toric_data(normal_fan(P))
    f = homogenize(sample_coefficients(P, seed * _SEED_STRIDE, bound), P, T)
    beta, middle = f.degree, f.degree - anticanonical_degree(T)
    top = graded_piece(f, T, beta + middle)
    U = uncovered_columns(
        monomials_of_degree(T, beta), monomials_of_degree(T, middle), top.monomial_basis
    )
    rows = top.jacobian_rows.entries
    return term_rank([[k for k, j in enumerate(U) if row[j]] for row in rows], len(U))


def _quotient_representatives(piece, lift_rng):
    """Coset representatives for a basis of the quotient at one degree.

    Each is a monomial off the pivot columns of the ideal's rows. With a
    generator supplied, every representative is perturbed by a random
    combination of those rows; the ideal absorbs such shifts.
    """
    r, pivots = rank_and_pivot_columns(piece.jacobian_rows)
    taken = set(pivots)
    reps = []
    for j, m in enumerate(piece.monomial_basis):
        if j in taken:
            continue
        pairs = [(m, Fraction(1))]
        if lift_rng is not None:
            for row in piece.jacobian_rows.entries:
                c = lift_rng.randint(-3, 3)
                if c:
                    pairs.extend(
                        (mon, c * coeff)
                        for mon, coeff in zip(piece.monomial_basis, row)
                        if coeff
                    )
        reps.append(CoxPolynomial.from_terms(pairs, piece.degree))
    return r, reps


def product_surjectivity(f, T, beta, beta0, lift_rng=None):
    """Multiplication-map test by products of quotient representatives.

    Representatives of quotient bases at beta and beta - beta0 are
    multiplied pairwise, and the products stacked on the ideal's rows at
    2*beta - beta0 span the image; the map is surjective iff their rank is
    the full target dimension. Returns (surjective, dims, image_rank,
    target_needed), to compare with jacobian.multiplication_surjective.
    Ranks use the package's `rank`: the stacked matrix of lifted products
    is too slow for naive_rank.
    """
    left, right, top = (
        graded_piece(f, T, gamma) for gamma in (beta, beta - beta0, beta + beta - beta0)
    )
    left_rank, left_reps = _quotient_representatives(left, lift_rng)
    right_rank, right_reps = _quotient_representatives(right, lift_rng)
    top_rank = rank(top.jacobian_rows)
    dims = (
        left.s_dimension - left_rank,
        right.s_dimension - right_rank,
        top.s_dimension - top_rank,
    )
    basis = list(top.monomial_basis)
    rows = [coordinates(cox_product(a, b), basis) for a in left_reps for b in right_reps]
    # representatives have integer coefficients, so their products do too
    assert all(c.denominator == 1 for row in rows for c in row)
    rows = [[c.numerator for c in row] for row in rows]
    image_rank = rank(IntMatrix.from_rows(rows + list(top.jacobian_rows.entries)))
    return image_rank == len(basis), dims, image_rank, len(basis)


def sampled_surjectivity(P, seed=0, samples=5, bound=10):
    """Whether each of the `samples` sampled attempts of `certify` is
    surjective: the attempt loop run to the end, with no early stop on a
    witness or on a failure of Hall's condition."""
    T = build_toric_data(normal_fan(P))
    out = []
    for attempt in range(samples):
        F = sample_coefficients(P, seed * _SEED_STRIDE + attempt, bound)
        out.append(multiplication_surjective(homogenize(F, P, T), T).surjective)
    return out


# Laurent text: the grammar of `laurent.parse_laurent`, read one character at
# a time.
#
# poly   := [sign] term (sign term)*
# term   := atom (('*' | '/') atom)*
# atom   := INT ['/' INT]  |  VAR ['^' ['-'] INT]  |  '(' term ')'

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


def scan_laurent(text: str) -> LaurentPolynomial:
    """Parse a Laurent polynomial in variables x, y, z, one character at a
    time; `laurent.parse_laurent` must return the same terms or raise the
    same ParseError.

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
