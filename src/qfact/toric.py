"""Toric data from a complete simplicial fan: class-group grading of the
homogeneous coordinate ring, distinguished degrees, graded monomial bases.

The class group is the cokernel of the n x 3 ray matrix, presented through
a Smith decomposition. Degrees live in Smith coordinates: a free part of
length n - 3 and residues modulo the torsion invariants.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import chain
from operator import add, index, mod, mul, sub

from .errors import FanMismatch, NotSimplicial
from .lattice import (
    LatticePolytope,
    NormalFan,
    dot,
    expand_lines,
    integer_lines,
    is_simplicial,
    scan_chart,
)
# _echelon is bound here by name, so a patch of linalg._echelon (as the tests
# that count rank's fallback make) does not see the Euler weights' elimination.
from .linalg import IntMatrix, _echelon, smith_normal_form

# Exponent vector of a monomial in the homogeneous coordinate ring: one
# nonnegative entry per ray.
CoxMonomial = tuple[int, ...]


class GradedDegree(namedtuple("GradedDegree", "free_part torsion_part torsion_moduli")):
    """Class-group element in Smith coordinates.

    free_part has one entry per free generator (n - 3 of them), torsion_part
    one canonical residue per invariant factor listed in torsion_moduli.
    All three are tuples of ints. `+` and `-` are the group operations.
    """

    __slots__ = ()

    def __new__(cls, free_part, torsion_part, torsion_moduli):
        if len(torsion_part) != len(torsion_moduli):
            raise ValueError("torsion residue count does not match moduli")
        if any(not 0 <= r < d for r, d in zip(torsion_part, torsion_moduli)):
            raise ValueError("torsion residue out of canonical range")
        return super().__new__(cls, free_part, torsion_part, torsion_moduli)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check its result too
        return cls(*iterable)

    @classmethod
    def _reduced(cls, free_part, torsion_part, torsion_moduli) -> "GradedDegree":
        """Unchecked: for residues already reduced by `%` (moduli are positive)."""
        return tuple.__new__(cls, (free_part, torsion_part, torsion_moduli))

    def _combine(self, other: "GradedDegree", op) -> "GradedDegree":
        """op(self, other), for op `operator.add` or `operator.sub`."""
        moduli = self.torsion_moduli
        if len(self.free_part) != len(other.free_part) or moduli != other.torsion_moduli:
            raise ValueError("degrees from different class groups")
        free = tuple(map(op, self.free_part, other.free_part))
        torsion = tuple(map(mod, map(op, self.torsion_part, other.torsion_part), moduli))
        return GradedDegree._reduced(free, torsion, moduli)

    def __add__(self, other: "GradedDegree") -> "GradedDegree":
        return self._combine(other, add)

    def __sub__(self, other: "GradedDegree") -> "GradedDegree":
        return self._combine(other, sub)

    @property
    def is_zero(self) -> bool:
        return not any(self.free_part) and not any(self.torsion_part)


class ToricData(
    namedtuple(
        "ToricData", "rays class_rank torsion smith variable_degrees scan_rays"
    )
):
    """Rays plus the Smith presentation (a SmithDecomposition) of their
    cokernel, the class group: its rank, its torsion invariants and the
    GradedDegree of each variable; and scan_rays, the rays in the fan's
    `scan_chart`, where each degree's monomials are scanned.

    `_sections` holds the scan and the codes of each degree asked for so far
    (see `_section`). It lives in the instance dict, so it takes no part in
    equality, hashing or repr, and a `_replace`d copy starts with a fresh one.
    """

    @cached_property
    def _sections(self) -> dict:
        return {}

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def degree_of_exponents(self, exponents) -> GradedDegree:
        """Image of an integer exponent vector in the class group: U e, whose
        entries after the first three are the free part. As d1 | d2 | d3, the
        invariants above 1 (`torsion`) are the last of the three, so the
        entries just before the free part are the residues."""
        return self._class_of(self.smith.U.mul_vector(tuple(map(index, exponents))))

    def _class_of(self, u) -> GradedDegree:
        t = self.torsion
        return GradedDegree._reduced(u[3:], tuple(map(mod, u[3 - len(t) : 3], t)), t)


def build_toric_data(fan: NormalFan) -> ToricData:
    """Class group and variable degrees of the fan's coordinate ring.

    Presentation: Smith decomposition U R V = D of the ray matrix R whose
    rows are the rays, so the cokernel is Z^n / D Z^3 in U-coordinates.
    The rows of U beyond the first three are the ones D leaves zero, and
    `smith_normal_form` gives each a nonnegative entry sum: the free part
    of the anticanonical class is nonnegative.

    The lattice maps to the identity class, by the verified U R V = D and
    V V^-1 = I: U (R m) = D (V^-1 m) has a zero free part, and its first
    three entries are multiples of d1, d2, d3, so every residue is zero.
    """
    if not is_simplicial(fan):
        sizes = sorted({len(c) for c in fan.maximal_cones})
        raise NotSimplicial(
            f"maximal cones must have 3 independent rays, found cone sizes {sizes}"
        )
    dec = smith_normal_form(IntMatrix.from_rows(fan.rays))
    diag = dec.diagonal
    if len(diag) != 3 or 0 in diag:
        raise NotSimplicial("rays do not span the lattice over the rationals")

    C = scan_chart(fan)
    data = ToricData(
        rays=fan.rays,
        class_rank=len(fan.rays) - 3,
        torsion=tuple(d for d in diag if d > 1),
        smith=dec,
        variable_degrees=(),
        scan_rays=tuple(tuple(dot(c, v) for c in C) for v in fan.rays),
    )
    # variable j has the class of the j-th unit vector: U's column j
    return data._replace(variable_degrees=tuple(map(data._class_of, zip(*dec.U.entries))))


def anticanonical_degree(T: ToricData) -> GradedDegree:
    """Degree of the product of all variables (minus the canonical class):
    the class of U's row sums."""
    return T._class_of(tuple(map(sum, T.smith.U.entries)))


def _euler_weights(T: ToricData, beta: GradedDegree) -> list[tuple[int, ...]]:
    """Integer vectors w with sum_i w_i v_i = 0 that vanish on every
    exponent vector of degree beta, in row echelon form: their first nonzero
    entries are at strictly increasing indices.

    The rows of U after the first three span the relations among the rays,
    and the free part of an exponent vector's degree is their product with
    it. So for each lambda with lambda . b = 0 (b the free part of beta),
    w = sum_t lambda_t U[3 + t] has w . e = 0 for every e of degree beta:
    the class_rank - 1 vectors b_j e_k - b_k e_j, for the first j with
    b_j != 0, give lambda a basis over Q. `linalg._echelon` brings the w to
    echelon form.
    """
    b = beta.free_part
    j = next((t for t, x in enumerate(b) if x), None)
    if j is None:
        return []
    U = T.smith.U.entries
    rest = [
        tuple(b[j] * x - b[k] * y for x, y in zip(U[3 + k], U[3 + j]))
        for k in range(len(b))
        if k != j
    ]
    return _echelon(rest, T.nrays)


def polytope_degree(T: ToricData, P: LatticePolytope) -> GradedDegree:
    """Degree of the ample divisor the polytope induces on its own fan.

    The polytope's facet offsets, read in ray order, form the exponent
    vector of the divisor; its class is the degree every section carries.
    """
    if tuple(f.normal for f in P.facets) != T.rays:
        raise FanMismatch("polytope facet normals do not match the toric rays")
    offsets = tuple(f.offset for f in P.facets)
    return T.degree_of_exponents(offsets)


def _section(T: ToricData, gamma: GradedDegree):
    """gamma's memo entry: e0, the runs of its scan, the largest exponent on
    them (0 if none; it is at the end of a run) and its codes by radix.
    e0 = U^-1 (residues, free part) is an integer vector of degree gamma, as
    U is unimodular, so gamma's monomials are e0 + (<m, v_i>)_i for the
    lattice points m of { m : <m, v_i> >= -e0_i }, scanned in the fan's
    `scan_chart` as e0 + (<m', w_i>)_i with w_i = C v_i, once per ToricData.
    """
    if gamma.torsion_moduli != T.torsion or len(gamma.free_part) != T.class_rank:
        raise ValueError("degree does not belong to this class group")
    if gamma not in T._sections:
        # the residues sit just before the free part: see degree_of_exponents
        target = (0,) * (3 - len(T.torsion)) + tuple(gamma.torsion_part) + tuple(gamma.free_part)
        e0 = T.smith.U_inverse.mul_vector(target)
        lines, rays = integer_lines(T.scan_rays, e0), list(zip(e0, T.scan_rays))
        largest = max([o + a * x + b * y + c * (hi if c > 0 else lo)
                       for x, y, lo, hi in lines for o, (a, b, c) in rays], default=0)
        T._sections[gamma] = (e0, lines, largest, {})
    return T._sections[gamma]


def code_radix(T: ToricData, *degrees: GradedDegree) -> int:
    """1 + the largest exponent of a monomial of any of the degrees."""
    return 1 + max(_section(T, gamma)[2] for gamma in degrees)


def monomial_codes(T: ToricData, gamma: GradedDegree, radix: int) -> tuple[int, ...]:
    """The monomials of degree gamma as sorted codes sum_t e_t radix**(n-1-t).

    With radix above every exponent of gamma (`code_radix`), codes are
    one-to-one, code(a) + code(b) = code(a + b) while a + b has every entry
    below radix, and sorted codes are in lex order. The exponents are affine
    along a run of the scan, so each run is one range of codes.
    """
    e0, lines, largest, codes = _section(T, gamma)
    if radix <= largest:
        raise ValueError(f"radix {radix} does not exceed the exponent {largest}")
    if radix not in codes:
        powers = [radix**t for t in range(T.nrays - 1, -1, -1)]
        k0, kx, ky, kz = (sum(map(mul, v, powers)) for v in (e0, *zip(*T.scan_rays)))
        step = kz or 1  # codes are one-to-one, so kz = 0 only if every run is one point
        starts = [(k0 + kx * x + ky * y + kz * lo, hi - lo + 1) for x, y, lo, hi in lines]
        runs = (range(s, s + step * count, step) for s, count in starts)
        codes[radix] = tuple(sorted(chain.from_iterable(runs)))
    return codes[radix]


def monomials_of_degree(T: ToricData, gamma: GradedDegree) -> list[CoxMonomial]:
    """All nonnegative exponent vectors whose class equals gamma, lex sorted:
    the tuple view of the runs that `monomial_codes` codes."""
    e0, lines, _, _ = _section(T, gamma)
    return sorted(expand_lines(lines, e0, T.scan_rays))
