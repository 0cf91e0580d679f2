"""Toric data from a complete simplicial fan: class-group grading of the
homogeneous coordinate ring, distinguished degrees, graded monomial bases.

The class group is the cokernel of the n x 3 ray matrix, presented through
a Smith decomposition. Degrees live in Smith coordinates: a free part of
length n - 3 and residues modulo the torsion invariants.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import FanMismatch, NotSimplicial
from .lattice import (
    LatticePolytope,
    NormalFan,
    dot,
    integer_points,
    is_simplicial,
    scan_chart,
)
from .linalg import IntMatrix, smith_normal_form

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

    def _combine(self, other: "GradedDegree", sign: int) -> "GradedDegree":
        """self + sign * other."""
        if (
            len(self.free_part) != len(other.free_part)
            or self.torsion_moduli != other.torsion_moduli
        ):
            raise ValueError("degrees from different class groups")
        return GradedDegree(
            free_part=tuple(a + sign * b for a, b in zip(self.free_part, other.free_part)),
            torsion_part=tuple(
                (a + sign * b) % d
                for a, b, d in zip(
                    self.torsion_part, other.torsion_part, self.torsion_moduli
                )
            ),
            torsion_moduli=self.torsion_moduli,
        )

    def __add__(self, other: "GradedDegree") -> "GradedDegree":
        return self._combine(other, 1)

    def __sub__(self, other: "GradedDegree") -> "GradedDegree":
        return self._combine(other, -1)

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.free_part) and all(
            r == 0 for r in self.torsion_part
        )


class ToricData(
    namedtuple(
        "ToricData", "rays class_rank torsion smith variable_degrees scan_rays"
    )
):
    """Rays plus the Smith presentation (a SmithDecomposition) of their
    cokernel, the class group: its rank, its torsion invariants and the
    GradedDegree of each variable; and scan_rays, the rays in the fan's
    `scan_chart`, where `monomials_of_degree` scans.

    `_sections` is the monomial basis of each degree asked for so far. It
    lives in the instance dict, so it takes no part in equality, hashing or
    repr, and a `_replace`d copy starts with a fresh one.
    """

    @cached_property
    def _sections(self) -> dict:
        return {}

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def degree_of_exponents(self, exponents) -> GradedDegree:
        """Image of an integer exponent vector in the class group."""
        e = tuple(int(x) for x in exponents)
        u = self.smith.U.mul_vector(e)
        d = self.smith.diagonal
        return GradedDegree(
            free_part=u[3:],
            torsion_part=tuple(
                u[i] % d[i] for i in range(3) if d[i] > 1
            ),
            torsion_moduli=self.torsion,
        )


def build_toric_data(fan: NormalFan) -> ToricData:
    """Class group and variable degrees of the fan's coordinate ring.

    Presentation: Smith decomposition U R V = D of the ray matrix R whose
    rows are the rays, so the cokernel is Z^n / D Z^3 in U-coordinates.
    Rows of U beyond the first three are sign-normalized to make the free
    coordinates of the anticanonical class nonnegative; those rows satisfy
    (U R) = 0 there, so flipping them preserves the decomposition. Negating
    row i of U negates column i of its inverse.
    """
    if not is_simplicial(fan):
        sizes = sorted({len(c) for c in fan.maximal_cones})
        raise NotSimplicial(
            f"maximal cones must have 3 independent rays, found cone sizes {sizes}"
        )
    n = len(fan.rays)
    ray_matrix = IntMatrix.from_rows(fan.rays)
    dec = smith_normal_form(ray_matrix)
    diag = dec.diagonal
    if len(diag) != 3 or any(d == 0 for d in diag):
        raise NotSimplicial("rays do not span the lattice over the rationals")

    u_rows = [list(r) for r in dec.U.entries]
    u_inverse = [list(r) for r in dec.U_inverse.entries]
    for i in range(3, n):
        if sum(u_rows[i]) < 0:
            u_rows[i] = [-x for x in u_rows[i]]
            for row in u_inverse:
                row[i] = -row[i]
    dec = dec._replace(
        U=IntMatrix.from_rows(u_rows), U_inverse=IntMatrix.from_rows(u_inverse)
    )
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    if dec.U.mul(dec.U_inverse).entries != identity:
        raise AssertionError("inverse of the Smith transform failed verification")

    C = scan_chart(fan)
    data = ToricData(
        rays=fan.rays,
        class_rank=n - 3,
        torsion=tuple(d for d in diag if d > 1),
        smith=dec,
        variable_degrees=(),
        scan_rays=tuple(tuple(dot(c, v) for c in C) for v in fan.rays),
    )
    # variable j has the class of the j-th unit vector
    data = data._replace(
        variable_degrees=tuple(data.degree_of_exponents(e) for e in identity)
    )

    # The lattice must map to the identity class: degrees of exponent
    # vectors of the form (<m, v_1>, ..., <m, v_n>) vanish.
    for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        image = tuple(dot(m, v) for v in data.rays)
        if not data.degree_of_exponents(image).is_zero:
            raise AssertionError("lattice image has nonzero class; presentation broken")
    return data


def anticanonical_degree(T: ToricData) -> GradedDegree:
    """Degree of the product of all variables (minus the canonical class)."""
    return T.degree_of_exponents((1,) * T.nrays)


def _euler_weights(T: ToricData, beta: GradedDegree) -> list[tuple[int, ...]]:
    """Integer vectors w with sum_i w_i v_i = 0 that vanish on every
    exponent vector of degree beta.

    The rows of U after the first three span the relations among the rays,
    and the free part of an exponent vector's degree is their product with
    it. So for each lambda with lambda . b = 0 (b the free part of beta),
    w = sum_t lambda_t U[3 + t] has w . e = 0 for every e of degree beta:
    the class_rank - 1 vectors b_j e_k - b_k e_j, for the first j with
    b_j != 0, give lambda a basis over Q.
    """
    b = beta.free_part
    j = next((t for t, x in enumerate(b) if x), None)
    if j is None:
        return []
    U = T.smith.U.entries
    return [
        tuple(b[j] * x - b[k] * y for x, y in zip(U[3 + k], U[3 + j]))
        for k in range(len(b))
        if k != j
    ]


def polytope_degree(T: ToricData, P: LatticePolytope) -> GradedDegree:
    """Degree of the ample divisor the polytope induces on its own fan.

    The polytope's facet offsets, read in ray order, form the exponent
    vector of the divisor; its class is the degree every section carries.
    """
    if tuple(f.normal for f in P.facets) != T.rays:
        raise FanMismatch("polytope facet normals do not match the toric rays")
    offsets = tuple(f.offset for f in P.facets)
    return T.degree_of_exponents(offsets)


def monomials_of_degree(T: ToricData, gamma: GradedDegree) -> list[CoxMonomial]:
    """All nonnegative exponent vectors whose class equals gamma, lex sorted.

    One integer representative, e0 = U^-1 (residues, free part), always
    exists since U is invertible over the integers; the fiber over gamma is
    e0 shifted by the ray-matrix image of the lattice, so its nonnegative
    members are e0 + (<m, v_i>)_i for the lattice points m of
    { m : <m, v_i> >= -e0_i }, scanned in the fan's `scan_chart` as
    e0 + (<m', w_i>)_i with w_i = C v_i, at a cost of its lines plus points
    in that chart. Each degree's basis is computed once per ToricData.
    """
    if gamma.torsion_moduli != T.torsion or len(gamma.free_part) != T.class_rank:
        raise ValueError("degree does not belong to this class group")
    if gamma not in T._sections:
        residues = iter(gamma.torsion_part)
        target = [next(residues) if d > 1 else 0 for d in T.smith.diagonal]
        e0 = T.smith.U_inverse.mul_vector(target + list(gamma.free_part))
        T._sections[gamma] = tuple(
            sorted(
                tuple(a + dot(m, w) for a, w in zip(e0, T.scan_rays))
                for m in integer_points(T.scan_rays, e0)
            )
        )
    return list(T._sections[gamma])
