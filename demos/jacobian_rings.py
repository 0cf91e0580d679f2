"""Graded pieces of the Jacobian quotient and the multiplication map test.

The quartic surface certifies; the cubic is the classical boundary case
where the multiplication map fails to be surjective.
"""

from qfact import (
    GradedDegree,
    build_toric_data,
    convex_hull,
    graded_piece,
    hilbert_profile,
    homogenize,
    multiplication_surjective,
    normal_fan,
    parse_laurent,
    polytope_degree,
)

simplex = convex_hull([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)])
T = build_toric_data(normal_fan(simplex))
fermat = homogenize(parse_laurent("x^4 + y^4 + z^4 + 1"), simplex, T)
beta = polytope_degree(T, simplex)

print("Fermat quartic, degree-by-degree quotient dimensions:")
degrees = [
    GradedDegree(free_part=(k,), torsion_part=(), torsion_moduli=())
    for k in range(9)
]
for gamma, s, j, r in hilbert_profile(fermat, T, degrees):
    print(f"  degree {gamma.free_part[0]}: dim S = {s:3d}  rank J = {j:3d}  dim R = {r:3d}")
# the profile is a palindrome; the top of the ring sits in degree 8

piece = graded_piece(fermat, T, beta)
print("\nquotient dimension in degree beta:", piece.r_dimension)


def uncovered_columns(v):
    """Target monomials that are no product of two source monomials (U),
    and the rank of the ideal's rows restricted to them."""
    left, right, top = v.pieces
    covered = {
        tuple(x + y for x, y in zip(a, b))
        for a in left.monomial_basis
        for b in right.monomial_basis
    }
    u = sum(1 for m in top.monomial_basis if m not in covered)
    return u, v.image_rank - (v.target_needed - u)


v = multiplication_surjective(fermat, T)
print(
    "multiplication map at (beta, beta - beta0):",
    f"image rank {v.image_rank} of {v.target_needed} needed ->",
    "surjective" if v.surjective else "not surjective",
)
print("quotient dimensions (left, right, target):", v.dims)
# here beta - beta0 = 0, so the constant times every beta-monomial covers
# the whole target and no rank is needed
print("|U| = %d, rank of J restricted to U = %d" % uncovered_columns(v))

# the cubic boundary case: the target quotient has dimension 6 but the
# image only reaches the 4-dimensional span of the partials
cubic = convex_hull([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
Tc = build_toric_data(normal_fan(cubic))
fc = homogenize(parse_laurent("x^3 + y^3 + z^3 + 1"), cubic, Tc)
vc = multiplication_surjective(fc, Tc)
print("\ncubic:", f"image rank {vc.image_rank} of {vc.target_needed} ->", vc.surjective)
print("cubic quotient dimensions:", vc.dims)
# R_(beta - beta0) is zero, so nothing is covered: U is the whole target
# and the partials' 4-dimensional span is all the image there is
print("cubic |U| = %d, rank of J restricted to U = %d" % uncovered_columns(vc))
