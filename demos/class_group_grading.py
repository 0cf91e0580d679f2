"""Class groups of complete simplicial fans and the grading they induce.

The homogeneous coordinate ring has one variable per ray, graded by the
cokernel of the ray matrix. Three examples: free rank one, free rank three,
and a class group with torsion.
"""

from qfact import (
    anticanonical_degree,
    build_toric_data,
    convex_hull,
    lattice_points,
    monomials_of_degree,
    normal_fan,
    polytope_degree,
)

simplex = convex_hull([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)])
T = build_toric_data(normal_fan(simplex))
print("projective 3-space (fan of the simplex):")
print("  rays:", T.rays)
print("  class group: rank", T.class_rank, "torsion", T.torsion)
print("  variable degrees:", [d.free_part for d in T.variable_degrees])
beta = polytope_degree(T, simplex)
print("  polytope degree:", beta.free_part, " anticanonical:", anticanonical_degree(T).free_part)
print("  monomials of the polytope degree:", len(monomials_of_degree(T, beta)))
print("  lattice points of the polytope:  ", len(lattice_points(simplex)))

cube = convex_hull([(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)])
Tc = build_toric_data(normal_fan(cube))
print("\ntriple product of lines (fan of the cube):")
# on a simplicial fan the Picard number is the class group's free rank
print("  class group: rank", Tc.class_rank, "picard number", Tc.class_rank)
print("  variable degrees:", [d.free_part for d in Tc.variable_degrees])
print("  beta == beta0:", polytope_degree(Tc, cube) == anticanonical_degree(Tc))

# a quotient with torsion: the class group picks up two 2-torsion factors
demicube = convex_hull([(0, 0, 0), (2, 2, 0), (2, 0, 2), (0, 2, 2)])
Td = build_toric_data(normal_fan(demicube))
print("\nsimplex with torsion class group:")
print("  rays:", Td.rays)
print("  class group: rank", Td.class_rank, "torsion", Td.torsion)
print("  variable torsion residues:", [d.torsion_part for d in Td.variable_degrees])
bd = polytope_degree(Td, demicube)
print("  sections of the polytope degree:", len(monomials_of_degree(Td, bd)))
print("  lattice points:", len(lattice_points(demicube)))

# torsion-aware counting: a degree in the wrong residue class has no
# monomials at all, even when its free part looks plausible
shifted = bd + Td.variable_degrees[0]
print("  sections one variable-degree higher:", len(monomials_of_degree(Td, shifted)))
