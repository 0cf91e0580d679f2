"""From a Laurent polynomial to the graded coordinate ring.

Parsing, Newton polytopes, homogenization against the polytope's own fan,
and partial derivatives.
"""

from qfact import (
    build_toric_data,
    homogenize,
    newton_polytope,
    normal_fan,
    parse_laurent,
    partial_derivatives,
    polytope_degree,
)

F = parse_laurent("x + y + z + 1/(x*y*z)")
print("input:", " + ".join("x^%d y^%d z^%d" % e for e, _ in F.terms))

P = newton_polytope(F)
print("Newton polytope vertices:", P.vertices)

T = build_toric_data(normal_fan(P))
print("rays:", T.rays)

f = homogenize(F, P, T)
beta = polytope_degree(T, P)
print("homogenized terms (one coordinate-ring variable per ray):")
for e, c in f.terms:
    print("  ", e, "coefficient", c)
print("degree:", f.degree.free_part, "== polytope degree:", f.degree == beta)

# each partial has its own degree: deg f minus the variable's degree
print("\npartial derivatives:")
for i, p in enumerate(partial_derivatives(f, T)):
    print(f"  d/dz{i}: {len(p.terms)} terms, degree {p.degree.free_part}")

# a second example with rational coefficients and negative exponents
G = parse_laurent("3/2*x^2*y - z^-1 + 7 + y^2*z")
Q = newton_polytope(G)
TQ = build_toric_data(normal_fan(Q))
g = homogenize(G, Q, TQ)
print("\nsecond example, degree", g.degree.free_part, "terms:")
for e, c in g.terms:
    print("  ", e, "coefficient", c)
