"""Exact integer matrix algebra: Smith normal forms, ranks, integer solves.

Everything is computed over arbitrary-precision integers; no floating
point is involved anywhere. Rational rows enter after scaling by their
denominators' lcm, which leaves the rank unchanged.
"""

from qfact import IntMatrix, rank, smith_normal_form, solve_integer
from qfact.linalg import SparseRows


def product(X, Y):
    """The product of two matrices given as row tuples."""
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*Y)) for row in X)


# the ray matrix of the fan of the standard simplex
rays = IntMatrix.from_rows([(-1, -1, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)])
dec = smith_normal_form(rays)
print("ray matrix of projective 3-space:")
print("  invariant factors:", dec.diagonal)
UAV = product(product(dec.U.entries, rays.entries), dec.V.entries)
print("  U * A * V == D:", UAV == dec.D.entries)

# a diagonal matrix that is not yet in Smith form: the invariant factors
# must form a divisibility chain, so (4, 6) reorganizes into (2, 12)
dec2 = smith_normal_form(IntMatrix.from_rows([[4, 0], [0, 6]]))
print("\ndiag(4, 6) has invariant factors", dec2.diagonal)

# torsion appears as invariant factors larger than 1
dec3 = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 2], [1, 1]]))
print("cokernel of [[2,0],[0,2],[1,1]]^T has factors", dec3.diagonal)

# exact rank over the rationals, computed on integer rows given by their
# nonzero entries: (columns, values) per row, here [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
M = SparseRows((((0, 1, 2), (1, 2, 3)), ((0, 1, 2), (2, 4, 6)), ((1, 2), (1, 1))), 3)
print("\nrank of a 3x3 with a repeated direction:", rank(M))

# integer linear systems through the Smith form: solvable iff each
# invariant factor divides its transformed right-hand side
A = IntMatrix.from_rows([[2, 3], [0, 5]])
print("\nA x = (1, 5) over the integers:", solve_integer(A, (1, 5)))
print("A x = (1, 1) over the integers:", solve_integer(A, (1, 1)))
doubling = IntMatrix.from_rows([[2, 0], [0, 2]])
print("2Z^2 contains (1, 0):", solve_integer(doubling, (1, 0)) is not None)
