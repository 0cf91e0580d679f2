"""Derive the expected answer for the cube [0,3]^3 with the test oracle.

qfact supplies only the monomial bases and the Jacobian rows of one
sampled member (seed 0); every rank is recomputed with `naive_rank` from
tests/oracles.py, textbook Gaussian elimination that shares no code with
qfact's fraction-free rank. The map R_beta x R_(beta-beta0) ->
R_(2beta-beta0) is onto exactly when the products of all monomials of the
two source degrees, together with the Jacobian rows of the target degree,
span the target.

    python3 perfbench/derive_cube3.py

prints the values to compare with the "cube3" entry of expected.json.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import naive_rank  # noqa: E402

from qfact.certify import sample_coefficients  # noqa: E402
from qfact.jacobian import graded_piece  # noqa: E402
from qfact.lattice import convex_hull, normal_fan  # noqa: E402
from qfact.laurent import homogenize  # noqa: E402
from qfact.toric import anticanonical_degree, build_toric_data, polytope_degree  # noqa: E402


def main():
    P = convex_hull([(x, y, z) for x in (0, 3) for y in (0, 3) for z in (0, 3)])
    T = build_toric_data(normal_fan(P))
    beta, beta0 = polytope_degree(T, P), anticanonical_degree(T)
    f = homogenize(sample_coefficients(P, 0, 10), P, T)
    pieces = [graded_piece(f, T, g) for g in (beta, beta - beta0, beta + beta - beta0)]
    dim_s = [len(p.monomial_basis) for p in pieces]
    dim_r = [
        len(p.monomial_basis) - naive_rank(p.jacobian_rows.entries) for p in pieces
    ]
    left, right, top = pieces
    index = {m: j for j, m in enumerate(top.monomial_basis)}
    products = set()
    for a in left.monomial_basis:
        for b in right.monomial_basis:
            products.add(index[tuple(x + y for x, y in zip(a, b))])
    unit_rows = [[int(j == c) for j in range(len(index))] for c in sorted(products)]
    image = naive_rank(unit_rows + [list(r) for r in top.jacobian_rows.entries])
    print(json.dumps({
        "dim_s": dim_s,
        "dim_r": dim_r,
        "image_rank": image,
        "target": len(index),
        "surjective": image == len(index),
    }))


if __name__ == "__main__":
    main()
