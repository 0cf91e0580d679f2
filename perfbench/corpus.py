"""The four benchmark corpora, generated from a workload seed.

Each case is one `qfact check` call. Its inputs come from the seed alone,
and `expect` names the entry of expected.json that holds its answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from random import Random

WORKLOADS = ("dilates", "retry", "sheared", "polynomials")


@dataclass(frozen=True)
class Case:
    name: str
    expect: str
    vertices: tuple[tuple[int, int, int], ...] | None = None
    poly_text: str | None = None
    use_input_coeffs: bool = False
    # qfact's --seed; None passes the workload seed.
    sample_seed: int | None = None


def simplex(k):
    return ((0, 0, 0), (k, 0, 0), (0, k, 0), (0, 0, k))


def box(a, b, c):
    return tuple((x, y, z) for x in (0, a) for y in (0, b) for z in (0, c))


def prism(k):
    return tuple((x, y, z) for (x, y) in ((0, 0), (k, 0), (0, k)) for z in (0, 1))


DEMICUBE = ((0, 0, 0), (2, 2, 0), (2, 0, 2), (0, 2, 2))
OCTAHEDRON = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))

# Unimodular (det 1) with entries up to 15: the images' bounding boxes hold
# 200 to 470 times as many integer points as the polytopes, so box scans
# dominate.
SHEAR = ((15, 2, 9), (4, 1, 3), (2, 0, 1))


def _dilates(rng):
    """The seed only translates each polytope, and qfact samples with a
    fixed --seed. Lattice points keep their lex order under translation, so
    every seed gets the same coefficients and does the same elimination:
    the 7Δ rank alone varies by a fifth between coefficient draws."""
    originals = [(f"simplex{k}", simplex(k)) for k in range(4, 8)]
    originals += [("cube2", box(2, 2, 2)), ("cube3", box(3, 3, 3)), ("demicube", DEMICUBE)]
    cases = []
    for name, verts in originals:
        t = [rng.randint(-3, 3) for _ in range(3)]
        moved = tuple(tuple(x + dx for x, dx in zip(v, t)) for v in verts)
        cases.append(Case(name, name, moved, sample_seed=0))
    return cases


def _retry(rng):
    cases = [Case(f"prism{k}", f"prism{k}", prism(k)) for k in range(3, 9)]
    cases += [Case(f"slab{a}", f"slab{a}", box(a, a, 1)) for a in range(2, 6)]
    cases += [Case(f"simplex{k}", f"simplex{k}", simplex(k)) for k in (2, 3)]
    return cases


def signed_permutation(rng):
    perm = rng.choice(list(permutations(range(3))))
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    return tuple(
        tuple(signs[i] if j == perm[i] else 0 for j in range(3)) for i in range(3)
    )


def matmul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def apply(A, v):
    return tuple(sum(A[i][j] * v[j] for j in range(3)) for i in range(3))


def _sheared(rng):
    originals = [
        ("simplex4", simplex(4)),
        ("simplex3", simplex(3)),
        ("cube2", box(2, 2, 2)),
        ("demicube", DEMICUBE),
        ("prism3", prism(3)),
        ("octahedron", OCTAHEDRON),
    ]
    cases = []
    for name, verts in originals:
        # Only signs and the coordinate order vary with the seed, so every
        # seed scans boxes of the same size.
        A = matmul(signed_permutation(rng), SHEAR)
        cases.append(Case(f"sheared_{name}", name, tuple(apply(A, v) for v in verts)))
    return cases


def _fermat_text(k):
    return f"x^{k} + y^{k} + z^{k} + 1"


def _dense_quintic_text(i, rng):
    """All 56 monomials of 5Δ with coefficients p/q, 1 <= p, q <= 30.

    The coefficients of case i are fixed and the seed only assigns them to
    monomials. Every partial derivative holds most of the terms, so the
    denominators a Jacobian row clears, and with them the rank's work, are
    much the same for every seed."""
    fixed = Random(f"dense_quintic{i}")
    coeffs = [(fixed.randint(1, 30), fixed.randint(1, 30)) for _ in range(56)]
    rng.shuffle(coeffs)
    monomials = [
        (a, b, c) for a in range(6) for b in range(6 - a) for c in range(6 - a - b)
    ]
    return " + ".join(
        f"{p}/{q}*x^{a}*y^{b}*z^{c}" for (p, q), (a, b, c) in zip(coeffs, monomials)
    )


def _polynomials(rng):
    cases = [
        Case(f"fermat{k}", f"fermat{k}", poly_text=_fermat_text(k), use_input_coeffs=True)
        for k in (4, 5, 6)
    ]
    cases += [
        Case(
            f"dense_quintic{i}",
            "dense_quintic",
            poly_text=_dense_quintic_text(i, rng),
            use_input_coeffs=True,
        )
        for i in range(6)
    ]
    return cases


_CORPORA = {
    "dilates": _dilates,
    "retry": _retry,
    "sheared": _sheared,
    "polynomials": _polynomials,
}


def build(workload: str, seed: int) -> list[Case]:
    """The workload's cases; the same seed gives the same cases."""
    return _CORPORA[workload](Random(f"{workload}:{seed}"))
