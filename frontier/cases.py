"""The largest inputs of `qfact check` whose answers are known without qfact,
and inputs whose reports must escape non-ASCII text. It imports neither
qfact nor pytest, so `test_frontier.py` and a benchmark can share it."""

import json
from math import comb
from random import Random
from typing import NamedTuple

LABELS = ("beta", "beta_minus_beta0", "two_beta_minus_beta0")
BIG = ("--coeff-bound", str(10**30))  # Jacobian entries near 10**31, outside int64


class Case(NamedTuple):
    name: str  # the input file's name, or the --poly-str text
    option: str  # qfact check's source option
    text: str | None  # the file's content; None writes no file
    flags: tuple
    limit: int  # seconds per run of qfact check
    profile: tuple = ()  # (dim S, rank J, dim R) at each of LABELS
    verdict: str = "CERTIFIED_Q_FACTORIAL"
    exit_code: int = 0
    citation: str | None = None  # the text report's citation line, if checked


def simplex_profile(k):
    """kΔ is P^3 with beta = k, beta0 = 4 and dim S_d = C(d + 3, 3). The
    partials of a smooth degree-k surface are a regular sequence of four
    forms of degree k - 1, so dim R_d = [t^d] ((1 - t^(k-1))/(1 - t))^4."""
    def row(d):
        r = sum((-1) ** j * comb(4, j) * comb(max(d + 3 - j * (k - 1), 0), 3) for j in range(5))
        return comb(d + 3, 3), comb(d + 3, 3) - r, r
    return row(k), row(k - 4), row(2 * k - 4)


def box_profile(a):
    """[0,a]^3 is (P^1)^3 with beta = (a,a,a), beta0 = (2,2,2) and dim S at
    (d,d,d) = (d+1)^3. From interior point counts l* (Batyrev-Cox, Duke
    1994): rank J at beta is 6 variables times the 2 monomials of each one's
    degree, less class rank 3 minus 1; dim R_(beta-beta0) = l*(P); and
    dim R_(2beta-beta0) = l*(2P) - 4 l*(P) - 6 l*(facet)."""
    inner, top = (a - 1) ** 3, (2 * a - 1) ** 3
    r = top - 4 * inner - 6 * (a - 1) ** 2
    return ((a + 1) ** 3, 10, (a + 1) ** 3 - 10), (inner, 0, inner), (top, top - r, r)


def _dense_simplex(k, seed):
    """Laurent text of all monomials of kΔ, with 20-digit coefficients
    drawn from Random(seed)."""
    rng = Random(seed)
    terms = [
        f"{rng.randrange(10**19, 10**20)}*x^{a}*y^{b}*z^{c}"
        for a in range(k + 1)
        for b in range(k + 1 - a)
        for c in range(k + 1 - a - b)
    ]
    return " + ".join(terms) + "\n"


def _polytope(vertices):
    return json.dumps({"vertices": [list(v) for v in vertices]})


def _box(a, shear=0):
    vertices = [(x, y, z) for x in (0, a) for y in (0, a) for z in (0, a)]
    return _polytope([(x + shear * y, y + shear * z, z) for x, y, z in vertices])


_SIMPLEX = {k: _polytope([(0, 0, 0), (k, 0, 0), (0, k, 0), (0, 0, k)]) for k in (10, 12, 16, 24)}
_R = range(-8, 9)
_BALL = [(x, y, z) for x in _R for y in _R for z in _R if x * x + y * y + z * z <= 64]
_SIMPLEX4 = [[0] * 4] + [[int(i == j) for j in range(4)] for i in range(4)]
_POLY4 = {"terms": [{"exponents": e, "coefficient": 1} for e in _SIMPLEX4]}
_FERMAT12 = "3/7*x^12 + 5/11*y^12 + 2/13*z^12 + 17/19\n"
_DOLGACHEV = "factorial by Dolgachev for generic F"

CASES = (
    # A class-rank-3 top piece (352 x 729): the Euler relations leave rows
    # out, the peel leaves a 96 x 192 core, and its mod-p rank meets the
    # bound; the integer elimination would take far longer than the limit.
    Case("box5.json", "--polytope", _box(5), (), 60, box_profile(5)),
    # A 480 x 969 top piece with no Euler-dependent rows (class rank 1) whose
    # rows are singletons, so the peel ranks it; then with entries outside
    # int64, which the peel ranks with no prime either.
    Case("simplex10.json", "--polytope", _SIMPLEX[10], (), 20, simplex_profile(10)),
    Case("simplex10_big.json", "--polytope", _SIMPLEX[10], BIG, 20, simplex_profile(10)),
    # Entries outside int64 in a class-rank-3 core: the peel leaves 96 x 192,
    # whose rows share few values tuples, each reduced mod p once.
    Case("box5_big.json", "--polytope", _box(5), BIG, 20, box_profile(5)),
    # All 286 monomials of 10Δ with 20-digit input coefficients: nothing
    # peels, and the 480 x 969 top piece packs whole, its dense rows sharing
    # a values tuple outside int64 per partial.
    Case("dense10_big.txt", "--poly", _dense_simplex(10, 10), ("--use-input-coeffs",), 5,
         simplex_profile(10)),
    # 880 x 1771. Like every polytope case here it has no uncovered target
    # monomial, so its vertex member certifies: one term per Jacobian row.
    Case("simplex12.json", "--polytope", _SIMPLEX[12], (), 20, simplex_profile(12)),
    # 2240 x 4495. The vertex member's rows are singletons, so the peel
    # ranks them with nothing packed.
    Case("simplex16.json", "--polytope", _SIMPLEX[16], (), 2, simplex_profile(16)),
    # The largest top piece, 8096 x 16215: about 1.3 * 10^8 cells if dense.
    Case("simplex24.json", "--polytope", _SIMPLEX[24], (), 2, simplex_profile(24)),
    # 650 x 1331, peeled to a 150 x 300 core: each pivot must touch only the
    # rows of its leading-slot bucket.
    Case("box6.json", "--polytope", _box(6), (), 20, box_profile(6)),
    # The largest class-rank-3 top piece, 1512 x 2197 of rank 1080; its 432
    # Euler-dependent rows are left out, and the peel leaves a 216 x 432 core.
    Case("box7.json", "--polytope", _box(7), (), 20, box_profile(7)),
    # [0,2]^3 sheared by ((1,1000,0),(0,1,1000),(0,0,1)): only a scan in the
    # chart of a smooth cone avoids its box of 2003 x 2003 x 3 points.
    Case("sheared_cube2.json", "--polytope", _box(2, 1000), (), 5, box_profile(2)),
    # The only input through the Laurent parser and rational coefficients.
    # Its Jacobian ideal is (z_i^11), so its profile is that of 12Δ.
    Case("fermat12.txt", "--poly", _FERMAT12, ("--use-input-coeffs",), 20, simplex_profile(12)),
    # A hull of 2109 points, fast only if it revisits just violated facets.
    Case("ball8.json", "--polytope", _polytope(_BALL), (), 30, (), "UNSUPPORTED", 3),
    # The standard 4-simplex by exponents and by vertices: certify alone
    # judges the dimension, so exponents of any length reach it, as vertices do.
    Case("poly4.json", "--poly", json.dumps(_POLY4), (), 20, (), "UNSUPPORTED", 3, _DOLGACHEV),
    Case("simplex4d.json", "--polytope", _polytope(_SIMPLEX4), (), 20, (), "UNSUPPORTED", 3,
         _DOLGACHEV),
    # ERROR reports that quote a non-ASCII file name and non-ASCII text.
    Case("nonexist_é.txt", "--poly", None, (), 20, (), "ERROR", 1),
    Case("x^2 + 中", "--poly-str", None, (), 20, (), "ERROR", 1),
)
