"""Acceptance gate: one test per criterion, each printing its own verdict line.

The same lines are echoed in the terminal summary by conftest.py, so they
stay visible when pytest captures stdout.
"""

import json
import time
from random import Random

from oracles import (
    box_points,
    brute_facets,
    dehomogenize,
    matmul,
    naive_det,
    naive_rank,
    product_surjectivity,
)
from util import (
    random_int_matrix,
    random_polytope,
    random_simplicial_polytope,
    random_support_polynomial,
    random_unimodular,
    sparse_rows,
    surjectivity_cases,
    toric_of,
    transform_polynomial,
)

from qfact.certify import CertificationRequest, certify, emit_report
from qfact.cli import run
from qfact.errors import DegenerateHull
from qfact.jacobian import hilbert_profile, multiplication_surjective
from qfact.lattice import convex_hull, lattice_points
from qfact.laurent import LaurentPolynomial, homogenize, parse_laurent
from qfact.linalg import IntMatrix, rank, smith_normal_form
from qfact.toric import GradedDegree, monomials_of_degree, polytope_degree

QUARTIC = {"vertices": [[0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4]]}
CUBIC = {"vertices": [[0, 0, 0], [3, 0, 0], [0, 3, 0], [0, 0, 3]]}
CUBE = {"vertices": [[a, b, c] for a in (0, 2) for b in (0, 2) for c in (0, 2)]}
OCTAHEDRON = {
    "vertices": [
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
    ]
}


def _verdict_line(n, checks):
    ok = False
    try:
        checks()
        ok = True
    finally:
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _check_cli(tmp_path, doc, args=()):
    src = tmp_path / "polytope.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = run(
        ["check", "--polytope", str(src), *args, "--format", "json", "--out", str(out)]
    )
    return code, json.loads(out.read_text())


def test_criterion_1_quartic_certificate(tmp_path):
    def checks():
        start = time.monotonic()
        code, payload = _check_cli(tmp_path, QUARTIC)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        assert code == 0
        assert payload["verdict"] == "CERTIFIED_Q_FACTORIAL"
        dims = [row["dim_r"] for row in payload["dimensions"]["profile"]]
        assert dims == [19, 1, 19]
        # any seed certifies
        code2, payload2 = _check_cli(tmp_path, QUARTIC, ["--seed", "271828"])
        assert code2 == 0
        assert [r["dim_r"] for r in payload2["dimensions"]["profile"]] == [19, 1, 19]

    _verdict_line(1, checks)


def test_criterion_2_cubic_boundary(tmp_path):
    def checks():
        start = time.monotonic()
        code, payload = _check_cli(tmp_path, CUBIC)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        assert code == 2
        assert payload["verdict"] == "INCONCLUSIVE"
        rows = {row["degree"]: row for row in payload["dimensions"]["profile"]}
        assert rows["beta_minus_beta0"]["dim_r"] == 0
        assert rows["two_beta_minus_beta0"]["dim_r"] == 6

    _verdict_line(2, checks)


def test_criterion_3_anticanonical_k3(tmp_path):
    def checks():
        code, payload = _check_cli(tmp_path, CUBE)
        assert code == 0
        assert payload["verdict"] == "CERTIFIED_Q_FACTORIAL"
        assert payload["toric"]["picard_number"] == 3
        assert payload["degrees"]["beta"] == payload["degrees"]["beta0"]

    _verdict_line(3, checks)


def test_criterion_4_non_simplicial_rejection(tmp_path):
    def checks():
        code, payload = _check_cli(tmp_path, OCTAHEDRON)
        assert code == 3
        assert payload["verdict"] == "UNSUPPORTED"

    _verdict_line(4, checks)


def _property_hull_and_lattice_oracles():
    rng = Random(1001)
    done = 0
    while done < 50:
        pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(7)]
        try:
            P = convex_hull(pts)
        except DegenerateHull:
            continue
        done += 1
        assert convex_hull(lattice_points(P)) == P
        assert {(f.normal, f.offset) for f in P.facets} == set(brute_facets(pts))
        pairs = [(f.normal, f.offset) for f in P.facets]
        assert lattice_points(P) == box_points(pairs, bound=4)


def _property_smith_soundness():
    rng = Random(1002)
    for _ in range(200):
        A = IntMatrix.from_rows(
            random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        )
        dec = smith_normal_form(A)
        lists = lambda M: [list(r) for r in M.entries]
        assert matmul(matmul(lists(dec.U), lists(A)), lists(dec.V)) == lists(dec.D)
        assert abs(naive_det(lists(dec.U))) == 1
        assert abs(naive_det(lists(dec.V))) == 1
        diag = dec.diagonal
        for a, b in zip(diag, diag[1:]):
            assert not b or (a and b % a == 0)


def _property_rank_agreement():
    rng = Random(1003)
    for _ in range(200):
        rows = random_int_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert rank(sparse_rows(rows)) == naive_rank(rows)


def _property_round_trips():
    rng = Random(1004)
    for _ in range(50):
        P = random_simplicial_polytope(rng)
        T = toric_of(P)
        F = random_support_polynomial(P, rng)
        assert dehomogenize(homogenize(F, P, T), P, T) == F


def _property_sections_count():
    rng = Random(1005)
    for _ in range(20):
        P = random_simplicial_polytope(rng)
        T = toric_of(P)
        beta = polytope_degree(T, P)
        assert len(monomials_of_degree(T, beta)) == len(lattice_points(P))


def _property_gl3_invariance():
    rng = Random(1006)
    for _ in range(10):
        P = random_simplicial_polytope(rng)
        F = random_support_polynomial(P, rng)
        A = random_unimodular(rng)
        base = certify(
            CertificationRequest(source_polynomial=F, use_input_coeffs=True)
        )
        moved = certify(
            CertificationRequest(
                source_polynomial=transform_polynomial(F, A), use_input_coeffs=True
            )
        )
        assert moved.verdict == base.verdict
        if base.dimensions is not None:
            assert [r["dim_r"] for r in moved.dimensions["profile"]] == [
                r["dim_r"] for r in base.dimensions["profile"]
            ]


def _property_scaling_invariance():
    rng = Random(1007)
    for _ in range(5):
        P = random_simplicial_polytope(rng)
        F = random_support_polynomial(P, rng)
        base = certify(
            CertificationRequest(source_polynomial=F, use_input_coeffs=True)
        )
        scaled = certify(
            CertificationRequest(
                source_polynomial=LaurentPolynomial.from_terms(
                    (e, -3 * c) for e, c in F.terms
                ),
                use_input_coeffs=True,
            )
        )
        assert scaled.verdict == base.verdict
        assert [r["dim_r"] for r in scaled.dimensions["profile"]] == [
            r["dim_r"] for r in base.dimensions["profile"]
        ]


def _property_lift_independence():
    # the product-of-representatives oracle under random lifts agrees with
    # the coverage test
    for T, f, beta, beta0 in surjectivity_cases():
        v = multiplication_surjective(f, T)
        for trial in range(10):
            assert product_surjectivity(f, T, beta, beta0, Random(trial)) == (
                v.surjective, v.dims, v.image_rank, v.target_needed
            )


def test_criterion_5_property_suite():
    def checks():
        _property_hull_and_lattice_oracles()
        _property_smith_soundness()
        _property_rank_agreement()
        _property_round_trips()
        _property_sections_count()
        _property_gl3_invariance()
        _property_scaling_invariance()
        _property_lift_independence()

    _verdict_line(5, checks)


def test_criterion_6_fermat_hilbert_profile():
    def checks():
        quartic = convex_hull([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)])
        T = toric_of(quartic)
        f = homogenize(parse_laurent("x^4 + y^4 + z^4 + 1"), quartic, T)
        degrees = [
            GradedDegree(free_part=(k,), torsion_part=(), torsion_moduli=())
            for k in range(9)
        ]
        table = hilbert_profile(f, T, degrees)
        assert [r for _, _, _, r in table] == [1, 4, 10, 16, 19, 16, 10, 4, 1]

    _verdict_line(6, checks)


def test_criterion_7_byte_identical_reports(tmp_path):
    def checks():
        req = CertificationRequest(
            source_vertices=tuple(tuple(v) for v in QUARTIC["vertices"]), seed=12
        )
        assert emit_report(certify(req)) == emit_report(certify(req))
        req2 = CertificationRequest(
            source_vertices=tuple(tuple(v) for v in CUBIC["vertices"]),
            seed=4,
            samples=2,
        )
        assert emit_report(certify(req2)) == emit_report(certify(req2))
        outs = []
        for name in ("a.json", "b.json"):
            src = tmp_path / "p.json"
            src.write_text(json.dumps(QUARTIC))
            out = tmp_path / name
            assert (
                run(
                    ["check", "--polytope", str(src), "--seed", "3",
                     "--format", "json", "--out", str(out)]
                )
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    _verdict_line(7, checks)
