"""End-to-end certification, report serialization, and the command line."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from oracles import sampled_surjectivity
from util import (
    apply_matrix,
    random_simplicial_polytope,
    random_support_polynomial,
    random_unimodular,
    transform_polynomial,
)

from qfact.certify import (
    VERDICT_CERTIFIED,
    VERDICT_ERROR,
    VERDICT_INCONCLUSIVE,
    VERDICT_UNSUPPORTED,
    CertificationRequest,
    _toric_dict,
    certify,
    emit_report,
    sample_coefficients,
)
from qfact.cli import run
from qfact.lattice import convex_hull, lattice_points, normal_fan
from qfact.laurent import LaurentPolynomial, parse_laurent
from qfact.toric import build_toric_data

QUARTIC_VERTICES = ((0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4))
CUBIC_VERTICES = ((0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3))
CUBE_VERTICES = tuple((a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2))
DEMICUBE_VERTICES = ((0, 0, 0), (2, 2, 0), (2, 0, 2), (0, 2, 2))
OCTAHEDRON_VERTICES = (
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
)
# |U| = 6 of dim S = 24 at the target, and the Jacobian rows have term rank 6
# on U: Hall's condition holds, so each sample's rank on U decides, and with
# coefficients in {-1, 1} some samples fall short.
RETRY_VERTICES = ((-3, 1, 0), (-3, 3, -2), (0, 2, 2), (3, -1, 2))


def _profile_r(report):
    return tuple(row["dim_r"] for row in report.dimensions["profile"])


def test_quartic_polytope_certifies():
    report = certify(CertificationRequest(source_vertices=QUARTIC_VERTICES))
    assert report.verdict == VERDICT_CERTIFIED
    assert _profile_r(report) == (19, 1, 19)
    assert report.dimensions["image_rank"] == 35
    assert report.dimensions["target_needed"] == 35
    assert report.dimensions["surjective"] is True
    assert report.sample["source"] == "sampled"
    assert report.sample["attempt"] == 0
    assert report.toric["picard_number"] == 1
    assert len(report.citations) == 1


def test_cubic_polytope_inconclusive():
    report = certify(CertificationRequest(source_vertices=CUBIC_VERTICES))
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert _profile_r(report) == (4, 0, 6)
    assert report.dimensions["image_rank"] == 4
    assert report.dimensions["target_needed"] == 10
    assert "sufficient" in report.reason
    assert any("sufficient only" in c for c in report.citations)


def test_inconclusive_reports_last_attempt():
    # The cubic fails Hall's condition, so attempt 0 is also the last one.
    report = certify(
        CertificationRequest(source_vertices=CUBIC_VERTICES, samples=3)
    )
    assert report.sample["attempt"] == 0
    assert report.dimensions["term_rank"] < report.dimensions["uncovered"]
    assert "every member of the family with full lattice support" in report.reason
    assert "proves nothing about the ring" in report.reason


def _short_verdicts(monkeypatch, term_rank, calls=1):
    """Make the first `calls` verdicts fail with one uncovered column, on
    which the rows have the given term rank."""
    module = importlib.import_module("qfact.certify")
    real = module.multiplication_surjective
    seen = []

    def short(*args):
        v = real(*args)
        seen.append(v)
        if len(seen) > calls:
            return v
        return v._replace(
            surjective=False,
            image_rank=v.target_needed - 1,
            uncovered=1,
            term_rank=term_rank,
        )

    monkeypatch.setattr(module, "multiplication_surjective", short)
    return seen


def test_sampling_goes_on_while_halls_condition_holds(monkeypatch):
    seen = _short_verdicts(monkeypatch, term_rank=1)
    report = certify(CertificationRequest(source_vertices=QUARTIC_VERTICES))
    assert len(seen) == 2
    assert report.verdict == VERDICT_CERTIFIED
    assert report.sample["attempt"] == 1


def test_sampling_uses_every_attempt_while_halls_condition_holds(monkeypatch):
    seen = _short_verdicts(monkeypatch, term_rank=1, calls=3)
    report = certify(
        CertificationRequest(source_vertices=QUARTIC_VERTICES, samples=3)
    )
    assert len(seen) == 3
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.sample["attempt"] == 2
    assert "in 3 attempt(s)" in report.reason
    assert "every member" not in report.reason


def test_sampling_stops_once_halls_condition_fails(monkeypatch):
    seen = _short_verdicts(monkeypatch, term_rank=0)
    report = certify(CertificationRequest(source_vertices=QUARTIC_VERTICES))
    assert len(seen) == 1
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.sample["attempt"] == 0
    assert report.dimensions["uncovered"] == 1
    assert report.dimensions["term_rank"] == 0
    assert "Hall's condition fails" in report.reason


def test_input_coefficients_claim_nothing_for_the_family():
    # The Fermat cubic's pattern fails Hall's condition, but it is the
    # pattern of a sparse member, so nothing is claimed for the family.
    F = parse_laurent("x^3 + y^3 + z^3 + 1")
    report = certify(CertificationRequest(source_polynomial=F, use_input_coeffs=True))
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.dimensions["term_rank"] < report.dimensions["uncovered"]
    assert "in 1 attempt(s)" in report.reason
    assert "every member" not in report.reason


def test_empty_uncovered_set_certifies_every_coefficient_choice():
    report = certify(CertificationRequest(source_vertices=CUBE_VERTICES))
    assert report.dimensions["uncovered"] == report.dimensions["term_rank"] == 0
    assert "for every coefficient choice" in report.reason
    assert "witness at attempt" not in report.reason


def test_a_sample_that_falls_short_is_followed_by_another():
    P = convex_hull(RETRY_VERTICES)
    assert sampled_surjectivity(P, 8, 3, 1) == [False, True, True]
    report = certify(
        CertificationRequest(source_vertices=RETRY_VERTICES, seed=8, coeff_bound=1)
    )
    assert report.verdict == VERDICT_CERTIFIED
    assert report.sample["attempt"] == 1
    assert "witness at attempt 1" in report.reason
    assert report.dimensions["uncovered"] == report.dimensions["term_rank"] == 6
    assert report.dimensions["target_needed"] == 24
    report = certify(
        CertificationRequest(source_vertices=RETRY_VERTICES, seed=4, coeff_bound=1)
    )
    assert report.verdict == VERDICT_CERTIFIED
    assert report.sample["attempt"] == 2


def test_samples_that_all_fall_short_are_inconclusive(tmp_path):
    report = certify(
        CertificationRequest(
            source_vertices=RETRY_VERTICES, seed=4, samples=2, coeff_bound=1
        )
    )
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.sample["attempt"] == 1
    assert "failed to be surjective in 2 attempt(s)" in report.reason
    path = _write(
        tmp_path, "retry.json", json.dumps({"vertices": [list(v) for v in RETRY_VERTICES]})
    )
    args = ["check", "--polytope", path, "--seed", "4", "--samples", "2"]
    code, payload = _run_to_file(tmp_path, args + ["--coeff-bound", "1"])
    assert code == 2
    assert payload == json.loads(emit_report(report))


def test_cube_certifies_with_picard_three():
    report = certify(CertificationRequest(source_vertices=CUBE_VERTICES))
    assert report.verdict == VERDICT_CERTIFIED
    assert report.toric["picard_number"] == 3
    assert _profile_r(report) == (17, 1, 17)
    assert report.degrees["beta"] == report.degrees["beta0"]


def test_sheared_cube_has_the_dims_of_the_cube():
    """[0,2]^3 sheared so that its bounding box is 2003 x 2003 x 3: the scans
    run in the chart of a smooth cone, where the polytope is a cube again."""
    shear = ((1, 1000, 0), (0, 1, 1000), (0, 0, 1))
    vertices = tuple(apply_matrix(shear, v) for v in CUBE_VERTICES)
    report = certify(CertificationRequest(source_vertices=vertices))
    assert report.verdict == VERDICT_CERTIFIED
    profile = report.dimensions["profile"]
    assert [row["dim_s"] for row in profile] == [27, 1, 27]
    assert _profile_r(report) == (17, 1, 17)
    assert (profile[2]["dim_s"], profile[2]["rank_j"], profile[2]["dim_r"]) == (27, 10, 17)


def test_octahedron_unsupported():
    report = certify(CertificationRequest(source_vertices=OCTAHEDRON_VERTICES))
    assert report.verdict == VERDICT_UNSUPPORTED
    assert "simplicial" in report.reason
    assert report.toric is None
    assert report.sample is None


def test_torsion_polytope_certifies():
    report = certify(CertificationRequest(source_vertices=DEMICUBE_VERTICES))
    assert report.verdict == VERDICT_CERTIFIED
    assert report.toric["torsion_invariants"] == [2, 2]
    assert _profile_r(report) == (7, 1, 7)


def test_high_dimension_cites_factoriality():
    report = certify(
        CertificationRequest(
            source_vertices=((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        )
    )
    assert report.verdict == VERDICT_UNSUPPORTED
    assert report.citations == ("factorial by Dolgachev for generic F",)
    assert report.toric is None


def test_low_dimension_unsupported():
    report = certify(
        CertificationRequest(source_vertices=((0, 0), (1, 0), (0, 1)))
    )
    assert report.verdict == VERDICT_UNSUPPORTED
    assert report.citations == ()


def test_mixed_dimension_vertices_error():
    report = certify(
        CertificationRequest(source_vertices=((0, 0), (0, 0, 0)))
    )
    assert report.verdict == VERDICT_ERROR


def test_non_integer_vertex_is_an_error():
    # int() would truncate 2.9 and certify 2Δ
    vertices = ((0, 0, 0), (2.9, 0, 0), (0, 2, 0), (0, 0, 2))
    report = certify(CertificationRequest(source_vertices=vertices))
    assert report.verdict == VERDICT_ERROR
    assert report.reason == "vertices must be integer tuples of one common dimension"
    with pytest.raises(TypeError):
        convex_hull(vertices)


def _polynomial_report(exponents):
    F = LaurentPolynomial.from_terms((e, 1) for e in exponents)
    return certify(CertificationRequest(source_polynomial=F))


def test_non_integer_exponent_is_an_error():
    report = _polynomial_report([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0.5, 0, 0)])
    assert report.verdict == VERDICT_ERROR
    assert report.reason == "exponents must be integer tuples of one common dimension"


def test_two_entry_exponents_unsupported():
    report = _polynomial_report([(0, 0), (1, 0), (0, 1)])
    assert report.verdict == VERDICT_UNSUPPORTED
    assert report.reason.startswith("exponents live in dimension 2;")
    assert report.citations == ()


def test_four_entry_exponents_cite_factoriality():
    report = _polynomial_report(
        [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    )
    assert report.verdict == VERDICT_UNSUPPORTED
    assert report.reason.startswith("exponents live in dimension 4;")
    assert report.citations == ("factorial by Dolgachev for generic F",)
    assert report.toric is None


def test_flat_polytope_unsupported():
    report = certify(
        CertificationRequest(source_vertices=((0, 0, 0), (1, 0, 0), (0, 1, 0)))
    )
    assert report.verdict == VERDICT_UNSUPPORTED
    assert "full-dimensional" in report.reason


def test_zero_polynomial_error():
    report = certify(
        CertificationRequest(source_polynomial=LaurentPolynomial(()))
    )
    assert report.verdict == VERDICT_ERROR


def test_failed_self_check_is_an_error_report(monkeypatch, tmp_path):
    def broken(*args):
        raise AssertionError("Smith decomposition failed verification: UAV != D")

    # the package re-exports the function certify under the module's name
    module = importlib.import_module("qfact.certify")
    monkeypatch.setattr(module, "multiplication_surjective", broken)
    report = certify(CertificationRequest(source_vertices=QUARTIC_VERTICES))
    assert report.verdict == VERDICT_ERROR
    assert report.reason.startswith("AssertionError: Smith decomposition")
    path = _write(
        tmp_path, "quartic.json", json.dumps({"vertices": [list(v) for v in QUARTIC_VERTICES]})
    )
    code, payload = _run_to_file(tmp_path, ["check", "--polytope", path])
    assert code == 1
    assert payload["reason"].startswith("AssertionError:")


def test_unrenderable_coefficients_give_an_error_report():
    # str() of the sample's coefficients raised ValueError out of certify
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter renders integers of any length")
    huge = 10 ** (limit + 1)
    F = LaurentPolynomial.from_terms(
        [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((0, 0, 0), huge)]
    )
    for req in (
        CertificationRequest(source_polynomial=F, use_input_coeffs=True),
        CertificationRequest(source_vertices=QUARTIC_VERTICES, coeff_bound=huge),
    ):
        report = certify(req)
        assert report.verdict == VERDICT_ERROR
        assert report.reason.startswith("ValueError: coefficient too long:")
    report = certify(CertificationRequest(source_polynomial=F))
    assert report.verdict == VERDICT_CERTIFIED


def test_degenerate_newton_polytope_unsupported():
    report = certify(
        CertificationRequest(source_polynomial=parse_laurent("x + y"))
    )
    assert report.verdict == VERDICT_UNSUPPORTED


def test_request_validation():
    with pytest.raises(ValueError):
        CertificationRequest()
    with pytest.raises(ValueError):
        CertificationRequest(
            source_polynomial=parse_laurent("x"), source_vertices=((0, 0, 0),)
        )
    with pytest.raises(ValueError):
        CertificationRequest(source_vertices=QUARTIC_VERTICES, samples=0)
    with pytest.raises(ValueError):
        CertificationRequest(source_vertices=QUARTIC_VERTICES, coeff_bound=0)


def test_sample_coefficients_contract():
    P = convex_hull(QUARTIC_VERTICES)
    F = sample_coefficients(P, seed=42, bound=10)
    assert F == sample_coefficients(P, seed=42, bound=10)
    assert F != sample_coefficients(P, seed=43, bound=10)
    assert F.support == tuple(lattice_points(P))
    assert all(c != 0 and abs(c) <= 10 and c.denominator == 1 for _, c in F.terms)
    tight = sample_coefficients(P, seed=7, bound=1)
    assert all(abs(c) == 1 for _, c in tight.terms)


def test_polynomial_input_keeps_family_semantics():
    F = parse_laurent("x^4 + y^4 + z^4 + 1")
    report = certify(CertificationRequest(source_polynomial=F))
    assert report.verdict == VERDICT_CERTIFIED
    assert report.sample["source"] == "sampled"
    assert "family" in report.reason


def test_input_coefficients_are_used_verbatim():
    F = parse_laurent("x^4 + y^4 + z^4 + 1")
    report = certify(
        CertificationRequest(source_polynomial=F, use_input_coeffs=True)
    )
    assert report.verdict == VERDICT_CERTIFIED
    assert report.sample["source"] == "input"
    assert "very-generality" in report.reason
    coeffs = {
        tuple(t["exponents"]): t["coefficient"]
        for t in report.sample["coefficients"]
    }
    assert coeffs == {(0, 0, 0): "1", (0, 0, 4): "1", (0, 4, 0): "1", (4, 0, 0): "1"}


def test_determinism_of_reports():
    req = CertificationRequest(source_vertices=QUARTIC_VERTICES, seed=5)
    a = emit_report(certify(req), format="json")
    b = emit_report(certify(req), format="json")
    assert a == b


def test_gl3_verdict_invariance():
    rng = Random(117)
    done = 0
    while done < 4:
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
            assert _profile_r(moved) == _profile_r(base)
            assert moved.dimensions["image_rank"] == base.dimensions["image_rank"]
        done += 1


def test_coefficient_scaling_invariance():
    F = parse_laurent("x^4 + y^4 + z^4 + 1")
    base = certify(CertificationRequest(source_polynomial=F, use_input_coeffs=True))
    scaled = certify(
        CertificationRequest(
            source_polynomial=LaurentPolynomial.from_terms(
                (e, Fraction(-7, 3) * c) for e, c in F.terms
            ),
            use_input_coeffs=True,
        )
    )
    assert scaled.verdict == base.verdict
    assert _profile_r(scaled) == _profile_r(base)
    assert scaled.dimensions["image_rank"] == base.dimensions["image_rank"]


def _dense_quintic():
    rng = Random(5)
    return LaurentPolynomial.from_terms(
        ((a, b, c), Fraction(rng.randint(1, 30), rng.randint(1, 30)))
        for a in range(6)
        for b in range(6 - a)
        for c in range(6 - a - b)
    )


@pytest.mark.parametrize(
    "request_",
    [
        CertificationRequest(
            source_vertices=tuple(
                (x, y, z) for x, y in ((0, 0), (3, 0), (0, 3)) for z in (0, 1)
            ),
            seed=3,
        ),
        CertificationRequest(source_polynomial=_dense_quintic(), use_input_coeffs=True),
        CertificationRequest(source_vertices=CUBE_VERTICES, seed=3),
        CertificationRequest(source_vertices=OCTAHEDRON_VERTICES),
        CertificationRequest(source_vertices=((0, 0, 0), (1, 0))),
    ],
    ids=["retry_prism3", "dense_pq_quintic", "cube2", "unsupported", "error"],
)
def test_json_report_bytes_are_those_of_json_dumps(request_):
    report = certify(request_)
    assert emit_report(report) == json.dumps(report._asdict(), indent=2) + "\n"


# sha256 of the JSON and the text report of each input at the default seed.
# Reruns within one version are checked elsewhere; these pin the bytes across
# versions, so a change here must be an intended change of report bytes.
PINNED_REPORTS = {
    "simplex4": (
        CertificationRequest(source_vertices=QUARTIC_VERTICES),
        "d54c977cef1a14d3ad0489e80aeaa398c23df884c88624b26a1c52f4f5c5675f",
        "78b54c6cefdc01660c94b8afbbd72460728890f8b8f7bfe5b7960ec407a37664",
    ),
    "simplex7": (
        CertificationRequest(source_vertices=((0, 0, 0), (7, 0, 0), (0, 7, 0), (0, 0, 7))),
        "593544a8bd7794347f5ee0b79fc356d83e8e825ca8bdb85f962c51a1ee566433",
        "1d53a03e4fc22730f2efcaf96946be997afc6dcacce5b5d24985bd9f58b9cc74",
    ),
    "cube3": (
        CertificationRequest(
            source_vertices=tuple((a, b, c) for a in (0, 3) for b in (0, 3) for c in (0, 3))
        ),
        "ed20e6be01883e7e0bb966af71118d4ceafa0523c3bb5f0f31d5f9a4a05989c5",
        "4e200453e3fc4cc270f827d93f01277496608db619a5f113ca26f734a9dc49e3",
    ),
    "demicube": (
        CertificationRequest(source_vertices=DEMICUBE_VERTICES),
        "debef8758b77ecb931daae7983f48a9f3ff390a8641e56ea14d13555e8873495",
        "3ea3e0bc7389be125884eaf8c1776bbdd9973d9b3e6373b747aaffd41c0e45d3",
    ),
    "prism3": (
        CertificationRequest(
            source_vertices=tuple(
                (x, y, z) for x, y in ((0, 0), (3, 0), (0, 3)) for z in (0, 1)
            )
        ),
        "193fff1672344fd3371482748407210073224115f1fa099e35673ab37cfad2ac",
        "1cd92fca6f86e946eef64a1868d5df6bd92a9016ec0f5a4c338222f862571d90",
    ),
    "torsion_simplex": (
        CertificationRequest(source_vertices=((0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 2, 3))),
        "cdcf9dd2cc3187aa749b65edad2ac0e2387f592b8c6b13ee0e9a677397da6fa0",
        "47e419d2939dd2cd96ca4623f6ae5e8c3207a0b238a08e16f43399818ca5c459",
    ),
    "sheared_cube2": (
        CertificationRequest(
            source_vertices=tuple(
                apply_matrix(((1, 1000, 0), (0, 1, 1000), (0, 0, 1)), v)
                for v in CUBE_VERTICES
            )
        ),
        "04fa2ee53dd5ec9a92f7da3f834dcd66b3a8fe2067137ac4fda78df6512934be",
        "270a3c34f13f53adaf863db41bbb4f6317f388c0fcd18a12560694ee3febe87e",
    ),
    "fermat4_pq": (
        CertificationRequest(
            source_polynomial=parse_laurent("3/7*x^4 + 5/11*y^4 + 2/13*z^4 + 17/19"),
            use_input_coeffs=True,
        ),
        "bf21c2ed7837f915b18ccace4f8795807f573884b38cafb3c41e8322acf60ad4",
        "a4bf7fdb947536bc8f4bf49a48c08943650615c5390f576f6d324c6ab7105fb6",
    ),
    "unsupported": (
        CertificationRequest(source_vertices=OCTAHEDRON_VERTICES),
        "78bf458cf82cc44448e0f84ca4b6e9421ec9c29ef780e22427f098ef2b4b2045",
        "8c0a355ab9f83998e479c3a73cecfc13637274bd0bdf7c05d19a6af9bdd26074",
    ),
    "error": (
        CertificationRequest(source_vertices=((0, 0), (0, 0, 0))),
        "0fdc1e25120d87810a9db339906c4fdebf42fe5677edf16c40c0a4e8b3630706",
        "05682b0be79af688472b2a260b0377ac1c9c37b34ecdba94e590be54871d2ba9",
    ),
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_report_bytes_are_pinned(name):
    request_, json_digest, text_digest = PINNED_REPORTS[name]
    report = certify(request_)
    digests = [
        hashlib.sha256(emit_report(report, fmt).encode()).hexdigest()
        for fmt in ("json", "text")
    ]
    assert digests == [json_digest, text_digest]


@pytest.mark.parametrize(
    "source, escaped",
    [(["--poly", "nonexist_\xe9.txt"], r"nonexist_\xe9.txt"),
     (["--poly-str", "x^2 + \u4e2d"], r"found '\u4e2d'")],
    ids=["path", "poly-str"],
)
def test_cli_reports_print_on_an_ascii_stdout(tmp_path, source, escaped):
    # Both formats are ASCII, so a stdout that encodes nothing else still
    # prints the report; text escapes other characters as Python does.
    if source[0] == "--poly":
        source = ["--poly", str(tmp_path / source[1])]
    for fmt in ("text", "json"):
        result = _cli_child(
            ["check", *source, "--format", fmt], PYTHONIOENCODING="ascii"
        )
        assert result.returncode == 1, result.stderr
        assert result.stdout.isascii() and not result.stderr
        if fmt == "text":
            assert result.stdout.startswith("verdict: ERROR\nreason: ")
            assert escaped in result.stdout
        else:
            payload = json.loads(result.stdout)
            assert payload["verdict"] == "ERROR"
            assert result.stdout == json.dumps(payload, indent=2) + "\n"


def test_json_report_shape():
    report = certify(CertificationRequest(source_vertices=QUARTIC_VERTICES))
    text = emit_report(report, format="json")
    assert text.endswith("\n")
    payload = json.loads(text)
    assert list(payload) == [
        "verdict", "reason", "toric", "degrees", "dimensions", "sample", "citations",
    ]
    assert payload["verdict"] == VERDICT_CERTIFIED
    assert payload["toric"]["rays"] == [[-1, -1, -1], [0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert payload["degrees"]["beta"] == {"free": [4], "torsion": []}
    assert payload["dimensions"]["uncovered"] == payload["dimensions"]["term_rank"]
    assert all(isinstance(t["coefficient"], str) for t in payload["sample"]["coefficients"])


def test_text_report_shape():
    report = certify(CertificationRequest(source_vertices=CUBIC_VERTICES))
    text = emit_report(report, format="text")
    lines = text.splitlines()
    assert lines[0] == "verdict: INCONCLUSIVE"
    assert any(line.startswith("dims at") for line in lines)
    d = report.dimensions
    assert (
        f"image rank {d['image_rank']} of {d['target_needed']} needed; "
        f"{d['uncovered']} target monomials uncovered by products, "
        f"term rank {d['term_rank']} on them"
    ) in lines
    assert any(line.startswith("citation:") for line in lines)
    with pytest.raises(ValueError):
        emit_report(report, format="yaml")


# ------------------------------ command line ------------------------------


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload)
    return str(path)


def _run_to_file(tmp_path, args):
    out = tmp_path / "report.json"
    code = run(args + ["--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_cli_quartic_exit_zero(tmp_path):
    path = _write(
        tmp_path, "quartic.json", json.dumps({"vertices": [list(v) for v in QUARTIC_VERTICES]})
    )
    code, payload = _run_to_file(tmp_path, ["check", "--polytope", path])
    assert code == 0
    assert payload["verdict"] == "CERTIFIED_Q_FACTORIAL"


def test_cli_cubic_exit_two(tmp_path):
    path = _write(
        tmp_path, "cubic.json", json.dumps({"vertices": [list(v) for v in CUBIC_VERTICES]})
    )
    code, payload = _run_to_file(tmp_path, ["check", "--polytope", path])
    assert code == 2
    assert payload["verdict"] == "INCONCLUSIVE"


def test_cli_octahedron_exit_three(tmp_path):
    path = _write(
        tmp_path,
        "octa.json",
        json.dumps({"vertices": [list(v) for v in OCTAHEDRON_VERTICES]}),
    )
    code, payload = _run_to_file(tmp_path, ["check", "--polytope", path])
    assert code == 3
    assert payload["verdict"] == "UNSUPPORTED"


@pytest.mark.parametrize(
    "dim, vertices, poly",
    [
        (0, [[1, 2, 3]], "x*y*z"),
        (1, [[0, 0, 0], [1, 1, 1], [2, 2, 2]], "x + y"),
        (2, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], "x + y + x*y + 1"),
    ],
)
def test_cli_degenerate_inputs_name_their_dimension(tmp_path, dim, vertices, poly):
    path = _write(tmp_path, "flat.json", json.dumps({"vertices": vertices}))
    for args, what in (
        (["--polytope", path], "polytope"),
        (["--poly-str", poly], "Newton polytope"),
    ):
        code, payload = _run_to_file(tmp_path, ["check", *args])
        assert code == 3
        assert payload["verdict"] == "UNSUPPORTED"
        assert payload["reason"] == (
            f"{what} is not full-dimensional (points span affine dimension {dim}, "
            "need 3); dimensions <= 2 are outside the certified scope"
        )


def test_cli_poly_string(tmp_path):
    code, payload = _run_to_file(
        tmp_path, ["check", "--poly-str", "x + y + z + 1/(x*y*z)"]
    )
    assert code == 0
    assert payload["verdict"] == "CERTIFIED_Q_FACTORIAL"


def test_cli_poly_text_file(tmp_path):
    path = _write(tmp_path, "fermat.txt", "x^4 + y^4 + z^4 + 1\n")
    code, payload = _run_to_file(
        tmp_path, ["check", "--poly", path, "--use-input-coeffs"]
    )
    assert code == 0
    assert payload["sample"]["source"] == "input"


def test_cli_poly_json_file(tmp_path):
    doc = {
        "variables": ["x", "y", "z"],
        "terms": [
            {"exponents": [4, 0, 0], "coefficient": "1"},
            {"exponents": [0, 4, 0], "coefficient": 1},
            {"exponents": [0, 0, 4], "coefficient": "2/3"},
            {"exponents": [0, 0, 0], "coefficient": "-5"},
        ],
    }
    path = _write(tmp_path, "poly.json", json.dumps(doc))
    code, payload = _run_to_file(
        tmp_path, ["check", "--poly", path, "--use-input-coeffs"]
    )
    assert code == 0
    coeffs = {
        tuple(t["exponents"]): t["coefficient"]
        for t in payload["sample"]["coefficients"]
    }
    assert coeffs[(0, 0, 4)] == "2/3"


def test_cli_bad_inputs_exit_one(tmp_path):
    assert run(["check", "--poly-str", "x +"]) == 1
    assert run(["check", "--poly", str(tmp_path / "missing.json")]) == 1
    bad = _write(tmp_path, "bad.json", "{not json")
    assert run(["check", "--polytope", bad]) == 1
    noverts = _write(tmp_path, "nv.json", json.dumps({"vertices": []}))
    assert run(["check", "--polytope", noverts]) == 1
    boolcoeff = _write(
        tmp_path,
        "bool.json",
        json.dumps({"terms": [{"exponents": [0, 0, 0], "coefficient": True}]}),
    )
    assert run(["check", "--poly", boolcoeff]) == 1


def test_cli_unwritable_out_gives_an_error_report(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "r.json"
    code = run(
        ["check", "--poly-str", "x+y+z+1", "--format", "json", "--out", str(target)]
    )
    assert code == 1
    assert not target.exists()
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "ERROR"
    assert payload["reason"].startswith("FileNotFoundError: ")
    assert str(target) in payload["reason"]


@pytest.mark.parametrize("terms", [[1], 5, None, [{"exponents": [0, 0, 0], "coefficient": 1}, "x"]])
def test_cli_malformed_json_terms_give_an_error_report(tmp_path, terms):
    path = _write(tmp_path, "terms.json", json.dumps({"terms": terms}))
    code, payload = _run_to_file(tmp_path, ["check", "--poly", path])
    assert code == 1
    assert payload["verdict"] == "ERROR"
    assert payload["reason"].startswith("InputFormatError:")


@pytest.mark.parametrize("raw", ["1e5", "1e100000", "1.5", " 3", "\u0663"])
def test_cli_coefficients_other_than_p_over_q_give_an_error_report(tmp_path, raw):
    # Fraction reads exponents: "1e100000" became a 100001-digit integer
    doc = {"terms": [{"exponents": [1, 0, 0], "coefficient": raw}]}
    path = _write(tmp_path, "coeff.json", json.dumps(doc))
    code, payload = _run_to_file(tmp_path, ["check", "--poly", path])
    assert code == 1
    assert payload["reason"].startswith("InputFormatError:")


def test_cli_signed_fraction_coefficient(tmp_path):
    doc = {
        "terms": [
            {"exponents": [4, 0, 0], "coefficient": "+1"},
            {"exponents": [0, 4, 0], "coefficient": "1"},
            {"exponents": [0, 0, 4], "coefficient": "1"},
            {"exponents": [0, 0, 0], "coefficient": "-2/3"},
        ]
    }
    path = _write(tmp_path, "poly.json", json.dumps(doc))
    code, payload = _run_to_file(
        tmp_path, ["check", "--poly", path, "--use-input-coeffs"]
    )
    assert code == 0
    coeffs = [t["coefficient"] for t in payload["sample"]["coefficients"]]
    assert coeffs == ["-2/3", "1", "1", "1"]


@pytest.mark.parametrize("flag,key", [("--poly", "terms"), ("--polytope", "vertices")])
def test_cli_deeply_nested_json_gives_an_error_report(tmp_path, flag, key):
    # the JSON decoder raised RecursionError, which escaped run()
    deep = "[" * 100000 + "]" * 100000
    path = _write(tmp_path, "deep.json", f'{{"{key}": {deep}}}')
    code, payload = _run_to_file(tmp_path, ["check", flag, path])
    assert code == 1
    assert payload["reason"].startswith("InputFormatError:")


def test_cli_error_reports_are_valid_json(tmp_path):
    out = tmp_path / "err.json"
    code = run(
        ["check", "--poly-str", "x - x", "--format", "json", "--out", str(out)]
    )
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "ERROR"
    assert payload["toric"] is None


def test_cli_deep_parentheses_give_an_error_report(tmp_path):
    out = tmp_path / "err.json"
    deep = "(" * 5000 + "x" + ")" * 5000
    code = run(["check", "--poly-str", deep, "--format", "json", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "ERROR"
    assert payload["reason"].startswith("ParseError:")


def _cli_child(argv, memory_mb=None, **env):
    """`python -m qfact.cli` in a new process that imports this checkout's
    qfact, with extra environment variables and an optional cap, in MB, on
    its address space."""

    def cap():
        import resource

        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = memory_mb * 2**20
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "qfact.cli", *argv],
        env=env,
        preexec_fn=cap if memory_mb else None,
        capture_output=True,
        text=True,
        timeout=120,
    )


needs_rlimit_as = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="needs RLIMIT_AS to cap memory"
)


@needs_rlimit_as
def test_cli_out_of_memory_gives_an_error_report():
    # x^100000 asks for graded pieces far beyond the child's 1000 MB of
    # address space; the MemoryError must become a report, not a traceback.
    result = _cli_child(
        ["check", "--format", "json", "--poly-str", "x^100000+y+z+1"], memory_mb=1000
    )
    assert result.returncode == 1, result.stderr
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "ERROR"
    assert payload["reason"].startswith("MemoryError")


@needs_rlimit_as
def test_cli_out_of_memory_while_parsing_gives_an_error_report(tmp_path):
    # Tokenizing 3,000,000 terms (18 MB of text) takes more than the
    # child's 600 MB of address space, before certify is reached.
    path = tmp_path / "huge.txt"
    path.write_text("+".join(["x*y*z"] * 3_000_000))
    result = _cli_child(["check", "--poly", str(path), "--format", "json"], memory_mb=600)
    assert result.returncode == 1, result.stderr
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "ERROR"
    assert payload["reason"] == "MemoryError: out of memory"


def test_cli_text_output_to_stdout(capsys):
    code = run(["check", "--poly-str", "x^4 + y^4 + z^4 + 1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("verdict: CERTIFIED_Q_FACTORIAL")


def test_cli_seed_and_samples_flags(tmp_path):
    path = _write(
        tmp_path, "cubic.json", json.dumps({"vertices": [list(v) for v in CUBIC_VERTICES]})
    )
    code, payload = _run_to_file(
        tmp_path,
        ["check", "--polytope", path, "--seed", "9", "--samples", "2", "--coeff-bound", "3"],
    )
    assert code == 2
    assert payload["sample"]["seed"] == 9
    # The cubic fails Hall's condition: the first attempt settles it.
    assert payload["sample"]["attempt"] == 0
    assert all(
        abs(Fraction(t["coefficient"])) <= 3
        for t in payload["sample"]["coefficients"]
    )


@pytest.mark.parametrize(
    "seed, written", [(2**53 - 1, 2**53 - 1), (2**53, str(2**53))], ids=["number", "string"]
)
def test_cli_seeds_from_2_to_the_53_are_written_as_strings(tmp_path, seed, written):
    code, payload = _run_to_file(
        tmp_path, ["check", "--poly-str", "x^4+y^4+z^4+1", "--seed", str(seed)]
    )
    assert code == 0
    assert payload["sample"]["seed"] == written


def test_torsion_invariants_from_2_to_the_53_are_written_as_strings():
    T = build_toric_data(normal_fan(convex_hull(QUARTIC_VERTICES)))
    assert _toric_dict(T._replace(torsion=(2**60,)))["torsion_invariants"] == [str(2**60)]
    assert _toric_dict(T._replace(torsion=(2**53 - 1,)))["torsion_invariants"] == [2**53 - 1]


def test_cli_byte_identical_reruns(tmp_path):
    path = _write(
        tmp_path, "quartic.json", json.dumps({"vertices": [list(v) for v in QUARTIC_VERTICES]})
    )
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["check", "--polytope", path, "--format", "json", "--out", str(out1)]) == 0
    assert run(["check", "--polytope", path, "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--polytope", "cube.json", "--format", "json"], 0),
        (["--poly-str", "3/7*x^5 + y^5 + z^5 + 1 + x*y*z", "--use-input-coeffs"], 0),
        (["--polytope", "octahedron.json", "--format", "json"], 3),
    ],
    ids=["cube", "quintic", "unsupported"],
)
def test_cli_reports_are_byte_identical_across_hash_seeds(tmp_path, argv, code):
    # Every `qfact check` is a new process with its own hash seed, so set
    # and dict orders that depend on hashing must not reach the report.
    _write(tmp_path, "cube.json", json.dumps({"vertices": [list(v) for v in CUBE_VERTICES]}))
    _write(
        tmp_path,
        "octahedron.json",
        json.dumps({"vertices": [list(v) for v in OCTAHEDRON_VERTICES]}),
    )
    argv = ["check"] + [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    first, second = (_cli_child(argv, PYTHONHASHSEED=seed) for seed in ("0", "1"))
    assert first.returncode == code, first.stderr
    assert (second.returncode, second.stdout) == (code, first.stdout)
    if "cube.json" in argv[2]:
        assert json.loads(first.stdout)["toric"]["class_rank"] == 3


def test_cli_runs_share_one_parser_without_sharing_results(tmp_path, capsys):
    # The parser is built once per process; nothing else carries over from
    # one run to the next, whatever the order of the inputs.
    from qfact import cli

    path = _write(
        tmp_path, "cubic.json", json.dumps({"vertices": [list(v) for v in CUBIC_VERTICES]})
    )
    argvs = (
        ["check", "--polytope", path, "--format", "json"],
        ["check", "--poly-str", "x^4 + y^4 + z^4 + 1", "--format", "text"],
    )

    def outcome(argv):
        code = run(argv)
        return code, capsys.readouterr().out

    alone = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        alone.append(outcome(argv))
    assert [code for code, _ in alone] == [2, 0]
    for order in (argvs, argvs[::-1]):
        cli._build_parser.cache_clear()
        expected = alone if order is argvs else alone[::-1]
        assert [outcome(argv) for argv in order] == expected
    assert cli._build_parser.cache_info().misses == 1
    with pytest.raises(SystemExit) as exc:
        run(["check", "--polytope", path, "--poly-str", "x + 1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert outcome(argvs[0]) == alone[0]
