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
    _SEED_STRIDE,
    _sampled_on,
    _toric_dict,
    certify,
    emit_report,
    sample_coefficients,
)
from qfact.cli import run
from qfact.jacobian import coverage, multiplication_surjective
from qfact.lattice import convex_hull, lattice_points, normal_fan
from qfact.laurent import LaurentPolynomial, homogenize, parse_laurent
from qfact.toric import build_toric_data, polytope_degree

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
# Normalized volume 15. One of its 15 target monomials is uncovered, and a
# sample certifies it; no lattice tetrahedron of volume at most 12 has
# 0 < |U| < dim S and certifies.
VOLUME15_VERTICES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (5, 12, 15))


def _profile_r(report):
    return tuple(row["dim_r"] for row in report.dimensions["profile"])


def test_quartic_polytope_certifies():
    report = certify(CertificationRequest(source_vertices=QUARTIC_VERTICES))
    assert report.verdict == VERDICT_CERTIFIED
    assert _profile_r(report) == (19, 1, 19)
    assert report.dimensions["image_rank"] == 35
    assert report.dimensions["target_needed"] == 35
    assert report.dimensions["surjective"] is True
    # the Fermat-type member on the four vertices is the witness
    assert report.sample["source"] == "vertices"
    assert report.sample["attempt"] == 0
    assert len(report.sample["coefficients"]) == 4
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


def _short_verdicts(monkeypatch, calls=1):
    """Make the first `calls` verdicts fail with one uncovered column."""
    module = importlib.import_module("qfact.certify")
    real = module.multiplication_surjective
    seen = []

    def short(*args):
        v = real(*args)
        seen.append(v)
        if len(seen) > calls:
            return v
        return v._replace(
            surjective=False, image_rank=v.target_needed - 1, uncovered=1
        )

    monkeypatch.setattr(module, "multiplication_surjective", short)
    return seen


def test_sampling_goes_on_while_halls_condition_holds(monkeypatch):
    # The vertex member fails, so full-support attempt 0 is the witness.
    seen = _short_verdicts(monkeypatch)
    report = certify(CertificationRequest(source_vertices=QUARTIC_VERTICES))
    assert len(seen) == 2
    assert report.verdict == VERDICT_CERTIFIED
    assert (report.sample["source"], report.sample["attempt"]) == ("sampled", 0)
    assert len(report.sample["coefficients"]) == 35


def test_sampling_uses_every_attempt_while_halls_condition_holds(monkeypatch):
    # --samples counts the full-support attempts, not the vertex member.
    seen = _short_verdicts(monkeypatch, calls=4)
    report = certify(
        CertificationRequest(source_vertices=QUARTIC_VERTICES, samples=3)
    )
    assert len(seen) == 4
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert (report.sample["source"], report.sample["attempt"]) == ("sampled", 2)
    assert "in 3 attempt(s)" in report.reason
    assert "every member" not in report.reason


def test_sampling_stops_once_halls_condition_fails(monkeypatch):
    # Hall's condition is read before any sample: a failure skips the vertex
    # member and samples full-support attempt 0 alone, for the profile.
    seen = _short_verdicts(monkeypatch)
    module = importlib.import_module("qfact.certify")
    real = module.coverage
    monkeypatch.setattr(module, "coverage", lambda T, beta: real(T, beta)._replace(term_rank=0))
    report = certify(CertificationRequest(source_vertices=VOLUME15_VERTICES))
    assert len(seen) == 1
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert (report.sample["source"], report.sample["attempt"]) == ("sampled", 0)
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


def test_an_input_reports_its_own_term_rank():
    # The vertex-only member of VOLUME15 misses its uncovered column, while
    # the full support's pattern reaches it: the input's report reads its own
    # term rank, not the family's.
    F = LaurentPolynomial.from_terms(list(zip(VOLUME15_VERTICES, (1, 2, 3, 5))))
    report = certify(CertificationRequest(source_polynomial=F, use_input_coeffs=True))
    d = report.dimensions
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert (d["uncovered"], d["term_rank"], d["image_rank"], d["target_needed"]) == (1, 0, 14, 15)
    P = convex_hull(VOLUME15_VERTICES)
    T = build_toric_data(normal_fan(P))
    assert coverage(T, polytope_degree(T, P)).term_rank == 1


def test_a_sample_certifies_with_some_target_monomials_uncovered():
    report = certify(CertificationRequest(source_vertices=VOLUME15_VERTICES))
    assert report.verdict == VERDICT_CERTIFIED
    assert report.sample["attempt"] == 0
    d = report.dimensions
    assert (d["uncovered"], d["term_rank"], d["target_needed"]) == (1, 1, 15)
    assert "witness at attempt 0" in report.reason


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


RANDOM554_VERTICES = ((-2, 1, -2), (2, -2, 2), (2, 0, -2), (2, 2, 2))
# A Hermite tetrahedron of volume 5: one of its 6 target monomials is no
# product, and no Jacobian row of a full-support member meets it.
HALL_FAILURE_VERTICES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 2, 5))


def _vertex_member_surjective(vertices, seed=0, bound=10):
    P = convex_hull(vertices)
    T = build_toric_data(normal_fan(P))
    F = _sampled_on(P.vertices, seed * _SEED_STRIDE, bound)
    return multiplication_surjective(homogenize(F, P, T), T).surjective


def test_a_failed_vertex_member_falls_back_to_the_full_support():
    # random_simplicial_polytope(Random(554)): Hall's condition holds on its
    # 5 uncovered monomials, its vertex member falls short, and full-support
    # attempt 0 is the witness, as it was before the vertex rung.
    assert random_simplicial_polytope(Random(554)).vertices == RANDOM554_VERTICES
    assert not _vertex_member_surjective(RANDOM554_VERTICES)
    report = certify(CertificationRequest(source_vertices=RANDOM554_VERTICES))
    assert report.verdict == VERDICT_CERTIFIED
    assert (report.sample["source"], report.sample["attempt"]) == ("sampled", 0)
    assert report.dimensions["uncovered"] == report.dimensions["term_rank"] == 5
    assert "witness at attempt 0" in report.reason


def test_a_hall_failure_samples_no_vertex_member(monkeypatch):
    module = importlib.import_module("qfact.certify")
    real = module.multiplication_surjective
    members = []

    def tested(f, *args):
        members.append(len(f.terms))
        return real(f, *args)

    monkeypatch.setattr(module, "multiplication_surjective", tested)
    report = certify(CertificationRequest(source_vertices=HALL_FAILURE_VERTICES))
    # one member tested, full-support attempt 0, on every lattice point
    assert members == [len(lattice_points(convex_hull(HALL_FAILURE_VERTICES)))]
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert (report.sample["source"], report.sample["attempt"]) == ("sampled", 0)
    d = report.dimensions
    assert (d["uncovered"], d["term_rank"], d["target_needed"]) == (1, 0, 6)
    assert "Hall's condition fails" in report.reason


def test_retry_tetrahedron_at_bound_one_gets_a_correct_verdict():
    # Its vertex member at seed 8 falls short, so the full-support rung
    # settles it as before: attempt 0 falls short and attempt 1 certifies.
    assert not _vertex_member_surjective(RETRY_VERTICES, seed=8, bound=1)
    report = certify(
        CertificationRequest(source_vertices=RETRY_VERTICES, seed=8, coeff_bound=1)
    )
    assert report.verdict == VERDICT_CERTIFIED
    assert (report.sample["source"], report.sample["attempt"]) == ("sampled", 1)


def _closed_form_profile(name):
    """(dim S, dim R) at beta, beta - beta0 and 2*beta - beta0 of the prism
    k x [0,1] over kΔ2, on P^2 x P^1, and of the slab [0,a]^2 x [0,1], on
    (P^1)^3 (Batyrev-Cox): no interior point, so R_(beta-beta0) = 0; the top
    is the surface's variable cohomology, k^2 - 1 and 2a^2 - 1; and J_beta
    is the tangent space of the orbit of the automorphism group, of
    dimension 12 and 10."""
    if name.startswith("prism"):
        k = int(name[5:])
        return [((k + 1) * (k + 2), (k + 1) * (k + 2) - 12), (0, 0),
                ((2 * k - 1) * (k - 1), k * k - 1)]
    a = int(name[4:])
    return [(2 * (a + 1) ** 2, 2 * (a + 1) ** 2 - 10), (0, 0),
            ((2 * a - 1) ** 2, 2 * a * a - 1)]


@pytest.mark.parametrize("seed", [1, 23, 24])
def test_hall_failures_profile_the_full_support(seed):
    # Every prism and slab of the benchmark's retry workload fails Hall's
    # condition. At these seeds their vertex members have dim R_beta one
    # above the generic value, so the profile must come from full-support
    # attempt 0, sampled with the workload seed as qfact's --seed.
    for k in range(3, 9):
        name, vertices = f"prism{k}", tuple(
            (x, y, z) for x, y in ((0, 0), (k, 0), (0, k)) for z in (0, 1)
        )
        _check_closed_form(name, vertices, seed)
    for a in range(2, 6):
        name, vertices = f"slab{a}", tuple(
            (x, y, z) for x in (0, a) for y in (0, a) for z in (0, 1)
        )
        _check_closed_form(name, vertices, seed)


def _check_closed_form(name, vertices, seed):
    report = certify(CertificationRequest(source_vertices=vertices, seed=seed))
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert "Hall's condition fails" in report.reason
    profile = [(row["dim_s"], row["dim_r"]) for row in report.dimensions["profile"]]
    assert profile == _closed_form_profile(name), (name, seed)


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


@pytest.mark.parametrize("vertices", [[5], [None]], ids=["int", "none"])
def test_a_vertex_that_is_no_sequence_is_an_error(vertices):
    report = certify(CertificationRequest(source_vertices=vertices))
    assert report.verdict == VERDICT_ERROR
    assert report.reason == "vertices must be integer tuples of one common dimension"


def test_an_exponent_that_is_no_sequence_is_an_error():
    # terms built raw, not through from_terms: the exponent of (1, 2) is 1
    F = LaurentPolynomial(((1, 2),))
    report = certify(CertificationRequest(source_polynomial=F))
    assert report.verdict == VERDICT_ERROR
    assert report.reason == "exponents must be integer tuples of one common dimension"


def test_an_iterator_of_vertices_is_read_once():
    # the arity check must not consume the points that the hull then needs
    expected = emit_report(certify(CertificationRequest(source_vertices=QUARTIC_VERTICES)))
    report = certify(CertificationRequest(source_vertices=iter(QUARTIC_VERTICES)))
    assert report.verdict == VERDICT_CERTIFIED
    assert emit_report(report) == expected


def test_bool_entries_are_errors():
    # bool is an int, but no exponent or coordinate: the CLI refuses it too
    terms = [((4, 0, 0), 1), ((0, 4, 0), 1), ((0, 0, 4), 1), ((0, 0, 0), 1)]
    F = LaurentPolynomial.from_terms([*terms, ((True, True, True), 1)])
    report = certify(CertificationRequest(source_polynomial=F, use_input_coeffs=True))
    assert report.verdict == VERDICT_ERROR
    assert report.reason == "exponents must be integer tuples of one common dimension"
    vertices = ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, True))
    report = certify(CertificationRequest(source_vertices=vertices))
    assert report.verdict == VERDICT_ERROR
    assert report.reason == "vertices must be integer tuples of one common dimension"


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


@pytest.mark.parametrize(
    "exc, reason",
    [(MemoryError(), "MemoryError: out of memory"),
     (MemoryError("no room"), "MemoryError: out of memory"),
     (AssertionError(), "AssertionError: ")],
    ids=["memory", "memory_message", "bare_assertion"],
)
def test_error_report_text(monkeypatch, exc, reason):
    def broken(*args):
        raise exc

    module = importlib.import_module("qfact.certify")
    monkeypatch.setattr(module, "multiplication_surjective", broken)
    report = certify(CertificationRequest(source_vertices=QUARTIC_VERTICES))
    assert (report.verdict, report.reason) == (VERDICT_ERROR, reason)
    assert report.toric is None and report.citations == ()


def _int_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter renders integers of any length")
    return limit


def test_unrenderable_coefficients_give_an_error_report():
    # str() of the sample's coefficients raised ValueError out of certify
    huge = 10 ** (_int_limit() + 1)
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


def _too_long_requests(limit):
    """A seed, a sample exponent and a ray, each too long to print."""
    M, N = 10 ** (limit + 700), 10 ** (limit // 2 + 350)
    return [
        CertificationRequest(source_vertices=QUARTIC_VERTICES, seed=M),
        CertificationRequest(source_vertices=((0, 0, 0), (1, 0, 0), (M, 1, 0), (0, 0, 1))),
        # the input prints, but the rays are twice as long
        CertificationRequest(source_vertices=((0, 0, 0), (1, 0, 0), (N, 1, 0), (N, N + 1, 1))),
    ]


def test_integers_too_long_to_print_give_an_error_report():
    # str() of a seed, an exponent or a ray raised ValueError out of certify
    for req in _too_long_requests(_int_limit()):
        report = certify(req)
        assert report.verdict == VERDICT_ERROR
        assert report.reason.startswith("QfactError: a ")
        assert report.reason.endswith("-bit integer is too long to print")


def test_cli_rays_too_long_to_print_exit_1(tmp_path):
    vertices = [list(v) for v in _too_long_requests(_int_limit())[2].source_vertices]
    path = _write(tmp_path, "long.json", json.dumps({"vertices": vertices}))
    code, payload = _run_to_file(tmp_path, ["check", "--polytope", path])
    assert code == 1
    assert payload["verdict"] == "ERROR"
    assert payload["reason"].endswith("-bit integer is too long to print")


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
    # a float reached randrange (coeff_bound) or the report (seed), a
    # negative seed drew the coefficients of its absolute value, and more
    # than _SEED_STRIDE samples drew the next seed's
    simplex = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    for bad in (
        {"coeff_bound": 2.3},
        {"coeff_bound": True},
        {"seed": 1.5},
        {"seed": True},
        {"seed": -1},
        {"samples": 2.0},
        {"samples": False},
        {"samples": _SEED_STRIDE + 1},
    ):
        with pytest.raises(ValueError):
            CertificationRequest(source_vertices=simplex, **bad)
    assert CertificationRequest(source_vertices=simplex, samples=_SEED_STRIDE).samples == (
        _SEED_STRIDE
    )
    # vertices carry no coefficients to use
    with pytest.raises(ValueError, match="use_input_coeffs needs a source polynomial"):
        CertificationRequest(source_vertices=QUARTIC_VERTICES, use_input_coeffs=True)


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
    assert report.sample["source"] == "vertices"
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


# sha256 of the JSON and the text report of each input, at the default seed
# unless the request names one. Reruns within one version are checked
# elsewhere; these pin the bytes across versions, so a change here must be an
# intended change of report bytes.
PINNED_REPORTS = {
    "simplex4": (
        CertificationRequest(source_vertices=QUARTIC_VERTICES),
        "345e8bf6f95ed3f37aecd65a39aa116c8b17db42593e19529522e23083bbcbc5",
        "272dc3c2b557a8adc5d4b13cb6e7b27d5932e19c61923f2415fc936b87973b22",
    ),
    "simplex7": (
        CertificationRequest(source_vertices=((0, 0, 0), (7, 0, 0), (0, 7, 0), (0, 0, 7))),
        "b8e3a92a5ddfa8106d4eb90145b45e4857a6e29937257ae4d8ce4c27a9a1c368",
        "27258f420ed708dfa095788a9bfc14c30422b873b84a33cc08575b5f89b5b28e",
    ),
    "cube3": (
        CertificationRequest(
            source_vertices=tuple((a, b, c) for a in (0, 3) for b in (0, 3) for c in (0, 3))
        ),
        "199bed1665c37d19f55d5e0b902a5aea637a28ae0be757908a871b1d8ac53bff",
        "578a59824b5c5e13cc7f099d095334bd20f8fb2249c2c61ef0be80a1338ec0aa",
    ),
    "demicube": (
        CertificationRequest(source_vertices=DEMICUBE_VERTICES),
        "75464267954298baff1de999a459abf3113f95709596b0d4f6fa011a6fa9faa6",
        "09e01516c679d67a2b473e618db9c37b07c4192faa3a8091c023606c9b5110bd",
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
        "65312a15f51bbcf3a1c6b867d05c9a11da8b398b5c32204d1179fae662682928",
        "3ab6ce95aa4a52a591731423a1df33ce1689ac94b2b256d2630a99146166cdaf",
    ),
    "fermat4_pq": (
        CertificationRequest(
            source_polynomial=parse_laurent("3/7*x^4 + 5/11*y^4 + 2/13*z^4 + 17/19"),
            use_input_coeffs=True,
        ),
        "bf21c2ed7837f915b18ccace4f8795807f573884b38cafb3c41e8322acf60ad4",
        "a4bf7fdb947536bc8f4bf49a48c08943650615c5390f576f6d324c6ab7105fb6",
    ),
    "retry_seed8": (
        CertificationRequest(source_vertices=RETRY_VERTICES, seed=8, coeff_bound=1),
        "3598e24491c535ccfcf1dbd4bf83a1d1ccc0968102de8fa47871763fbd377c70",
        "513e177ed70906f2b237a0f5bd0aec81a41d9c08e2729ac7db2588d98abe75bd",
    ),
    "tetrahedron_volume15": (
        CertificationRequest(source_vertices=VOLUME15_VERTICES),
        "dc50d6aff4564690c727f366bae0fd5425f680a2bc236556790aa02c9936f597",
        "cb8840870198bf0fbafdb4e7aba63440e07d2e38f07c11449740ce21dfde23ec",
    ),
    # Coefficients up to 10**23 give Jacobian entries of 78 bits, outside
    # int64, so their rows are reduced mod p before they pack; [0,2]^3 has
    # class rank 3, so its pieces leave out the Euler-dependent rows first.
    "simplex3_78bit": (
        CertificationRequest(source_vertices=CUBIC_VERTICES, seed=0, coeff_bound=10**23),
        "a57e9dd0fa4d7035417286c68941aa5a3a45eccf22384c0a7e15cef30c0ee7aa",
        "819d1151023969d19c55624884435dd456462145d7215ee39ec54c4c4fcb30d6",
    ),
    "cube2_78bit": (
        CertificationRequest(source_vertices=CUBE_VERTICES, seed=0, coeff_bound=10**23),
        "4b70f4be61e6d8ab876ba2c8d787ba2a2f09b79e8fc76248861cf42a97ac5667",
        "88eac0c091fd718dcc18e9b74b478dfd372977ebfde5ae055d599215b338ebeb",
    ),
    # Coefficients up to 10**30 give Jacobian entries near 100 bits; the top
    # piece of [0,3]^3 leaves out 16 Euler-dependent rows and ranks the rest.
    "cube3_100bit": (
        CertificationRequest(
            source_vertices=tuple((a, b, c) for a in (0, 3) for b in (0, 3) for c in (0, 3)),
            seed=0,
            coeff_bound=10**30,
        ),
        "229ffddc1d8e90eb86b3b7c76357de677bf59d5f3ece4ef437a9968be438b61f",
        "578a59824b5c5e13cc7f099d095334bd20f8fb2249c2c61ef0be80a1338ec0aa",
    ),
    # 6 rays in three degree classes; class rank 3.
    "slab5": (
        CertificationRequest(
            source_vertices=tuple((x, y, z) for x in (0, 5) for y in (0, 5) for z in (0, 1))
        ),
        "0baa9fc14aa639c45a558a748b27a9de5d64d2c370e2bbd58e223d8674c355df",
        "13c319af978840fb1caf5af57d9c36a01c20655485e567e939f97603c2cdda6b",
    ),
    # No cone of the demicube's fan is unimodular, so its scan chart is the
    # identity and the scan runs in the sheared coordinates themselves.
    "sheared_demicube": (
        CertificationRequest(
            source_vertices=tuple(
                apply_matrix(((15, 2, 9), (4, 1, 3), (2, 0, 1)), v) for v in DEMICUBE_VERTICES
            )
        ),
        "ecc58420ddc4e0a2e11e55c7d5d14fdbfc21daa510f9846a42a73545f51682f8",
        "93a557e5d954a4caa2fa72421830d4a0a275c0f29fd5ea0004d7e71baf466c1e",
    ),
    # p/q coefficients on all of 5Δ: rows of about 45 bits once integral.
    "dense_pq_quintic": (
        CertificationRequest(source_polynomial=_dense_quintic(), use_input_coeffs=True),
        "236f32306ae4b536a94c1fb963ec89ff55a2b05a32c16cc35f6b02636a8e0d46",
        "a63c152d083c1272b23c5fff63aea4cbcf57cf8aaec762a4ac69f7207eb4a9ff",
    ),
    # The top degree 2*beta - beta0 is 0: its one monomial has every exponent
    # 0, so the radix of the codes must come from beta too.
    "simplex2": (
        CertificationRequest(source_vertices=((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2))),
        "6b8dfdadc8412b20b02fd087bac7c628b70a43e2e808e384ee2fd852811d2842",
        "6358b9875d58d3f4c42d6a6cd341dd33c2d406bdd36d312f143b9b21a455f639",
    ),
    # The vertices of random_simplicial_polytope(Random(0)): 4 rays, and
    # beta0's free part 10 only with the sign rule of smith_normal_form.
    "random_simplicial0": (
        CertificationRequest(source_vertices=((0, 0, 2), (0, 2, -2), (1, -1, 1), (1, 2, -2))),
        "be2ae9b932a105b24831a1ecd856f0c1850c1570385c7aee9584324a918f1373",
        "a0294e5a2bd29b10eaae5dd04a27b0dd3b34169ecbc90ed31194c4fcf8f18e36",
    ),
    # Its vertex member falls short: full-support attempt 0 is the witness.
    "random_simplicial554": (
        CertificationRequest(source_vertices=RANDOM554_VERTICES),
        "71c01d5eb85fce34d8dceb224ba2bf8e58dc029c781230f60bc833fa89efe188",
        "7fa78e2a6272c18ebec3dec6cb641929db183c9644102d4759a23b1c286e434d",
    ),
    # Hall's condition fails: its profile is full-support attempt 0's.
    "hall_failure_tetrahedron": (
        CertificationRequest(source_vertices=HALL_FAILURE_VERTICES),
        "8a32f1e4325cd9cf6e5bd6c3d9ac778f0187be5a1eb4b37458db5240a5c3e866",
        "664f958fecc27f071b5a3f473a450b0e70419108370f2359c06a29f3eb81f42c",
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


def test_workload_report_bytes_are_pinned():
    # `report_digest.py`'s line over the 204 reports of the benchmark's
    # workloads, the same on Python 3.10 to 3.13. An intended change of
    # report bytes updates it, and CHANGES.md says why.
    root = Path(__file__).resolve().parents[1]
    script = root / "tests" / "report_digest.py"
    done = subprocess.run(
        [sys.executable, str(script), str(root)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "e2b6fa471573880c740dcb7832f5c0dcd8b8c85b6aa85d80ce31f19d248bbcb6  204 reports\n"
    )


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


def test_cli_polytope_with_input_coeffs_gives_an_error_report(tmp_path):
    path = _write(
        tmp_path, "quartic.json", json.dumps({"vertices": [list(v) for v in QUARTIC_VERTICES]})
    )
    code, payload = _run_to_file(tmp_path, ["check", "--polytope", path, "--use-input-coeffs"])
    assert code == 1
    assert payload["verdict"] == "ERROR"
    assert payload["reason"] == (
        "ValueError: use_input_coeffs needs a source polynomial, not vertices"
    )


def test_cli_negative_seed_gives_an_error_report(tmp_path):
    # Random seeds -1 as it seeds 1: the report would repeat --seed 1's
    args = ["check", "--poly-str", "x^2+y^2+z^2+1", "--seed", "-1"]
    code, payload = _run_to_file(tmp_path, args)
    assert code == 1
    assert payload["verdict"] == "ERROR"
    assert payload["reason"] == "ValueError: seed must be nonnegative"


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
    "option, text",
    [
        ("--polytope", json.dumps({"vertices": [list(v) for v in QUARTIC_VERTICES]})),
        ("--poly", "x^4 + y^4 + z^4 + 1\n"),
        ("--poly", json.dumps({"terms": [
            {"exponents": list(e), "coefficient": 1} for e in QUARTIC_VERTICES
        ]})),
    ],
    ids=["polytope-json", "laurent-text", "polynomial-json"],
)
def test_cli_reads_utf8_files_with_a_byte_order_mark(tmp_path, option, text):
    # Editors on Windows write UTF-8 with a BOM; the file must read as its twin without one.
    reports = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        path = tmp_path / name
        path.write_bytes(text.encode(encoding))
        out = tmp_path / f"{name}.txt"
        code = run(["check", option, str(path), "--out", str(out)])
        reports.append((code, out.read_bytes()))
    assert (tmp_path / "bom").read_bytes().startswith(b"\xef\xbb\xbf")
    assert reports[0][0] == 0
    assert reports[1] == reports[0]


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


def test_cli_four_entry_json_exponents_cite_factoriality(tmp_path):
    # certify judges the dimension, as it does for --polytope and the API
    simplex = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    terms = [{"exponents": e, "coefficient": 1} for e in simplex]
    poly = _write(tmp_path, "poly4.json", json.dumps({"terms": terms}))
    polytope = _write(tmp_path, "simplex4d.json", json.dumps({"vertices": simplex}))
    for args, noun in ((["--poly", poly], "exponents"), (["--polytope", polytope], "vertices")):
        code, payload = _run_to_file(tmp_path, ["check", *args])
        assert code == 3
        assert payload["verdict"] == "UNSUPPORTED"
        assert payload["reason"].startswith(f"{noun} live in dimension 4;")
        assert payload["citations"] == ["factorial by Dolgachev for generic F"]


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
    # x^100000 + y^100000 asks for graded pieces far beyond the child's
    # 1000 MB of address space; the MemoryError must become a report, not a
    # traceback.
    result = _cli_child(
        ["check", "--format", "json", "--poly-str", "x^100000+y^100000+z+1"],
        memory_mb=1000,
    )
    assert result.returncode == 1, result.stderr
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "ERROR"
    assert payload["reason"].startswith("MemoryError")


@needs_rlimit_as
def test_cli_certifies_x_to_the_100000_within_the_memory_cap():
    # The beta piece is 100003 x 100003, about 10^10 cells if its rows were
    # dense. The vertex member's rows have one term each, so the peel ranks
    # them with nothing packed, well within the child's 1000 MB.
    result = _cli_child(
        ["check", "--format", "json", "--poly-str", "x^100000+y+z+1"], memory_mb=1000
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["verdict"] == VERDICT_CERTIFIED
    beta = payload["dimensions"]["profile"][0]
    assert (beta["degree"], beta["dim_s"], beta["rank_j"]) == ("beta", 100003, 100003)


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
