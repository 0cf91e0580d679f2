"""qfact's records: immutable named tuples that validate on construction."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfact
from qfact.certify import CertificationReport, CertificationRequest, emit_report
from qfact.errors import DimensionMismatch
from qfact.lattice import Facet, convex_hull, normal_fan
from qfact.linalg import IntMatrix
from qfact.toric import GradedDegree, build_toric_data, monomials_of_degree


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # Each `qfact check` starts a fresh interpreter, so every module the CLI
    # imports is start-up time. -S keeps `site` from importing any first.
    code = (
        "import sys, qfact.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qfact.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_equal_records_compare_and_hash_equal():
    a = GradedDegree((1, -2), (1,), (3,))
    b = GradedDegree(free_part=(1, -2), torsion_part=(1,), torsion_moduli=(3,))
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert a != GradedDegree((1, -2), (2,), (3,))
    assert len({Facet((1, 0, 0), 0), Facet(normal=(1, 0, 0), offset=0)}) == 1
    assert a - b + a == a


def test_fields_cannot_be_assigned():
    records = [
        (IntMatrix(((1, 2),)), "entries"),
        (Facet((0, 0, 1), 2), "offset"),
        (GradedDegree((0,), (), ()), "free_part"),
        (CertificationReport("ERROR", "r"), "verdict"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.not_a_field = None


def test_replace_builds_a_checked_copy():
    d = GradedDegree((4,), (1,), (2,))
    assert d._replace(free_part=(5,)) == GradedDegree((5,), (1,), (2,))
    assert d == GradedDegree((4,), (1,), (2,))
    with pytest.raises(ValueError, match="canonical range"):
        d._replace(torsion_part=(2,))
    with pytest.raises(ValueError, match="residue count"):
        GradedDegree((4,), (1, 0), (2,))
    with pytest.raises(DimensionMismatch, match="ragged"):
        IntMatrix(((1, 2),))._replace(entries=((1, 2), (3,)))
    request = CertificationRequest(source_vertices=((0, 0, 0),))
    assert request.samples == 5 and request.coeff_bound == 10
    for changes, message in [
        ({"samples": 0}, "samples"),
        ({"coeff_bound": 0}, "coeff_bound"),
        ({"source_polynomial": object()}, "exactly one"),
    ]:
        with pytest.raises(ValueError, match=message):
            request._replace(**changes)
    with pytest.raises(ValueError, match="exactly one"):
        CertificationRequest()


def test_basis_memo_stays_out_of_equality_and_repr():
    P = convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    T = build_toric_data(normal_fan(P))
    fresh = build_toric_data(normal_fan(P))
    before = repr(T)
    gamma = T.variable_degrees[0]
    assert len(monomials_of_degree(T, gamma)) == 4
    assert T._sections and not fresh._sections
    assert T == fresh and hash(T) == hash(fresh) and repr(T) == before
    assert "_sections" not in before
    with pytest.raises(AttributeError):
        T.rays = ()
    # a copy keeps the scan chart, which is not the identity here, and gets
    # a memo of its own
    copy = T._replace(class_rank=T.class_rank)
    assert copy.scan_rays == T.scan_rays != T.rays
    assert "_sections" not in vars(copy)
    assert copy._sections == {} and T._sections


def test_default_report_bytes():
    report = CertificationReport("ERROR", "r")
    assert emit_report(report) == (
        '{\n  "verdict": "ERROR",\n  "reason": "r",\n  "toric": null,\n'
        '  "degrees": null,\n  "dimensions": null,\n  "sample": null,\n'
        '  "citations": []\n}\n'
    )
    assert emit_report(report, "text") == "verdict: ERROR\nreason: r\n"
