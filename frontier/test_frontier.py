"""`qfact check` on each input of `cases.py` against answers from closed
forms, and the oracle re-derivation of [0,3]^3 against `expected.json`. Not
part of tier 1; run with `python3 -m pytest -q frontier`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cases import CASES, LABELS, box_profile, simplex_profile

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def qfact_check(argv, limit):
    """`qfact check` from this checkout, on an ASCII stdout, within `limit` s."""
    env = dict(os.environ, PYTHONIOENCODING="ascii")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "qfact.cli", "check", *argv]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=limit)


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_report(case, tmp_path):
    source = case.name
    if case.option != "--poly-str":
        source = tmp_path / case.name
        if case.text is not None:
            source.write_text(case.text)
    argv = [case.option, str(source), *case.flags, "--format"]
    data, text = (qfact_check(argv + [fmt], case.limit) for fmt in ("json", "text"))
    # json.dumps is the JSON writer's oracle
    assert data.stdout == json.dumps(json.loads(data.stdout), indent=2) + "\n"
    assert json.loads(data.stdout)["verdict"] == case.verdict
    assert not text.stderr and text.stdout.isascii(), text.stderr
    assert text.stdout.splitlines()[0] == f"verdict: {case.verdict}"
    assert data.returncode == text.returncode == case.exit_code
    if case.citation:
        assert f"citation: {case.citation}" in text.stdout.splitlines()
    for label, (s, j, r) in zip(LABELS, case.profile):
        assert f"\ndims at {label}: dim S = {s}, rank J = {j}, dim R = {r}\n" in text.stdout


def test_oracle_rederivation_of_cube3_matches_expected_json():
    # `derive_cube3.py` takes only the bases and the Jacobian rows from qfact,
    # and every rank from tests/oracles.naive_rank: the one end-to-end oracle
    # check of the toric layer.
    script = ROOT / "perfbench" / "derive_cube3.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    want = json.loads((ROOT / "perfbench" / "expected.json").read_text())["answers"]["cube3"]
    expected = (want["dim_s"], want["dim_r"], want["verdict"] == "CERTIFIED_Q_FACTORIAL")
    assert (got["dim_s"], got["dim_r"], got["surjective"]) == expected


def test_closed_forms_give_the_dims_derived_by_hand():
    # Runs no qfact, so a mistyped formula cannot agree with a wrong report.
    assert simplex_profile(10)[2] == (969, 480, 489)
    assert simplex_profile(12)[0::2] == ((455, 16, 439), (1771, 880, 891))
    assert simplex_profile(16)[0::2] == ((969, 16, 953), (4495, 2240, 2255))
    assert simplex_profile(24)[0::2] == ((2925, 16, 2909), (16215, 8096, 8119))
    assert box_profile(2)[0::2] == ((27, 10, 17), (27, 10, 17))
    assert box_profile(5)[2] == (729, 352, 377)
    assert box_profile(6)[2] == (1331, 650, 681)
    assert box_profile(7)[2] == (2197, 1080, 1117)
    for k in (10, 12, 16, 24):  # the middle row is l*(kΔ), counted point by point
        inner = sum(max(k - 1 - x - y, 0) for x in range(1, k) for y in range(1, k))
        assert simplex_profile(k)[1] == (inner, 0, inner)
