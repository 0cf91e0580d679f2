"""The tetrahedron census: `certify` at seed 0 on each of the 9,884 Hermite
tetrahedra of normalized volume at most 24, in process and in the order of
`util.hermite_tetrahedra`. It pins the tally of the README's table and one
sha256 over the JSON reports. Not part of tier 1; run with
`python3 -m pytest -q frontier`."""

import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from util import hermite_tetrahedra  # noqa: E402

from qfact.certify import CertificationRequest, certify, emit_report  # noqa: E402

# (verdict, deciding step, l*(P) = 0, U empty, part or all of the top): count
TALLY = {
    ("CERTIFIED_Q_FACTORIAL", "vertex member", True, "empty"): 143,
    ("CERTIFIED_Q_FACTORIAL", "vertex member", True, "all"): 1680,
    ("CERTIFIED_Q_FACTORIAL", "vertex member", False, "empty"): 1515,
    ("CERTIFIED_Q_FACTORIAL", "vertex member", False, "part"): 84,
    ("CERTIFIED_Q_FACTORIAL", "full-support attempt 0", False, "part"): 72,
    ("INCONCLUSIVE", "Hall", True, "all"): 1860,
    ("INCONCLUSIVE", "Hall", False, "part"): 4530,
}
# sha256 over the concatenated `emit_report` JSON strings
DIGEST = "0c72661d5bc2565ccd04d9d18009ed1c8348f5c8b3d61b77e0e0bdd094f8b09c"
# seconds for the whole census, which takes 12-20 s on a shared 2-vCPU host
LIMIT = 60


def _row(report):
    """The census table's row of one report."""
    d = report.dimensions
    uncovered = d["uncovered"]
    part = "empty" if not uncovered else "all" if uncovered == d["target_needed"] else "part"
    if report.sample["source"] == "vertices":
        step = "vertex member"
    elif d["term_rank"] < uncovered:
        step = "Hall"
    else:
        step = f"full-support attempt {report.sample['attempt']}"
    # dim R at beta - beta0 is l*(P), the number of interior lattice points
    inner = d["profile"][1]["dim_r"]
    return report.verdict, step, inner == 0, part


def test_the_census_keeps_its_tally_and_report_bytes():
    digest, tally = hashlib.sha256(), Counter()
    start = time.perf_counter()
    for vertices in hermite_tetrahedra(24):
        report = certify(CertificationRequest(source_vertices=vertices))
        digest.update(emit_report(report).encode())
        tally[_row(report)] += 1
    elapsed = time.perf_counter() - start
    assert dict(tally) == TALLY
    assert digest.hexdigest() == DIGEST
    assert elapsed < LIMIT, f"the census took {elapsed:.1f} s"
