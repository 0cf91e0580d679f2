"""Tests of the benchmark itself: its expected answers, its corpora, its
checks and its tracer. Run with

    python3 -m pytest -q perfbench
"""

import json
import signal
import subprocess
import sys
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from oracles import brute_facets  # noqa: E402

EXPECTED = checks.load_expected()


def _hilbert(k, d):
    """Coefficient of t^d in ((1 - t^(k-1)) / (1 - t))^4."""
    return sum(
        (-1) ** j * comb(4, j) * comb(d - j * (k - 1) + 3, 3)
        for j in range(5)
        if d - j * (k - 1) >= 0
    )


def _simplex_dims(k):
    degrees = (k, k - 4, 2 * k - 4)
    return (
        [comb(d + 3, 3) if d >= 0 else 0 for d in degrees],
        [_hilbert(k, d) if d >= 0 else 0 for d in degrees],
    )


def test_closed_forms_reproduce_expected_answers():
    for k in range(2, 8):
        dim_s, dim_r = _simplex_dims(k)
        assert EXPECTED[f"simplex{k}"]["dim_s"] == dim_s
        assert EXPECTED[f"simplex{k}"]["dim_r"] == dim_r
    assert _simplex_dims(7)[1] == [104, 20, 146]
    for k in range(4, 7):
        assert [EXPECTED[f"fermat{k}"][key] for key in ("dim_s", "dim_r")] == list(_simplex_dims(k))
    assert EXPECTED["dense_quintic"]["dim_r"] == [40, 4, 44] == _simplex_dims(5)[1]
    for k in range(3, 9):
        dim_r = EXPECTED[f"prism{k}"]["dim_r"]
        assert dim_r[1] == 0 and dim_r[2] == (k - 1) * (k + 1)
        assert dim_r[2] == (2 * k - 1) * (k - 1) - (k - 1) * (k - 2)
    for a in range(2, 6):
        dim_r = EXPECTED[f"slab{a}"]["dim_r"]
        assert dim_r[1] == 0 and dim_r[2] == 2 * a * a - 1
        assert dim_r[2] == (2 * a - 1) ** 2 - 2 * (a - 1) ** 2
    assert EXPECTED["cube2"]["dim_r"] == [17, 1, 17]
    assert EXPECTED["demicube"]["dim_r"] == [7, 1, 7]
    assert EXPECTED["cube3"]["basis"] == "oracle"


def test_verdicts_follow_interior_points():
    for key, answer in EXPECTED.items():
        if answer["dim_s"] is None:
            assert answer["verdict"] == "UNSUPPORTED"
        elif answer["dim_s"][1] == 0:
            assert answer["verdict"] == "INCONCLUSIVE" and answer["dim_r"][2] > 0
        else:
            assert answer["verdict"] == "CERTIFIED_Q_FACTORIAL"


def _section_counts(vertices):
    """Lattice points of P, of its interior and of the interior of 2P,
    counted from facet inequalities found by the brute-force oracle."""
    facets = brute_facets(vertices)
    bound = 2 * max(abs(x) for v in vertices for x in v) + 1
    rng = range(-bound, bound + 1)
    counts = [0, 0, 0]
    for m in ((x, y, z) for x in rng for y in rng for z in rng):
        values = [sum(n_i * m_i for n_i, m_i in zip(n, m)) for n, _ in facets]
        offsets = [a for _, a in facets]
        counts[0] += all(v + a >= 0 for v, a in zip(values, offsets))
        counts[1] += all(v + a >= 1 for v, a in zip(values, offsets))
        counts[2] += all(v + 2 * a >= 1 for v, a in zip(values, offsets))
    return counts


@pytest.mark.parametrize("workload", ["dilates", "retry"])
def test_dim_s_matches_brute_force_counts(workload):
    for case in corpus.build(workload, 0):
        assert EXPECTED[case.expect]["dim_s"] == _section_counts(case.vertices), case.name


def test_every_case_has_an_answer_and_a_unique_name():
    for workload in corpus.WORKLOADS:
        cases = corpus.build(workload, 3)
        assert len({c.name for c in cases}) == len(cases)
        assert all(c.expect in EXPECTED for c in cases)


def test_corpora_depend_only_on_the_seed():
    for workload in corpus.WORKLOADS:
        assert corpus.build(workload, 11) == corpus.build(workload, 11)
    assert corpus.build("polynomials", 1) != corpus.build("polynomials", 2)


def test_dilates_seeds_only_translate():
    first, second = corpus.build("dilates", 1), corpus.build("dilates", 2)
    assert first != second
    for a, b in zip(first, second):
        assert a.sample_seed == b.sample_seed == 0
        shifts = {tuple(y - x for x, y in zip(u, v)) for u, v in zip(a.vertices, b.vertices)}
        assert len(shifts) == 1


def _box_volume(vertices):
    volume = 1
    for i in range(3):
        volume *= max(v[i] for v in vertices) - min(v[i] for v in vertices) + 1
    return volume


def test_sheared_cases_do_the_same_work_for_every_seed():
    volumes = {
        seed: [_box_volume(c.vertices) for c in corpus.build("sheared", seed)]
        for seed in range(8)
    }
    assert len({tuple(v) for v in volumes.values()}) == 1
    for case in corpus.build("sheared", 0):
        points = (EXPECTED[case.expect]["dim_s"] or [len(corpus.OCTAHEDRON) + 1])[0]
        assert _box_volume(case.vertices) > 150 * points, case.name


def test_shear_is_unimodular():
    (a, b, c) = corpus.SHEAR
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    assert abs(det) == 1
    assert max(abs(x) for row in corpus.SHEAR for x in row) >= 15


def _report(verdict="INCONCLUSIVE", dims=((20, 4), (0, 0), (10, 6))):
    rows = [
        {"degree": d, "dim_s": s, "rank_j": s - r, "dim_r": r}
        for d, (s, r) in zip(("beta", "beta_minus_beta0", "two_beta_minus_beta0"), dims)
    ]
    return {
        "verdict": verdict, "reason": "", "toric": {}, "degrees": {},
        "dimensions": {"profile": rows}, "sample": {}, "citations": [],
    }


def test_checks_accept_the_right_answer_and_reject_wrong_ones():
    expected = EXPECTED["simplex3"]
    good = json.dumps(_report())
    assert checks.problems(expected, 2, good) == []
    assert checks.problems(expected, 0, good)
    assert checks.problems(expected, 0, json.dumps(_report("CERTIFIED_Q_FACTORIAL")))
    assert checks.problems(expected, 2, json.dumps(_report(dims=((20, 4), (0, 0), (10, 5)))))
    extra = dict(_report(), extra=1)
    assert checks.problems(expected, 2, json.dumps(extra))
    error = dict(_report("ERROR"), dimensions=None)
    assert checks.problems(expected, 1, json.dumps(error))
    assert checks.problems(expected, 2, "not json")


def test_tracer_restores_every_function():
    import qfact.cli  # noqa: F401

    modules = [m for name, m in sys.modules.items() if name.startswith("qfact")]
    before = [dict(vars(m)) for m in modules]
    original = sys.modules["qfact.linalg"].rank
    trace = tracer.Tracer()
    trace.install()
    for name in ("qfact.linalg", "qfact.lattice", "qfact.jacobian"):
        assert sys.modules[name].rank.__wrapped__ is original
    assert sys.modules["qfact.certify"].multiplication_surjective.__wrapped__
    trace.uninstall()
    assert [dict(vars(m)) for m in modules] == before


def test_ticking_times_the_calibration_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    ticks = []
    with calibrate.ticking(0.02, ticks):
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
    assert len(ticks) >= 5
    assert all(0 < t < 0.3 for t in ticks)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert calibrate.eliminate(calibrate.MATRIX) == calibrate.SIZE


def test_self_times_add_up_to_the_traced_pass(tmp_path):
    import qfact.cli  # noqa: F401

    wl = run.Workload("sheared", 5, tmp_path, tick_s=None)  # as in a traced run
    wl.run_pass()
    trace = tracer.Tracer()
    trace.install()
    try:
        passed, _ = wl.run_pass(trace)
    finally:
        trace.uninstall()
    metrics = trace.metrics(1.0)  # wall seconds
    assert wl.failed == 0
    total = sum(r.wall for r in passed)
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0.97 * total <= self_sum <= total
    assert metrics["cli.run.calls"] == len(wl.cases)
    assert {case for *_, case in trace.spans} == {c.name for c in wl.cases}


def _traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", ["sheared", "retry"])
def test_two_traced_runs_give_identical_counts(workload):
    first = _traced_counts(workload, 4)
    assert first == _traced_counts(workload, 4)
    assert first["cli.run.calls"] == len(corpus.build(workload, 4))
    assert first["jacobian.graded_piece.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "perfbench" / "expected.json").write_text((HERE / "expected.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sheared", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
