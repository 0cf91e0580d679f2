"""qfact benchmark: time-to-verdict of `qfact check` on one corpus.

    python3 perfbench/run.py --workload dilates --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The cases of the workload (see corpus.py)
go through `qfact.cli.run` in this process: one untimed warm-up pass, then
timed passes until --seconds have been measured. Every report is checked
against expected.json and against the warm-up pass's bytes.

A timed pass runs each case once; after each long case it runs every short
case once more, so that short cases are sampled all through the run. A
case's time is the median of its samples.

Times are in reference seconds: each sample's wall time scaled by
REFERENCE_S over the mean time of calibrate.py's fixed elimination,
timed right before and right after the sample and every TICK_S seconds
during it. On a host where the elimination takes REFERENCE_S, reference
seconds are wall seconds.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (tracer.py); its spans go to
perfbench/out/. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402

LIMIT_S = 5.0
SETUP_PROBES = 15
# Warm-up times that make a case long or short (see fillers_for).
LONG_S = 2.0
SHORT_S = 0.5
# The elimination's median time on the 2-vCPU host the benchmark was set up
# on, so that reference seconds are that host's usual wall seconds.
REFERENCE_S = 0.0045
TICK_S = 0.25


@dataclass
class CaseRun:
    name: str
    wall: float
    seconds: float  # reference seconds
    ok: bool


def to_reference(wall: float, paces: list[float]) -> float:
    """Reference seconds of `wall`, from the calibration times around and
    during it."""
    return wall * REFERENCE_S / fmean(paces)


def measure_setup() -> list[float]:
    """Reference seconds from a fresh interpreter to `qfact.cli` imported,
    for several interpreters. One untimed probe first writes the bytecode.
    This process and the probes share one CPU meanwhile, so that the
    calibration runs where the probes run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    cmd = [sys.executable, "-c", "import qfact.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        times, before = [], calibrate.seconds()
        for _ in range(SETUP_PROBES):
            start = perf_counter()
            subprocess.run(cmd, env=env, cwd=ROOT, check=True)
            wall = perf_counter() - start
            after = calibrate.seconds()
            times.append(to_reference(wall, [before, after]))
            before = after
    finally:
        os.sched_setaffinity(0, cpus)
    return times


class Workload:
    def __init__(self, name: str, seed: int, inputs: Path, tick_s=TICK_S):
        self.cases = corpus.build(name, seed)
        self.expected = checks.load_expected()
        self.argvs = {}
        self.first_bytes = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tick_s = tick_s
        inputs.mkdir(parents=True, exist_ok=True)
        for case in self.cases:
            path = inputs / case.name
            if case.vertices is not None:
                path.write_text(json.dumps({"vertices": [list(v) for v in case.vertices]}))
                argv = ["check", "--polytope", str(path)]
            else:
                path.write_text(case.poly_text + "\n")
                argv = ["check", "--poly", str(path)]
            if case.use_input_coeffs:
                argv.append("--use-input-coeffs")
            sample_seed = seed if case.sample_seed is None else case.sample_seed
            self.argvs[case.name] = argv + ["--seed", str(sample_seed), "--format", "json"]

    def run_case(self, case, trace=None) -> tuple[float, bool, list[float]]:
        """Wall seconds of one case, whether its report was right, and the
        calibration times taken while it ran."""
        cli = sys.modules["qfact.cli"]
        buf = io.StringIO()
        if trace is not None:
            trace.case = case.name
        gc.collect()  # every sample starts from the same collector state
        ticks = []
        with contextlib.redirect_stdout(buf), calibrate.ticking(self.tick_s, ticks):
            start = perf_counter()
            try:
                code = cli.run(self.argvs[case.name])
                error = None
            except (Exception, SystemExit) as exc:  # a crash is a failed case
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start - sum(ticks)
        text = buf.getvalue()
        if error is not None:
            found = [f"raised {error}"]
        else:
            found = checks.problems(self.expected[case.expect], code, text)
            if text != self.first_bytes.setdefault(case.name, text):
                found.append("report bytes differ from the first run")
        self.attempted += 1
        self.failed += bool(found)
        self.failures += [f"{case.name}: {p}" for p in found]
        return seconds, not found, ticks

    def run_pass(self, trace=None, fillers=None) -> tuple[list[CaseRun], float]:
        """Every case once, in corpus order, each followed by the cases that
        `fillers` lists for it; and the pass's wall-to-reference factor, from
        the median calibration time."""
        order = [c for case in self.cases for c in (case, *(fillers or {}).get(case.name, ()))]
        paces, walls = [calibrate.seconds()], []
        for case in order:
            walls.append(self.run_case(case, trace))
            paces.append(calibrate.seconds())
        runs = [
            CaseRun(case.name, wall, to_reference(wall, [before, *ticks, after]), ok)
            for case, (wall, ok, ticks), before, after in zip(order, walls, paces, paces[1:])
        ]
        return runs, REFERENCE_S / median(paces)


def fillers_for(cases, warm_up: list[CaseRun]) -> dict[str, list]:
    """After every case of LONG_S or more in the warm-up, the cases under
    SHORT_S. Without them a short case would be sampled only between the
    long ones, a few moments per pass."""
    took = {r.name: r.seconds for r in warm_up}
    short = [c for c in cases if took[c.name] < SHORT_S]
    return {c.name: short for c in cases if took[c.name] >= LONG_S}


def pass_seconds(runs: list[CaseRun], scale: float) -> float:
    """A pass in reference seconds by its own factor, as its spans are."""
    return sum(r.wall for r in runs) * scale


def quartiles_text(values):
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


def end_to_end(wl: Workload, passes: list[list[CaseRun]], setup: list[float], scales):
    runs = [r for p in passes for r in p]
    samples = {c.name: [r.seconds for r in runs if r.name == c.name] for c in wl.cases}
    per_case = {name: median(t) for name, t in samples.items()}
    correct = {c.name: all(r.ok for r in runs if r.name == c.name) for c in wl.cases}
    within = sum(correct[name] and per_case[name] <= LIMIT_S for name in per_case) / len(per_case)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(wl.cases)
    print(f"corpus_s {sum(per_case.values()):.4f} s (sum over {n} cases of their median; "
          f"{len(passes)} timed passes; host pace {1000 * REFERENCE_S / median(scales):.3f} ms)")
    print(f"case_s.p50 {median(per_case.values()):.4f} s (median of {n} cases)")
    print(f"case_s.max {max(per_case.values()):.4f} s (slowest of {n} cases)")
    print(f"within_limit_share {within:.4f} (cases always correct and within {LIMIT_S} s, n={n})")
    print(f"error_share {wl.failed / wl.attempted:.4f} (failed/attempted = {wl.failed}/{wl.attempted})")
    print(f"peak_rss_mb {rss_mb:.1f} MB")
    print(f"setup_s {median(setup):.4f} s (median over fresh interpreters; {quartiles_text(setup)})")
    for name, t in samples.items():
        print(f"  case {name} {per_case[name]:.4f} s (median; {quartiles_text(t)})")
    return {
        "corpus_s": (sum(per_case.values()), "s"),
        "case_s.p50": (median(per_case.values()), "s"),
        "case_s.max": (max(per_case.values()), "s"),
        "within_limit_share": (within, "share"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (median(setup), "s"),
    }


def per_layer(plain: list[float], traced: list[float], layer_passes):
    """`plain` and `traced` hold pass_seconds of untraced and traced passes."""
    metrics = {}
    for name in layer_passes[0]:
        value = median(m[name] for m in layer_passes)
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (value, unit)
    overhead = median(traced) - median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    # Self times, trace.count.self_s included, add up to the traced corpus_s.
    self_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    traced_total = median(traced)
    print(f"traced corpus_s {traced_total:.4f} s, untraced {traced_total - overhead:.4f} s, "
          f"sum of self times {self_sum:.4f} s (n={len(traced)} traced passes)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" if unit == "s" else f"{name} {value} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qfact" / "cli.py").is_file():
        print(f"qfact sources not found under {SRC}; run from a qfact checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    inputs = OUT / f"inputs-{os.getpid()}"
    try:
        setup = [] if args.trace else measure_setup()
        import qfact.cli  # noqa: F401

        # The traced run compares traced with untraced passes; neither ticks.
        wl = Workload(args.workload, args.seed, inputs, None if args.trace else TICK_S)
        warm_up, _ = wl.run_pass()  # untimed, but checked, and its report bytes kept
        # Traced and untraced passes run each case once, so they compare.
        fillers = {} if args.trace else fillers_for(wl.cases, warm_up)
        plain, scales, traced, layer_passes, spans = [], [], [], [], []
        start = perf_counter()
        while not plain or (args.trace and not traced) or perf_counter() - start < args.seconds:
            runs, scale = wl.run_pass(fillers=fillers)
            plain.append(runs)
            scales.append(scale)
            if args.trace:
                trace = tracer.Tracer()
                trace.install()
                try:
                    runs, scale = wl.run_pass(trace)
                finally:
                    trace.uninstall()
                traced.append(pass_seconds(runs, scale))
                layer_passes.append(trace.metrics(scale))
                spans.append(trace.spans)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {len(wl.cases)} cases, "
          f"{len(plain)} untraced passes")
    if args.trace:
        metrics = per_layer(list(map(pass_seconds, plain, scales)), traced, layer_passes)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", spans)
    else:
        metrics = end_to_end(wl, plain, setup, scales)
    for failure in wl.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not wl.failed,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
