"""Run every workload in its own fresh process and print each metric by
name, with its unit, as median and quartiles over the runs.

    python3 perfbench/report.py --seeds 1 2 --seconds 20 [--trace]

Each (workload, seed) is one `run.py` process, so peak_rss_mb is per
workload. error_share is failed cases over attempted cases. With --trace
the traced runs follow and their per-layer metrics are printed as well.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from corpus import WORKLOADS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, _, q3 = quantiles(values, n=4)
    return f"{median(values):.6g} (q1 {q1:.6g}, q3 {q3:.6g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    all_correct = True
    for trace in (False, True) if args.trace else (False,):
        for workload in WORKLOADS:
            results = [run_once(workload, s, args.seconds, trace) for s in args.seeds]
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            all_correct &= all(r["correct"] for r in results)
            kind = "per-layer" if trace else "end-to-end"
            print(f"== {workload} ({kind}, seeds {args.seeds}, {args.seconds} s per run)")
            print(f"  error_share {failed / attempted:.4f} share ({failed}/{attempted} case runs)")
            for name, first in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results]
                print(f"  {name} {summary(values)} {first['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
