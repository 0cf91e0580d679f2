"""One sha256 over the reports of the benchmark's four workloads.

    python3 tests/report_digest.py ROOT

Builds every case of `perfbench/corpus.py` in the tree at ROOT, for each
workload at seeds 1, 3 and 77, and runs it through that tree's
`qfact.cli.run` as `perfbench/run.py` does, once with `--format json` and
once with `--format text`: 204 reports. It prints one sha256 over each
report's bytes and exit code, so two trees whose digests agree gave the
same reports. The inputs go to a temporary directory; nothing is written
to ROOT. Pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 3, 77)


def digest(root: Path) -> tuple[str, int]:
    """The sha256 of ROOT's workload reports, and how many there are."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import corpus
    from qfact.cli import run

    h, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in corpus.WORKLOADS:
            for seed in SEEDS:
                for case in corpus.build(workload, seed):
                    path = Path(tmp) / case.name
                    if case.vertices is not None:
                        path.write_text(json.dumps({"vertices": [list(v) for v in case.vertices]}))
                        argv = ["check", "--polytope", str(path)]
                    else:
                        path.write_text(case.poly_text + "\n")
                        argv = ["check", "--poly", str(path)]
                    if case.use_input_coeffs:
                        argv.append("--use-input-coeffs")
                    sample_seed = seed if case.sample_seed is None else case.sample_seed
                    argv += ["--seed", str(sample_seed)]
                    for fmt in ("json", "text"):
                        out = io.StringIO()
                        with contextlib.redirect_stdout(out):
                            code = run(argv + ["--format", fmt])
                        h.update(f"{workload} {seed} {case.name} {fmt} {code}\n".encode())
                        h.update(out.getvalue().encode())
                        count += 1
    return h.hexdigest(), count


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    value, count = digest(Path(args[0]).resolve())
    print(f"{value}  {count} reports")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
