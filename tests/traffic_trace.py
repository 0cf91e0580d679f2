"""The statements of qfact that the benchmark's traffic never runs.

    python3 tests/traffic_trace.py [ROOT]

Traces every line of ROOT/src/qfact (by default this checkout's) with
`sys.settrace`, from its import on, while it certifies and emits every
case of `perfbench/corpus.py`, for each workload at seeds 1, 3 and 7, as
`perfbench/run.py` does (through `qfact.cli.run`, as JSON and as text),
and then the 1,325 tetrahedra of `util.hermite_tetrahedra(12)` (through
`certify` and `emit_report`). It prints, per module, the functions that
never ran and the other statements that never ran, by function. A
statement is a line that holds bytecode. It only reads `perfbench/`; the
inputs go to a temporary directory. Pytest does not collect this file.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 3, 7)


def run_traffic():
    """Certify and emit every case of the workloads and the census."""
    from report_digest import workload_cases
    from util import hermite_tetrahedra

    from qfact.certify import CertificationRequest, certify, emit_report
    from qfact.cli import run

    with tempfile.TemporaryDirectory() as tmp:
        for _, argv in workload_cases(Path(tmp), SEEDS):
            for fmt in ("json", "text"):
                with contextlib.redirect_stdout(io.StringIO()):
                    run(argv + ["--format", fmt])
    for vertices in hermite_tetrahedra(12):
        emit_report(certify(CertificationRequest(source_vertices=vertices)))


def statements(path: Path) -> dict[int, str]:
    """Each line of the file that holds bytecode, with the qualified name of
    the innermost function it belongs to ("" at module level)."""
    owner = {}

    def walk(code, name):
        for _, _, line in code.co_lines():
            if line:  # 0 marks no line; a def line runs in the enclosing code
                owner.setdefault(line, name)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, getattr(const, "co_qualname", const.co_name))

    walk(compile(path.read_text(), str(path), "exec"), "")
    return owner


def trace(root: Path) -> dict[str, set[int]]:
    """The lines of each file under ROOT/src/qfact that ran."""
    prefix = str(root / "src" / "qfact")
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(enter)
    try:
        run_traffic()
    finally:
        sys.settrace(None)
    return ran


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    root = Path(args[0] if args else Path(__file__).parent.parent).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    ran = trace(root)
    for path in sorted((root / "src" / "qfact").glob("*.py")):
        owner, hit = statements(path), ran.get(str(path), set())
        missing, missed = set(owner) - hit, {}
        for line in sorted(missing):
            missed.setdefault(owner[line], []).append(line)
        # a function is entered when a line of its own body runs
        entered = {owner[line] for line in hit if line in owner}
        never = sorted(name for name in missed if name and name not in entered)
        print(f"{path.name}: {len(owner) - len(missing)} of {len(owner)} statements ran")
        if never:
            print(f"  never called: {', '.join(never)}")
        for name, lines in missed.items():
            if name not in never:
                print(f"  {name or '<module>'}: lines {', '.join(map(str, lines))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
