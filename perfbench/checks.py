"""Check one `qfact check --format json` result against expected.json."""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

EXIT_CODES = {"CERTIFIED_Q_FACTORIAL": 0, "INCONCLUSIVE": 2, "UNSUPPORTED": 3}
REPORT_KEYS = {"verdict", "reason", "toric", "degrees", "dimensions", "sample", "citations"}


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)["answers"]


def problems(expected: dict, code: int, text: str) -> list[str]:
    """Everything wrong with one report; empty when it is correct."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        keys = sorted(report) if isinstance(report, dict) else type(report).__name__
        return [f"report keys {keys} are not the 7 expected"]
    out = []
    verdict = report["verdict"]
    if verdict != expected["verdict"]:
        out.append(f"verdict {verdict}, expected {expected['verdict']}")
    if code != EXIT_CODES.get(verdict, 1):
        out.append(f"exit code {code} does not match verdict {verdict}")
    dims = report["dimensions"]
    if expected["dim_r"] is None:
        if dims is not None:
            out.append("a profile was reported where none is expected")
        return out
    if dims is None:
        return out + ["no profile reported"]
    rows = dims["profile"]
    dim_s = [row["dim_s"] for row in rows]
    dim_r = [row["dim_r"] for row in rows]
    if dim_s != expected["dim_s"]:
        out.append(f"dim S {dim_s}, expected {expected['dim_s']}")
    if dim_r != expected["dim_r"]:
        out.append(f"dim R {dim_r}, expected {expected['dim_r']}")
    if any(row["rank_j"] != row["dim_s"] - row["dim_r"] for row in rows):
        out.append("rank J is not dim S - dim R")
    return out
