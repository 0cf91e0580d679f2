"""Command-line front end.

    qfact check (--poly FILE | --poly-str STRING | --polytope FILE)
                [--seed N] [--samples K] [--coeff-bound B]
                [--use-input-coeffs] [--format json|text] [--out FILE]

Exit codes: 0 certified, 2 inconclusive or a usage error, 3 unsupported, 1 error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .certify import (
    VERDICT_CERTIFIED,
    VERDICT_INCONCLUSIVE,
    VERDICT_UNSUPPORTED,
    CertificationRequest,
    certify,
    emit_report,
    error_report,
)
from .errors import QfactError
from .laurent import LaurentPolynomial, parse_laurent

_EXIT_CODES = {
    VERDICT_CERTIFIED: 0,
    VERDICT_INCONCLUSIVE: 2,
    VERDICT_UNSUPPORTED: 3,
}


class InputFormatError(QfactError):
    pass


def _parse_coefficient(raw) -> Fraction:
    if isinstance(raw, bool):
        raise InputFormatError(f"coefficient {raw!r} is not a rational")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        # Fraction also reads decimals and exponents: '1e999999999'.
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", raw):
            raise InputFormatError(f"bad coefficient {raw!r}: need 'p' or 'p/q'")
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad coefficient {raw!r}: {exc}") from None
    raise InputFormatError(
        f"coefficient {raw!r} must be an integer or a 'p/q' string"
    )


def _polynomial_from_json(data) -> LaurentPolynomial:
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise InputFormatError("polynomial JSON needs a 'terms' list")
    pairs = []
    for term in data["terms"]:
        if not isinstance(term, dict):
            raise InputFormatError(
                f"bad term {term!r}: need an object with exponents and coefficient"
            )
        expo = term.get("exponents")
        # certify judges how many exponents there are
        if not isinstance(expo, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in expo
        ):
            raise InputFormatError(f"bad exponents {expo!r}: need a list of integers")
        pairs.append((tuple(expo), _parse_coefficient(term.get("coefficient"))))
    return LaurentPolynomial.from_terms(pairs)


def _parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise InputFormatError("JSON nested too deeply") from None


def _load_polynomial(path: str) -> LaurentPolynomial:
    """A polynomial file holds either the JSON format or plain Laurent text."""
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _polynomial_from_json(_parse_json(text))
    return parse_laurent(text.strip())


def _load_vertices(path: str) -> tuple[tuple[int, ...], ...]:
    with open(path, encoding="utf-8-sig") as fh:
        data = _parse_json(fh.read())
    if not isinstance(data, dict) or not isinstance(data.get("vertices"), list):
        raise InputFormatError("polytope JSON needs a 'vertices' list")
    verts = []
    for v in data["vertices"]:
        if not isinstance(v, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in v
        ):
            raise InputFormatError(f"bad vertex {v!r}: need a list of integers")
        verts.append(tuple(v))
    if not verts:
        raise InputFormatError("polytope JSON has no vertices")
    return tuple(verts)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfact",
        description=(
            "Certify Q-factoriality of the ring cut out by a 3-variable "
            "Laurent polynomial, for very general coefficients on its "
            "Newton polytope."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run the certification pipeline")
    src = check.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", metavar="FILE", help="polynomial file (text or JSON)")
    src.add_argument("--poly-str", metavar="STRING", help="polynomial as a string")
    src.add_argument("--polytope", metavar="FILE", help="polytope JSON file")
    defaults = CertificationRequest._field_defaults
    check.add_argument("--seed", type=int, default=defaults["seed"])
    check.add_argument("--samples", type=int, default=defaults["samples"])
    check.add_argument("--coeff-bound", type=int, default=defaults["coeff_bound"])
    check.add_argument(
        "--use-input-coeffs",
        action="store_true",
        help="test the polynomial's own coefficients instead of sampling",
    )
    check.add_argument("--format", choices=("json", "text"), default="text")
    check.add_argument("--out", metavar="FILE", help="write the report here")
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.poly is not None:
            source = {"source_polynomial": _load_polynomial(args.poly)}
        elif args.poly_str is not None:
            source = {"source_polynomial": parse_laurent(args.poly_str)}
        else:
            source = {"source_vertices": _load_vertices(args.polytope)}
        report = certify(
            CertificationRequest(
                **source,
                seed=args.seed,
                samples=args.samples,
                coeff_bound=args.coeff_bound,
                use_input_coeffs=args.use_input_coeffs,
            )
        )
    except (QfactError, OSError, ValueError, MemoryError) as exc:
        report = error_report(exc)

    text = emit_report(report, format=args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
            return _EXIT_CODES.get(report.verdict, 1)
        except OSError as exc:
            # No file to put the report in: say so on stdout instead.
            report = error_report(exc)
            text = emit_report(report, format=args.format)
    sys.stdout.write(text)
    return _EXIT_CODES.get(report.verdict, 1)


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
