"""Certification pipeline: from a Laurent polynomial or a polytope to a
verdict about Q-factoriality of the associated hypersurface ring.

The certificate rests on one sufficient criterion: surjectivity of the
multiplication map between quotient-ring graded pieces at degrees derived
from the polytope and the anticanonical class. Surjectivity is an open
condition on coefficients, so a single exact witness, however sparse its
support, certifies the statement for very general members of the family.
"""

from __future__ import annotations

from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote
from random import Random

from .errors import DegenerateHull, NotSimplicial, QfactError
from .jacobian import coverage, multiplication_surjective, uncovered_term_rank
from .lattice import LatticePolytope, convex_hull, lattice_points, normal_fan
from .laurent import LaurentPolynomial, homogenize, newton_polytope
from .toric import (
    GradedDegree,
    ToricData,
    anticanonical_degree,
    build_toric_data,
    polytope_degree,
)

VERDICT_CERTIFIED = "CERTIFIED_Q_FACTORIAL"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"
VERDICT_UNSUPPORTED = "UNSUPPORTED"
VERDICT_ERROR = "ERROR"

_CRITERION_CITATION = (
    "Criterion: for a 3-variable Laurent hypersurface with full-dimensional "
    "Newton polytope and simplicial normal fan, surjectivity of the "
    "multiplication map R_beta x R_(beta-beta0) -> R_(2beta-beta0) of "
    "Jacobian-ring graded pieces implies the hypersurface ring is "
    "Q-factorial for very general coefficients."
)
_SUFFICIENCY_CITATION = (
    "The criterion is sufficient only; its failure proves nothing about "
    "the ring."
)
_DOLGACHEV_CITATION = "factorial by Dolgachev for generic F"

# Attempt k reseeds the coefficient sampler with seed * _SEED_STRIDE + k,
# keeping distinct attempts decorrelated but fully reproducible.
_SEED_STRIDE = 1_000_003


class CertificationRequest(
    namedtuple(
        "CertificationRequest",
        "source_polynomial source_vertices seed samples coeff_bound use_input_coeffs",
        defaults=(None, None, 0, 5, 10, False),
    )
):
    """What to certify and how to sample.

    Exactly one of source_polynomial (a LaurentPolynomial) and
    source_vertices must be given, and use_input_coeffs needs the
    polynomial. Vertices are raw integer tuples so that inputs of the wrong
    dimension can be recognized and reported rather than rejected at
    construction.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if (self.source_polynomial is None) == (self.source_vertices is None):
            raise ValueError("exactly one input source is required")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.coeff_bound < 1:
            raise ValueError("coeff_bound must be at least 1")
        if self.use_input_coeffs and self.source_polynomial is None:
            raise ValueError("use_input_coeffs needs a source polynomial, not vertices")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check its result too
        return cls(*iterable)


class CertificationReport(
    namedtuple(
        "CertificationReport",
        "verdict reason toric degrees dimensions sample citations",
        defaults=(None, None, None, None, ()),
    )
):
    """Verdict and reason (strings), the JSON-ready dicts toric, degrees,
    dimensions and sample (None when not reached), and the citations."""

    __slots__ = ()


def _sampled_on(points, seed: int, bound: int) -> LaurentPolynomial:
    """Support the points, nonzero integer coefficients drawn uniformly from
    [-bound, bound] minus zero in the points' order: deterministic."""
    rng = Random(seed)
    pairs = []
    for m in points:
        k = rng.randrange(2 * bound)
        pairs.append((m, k - bound if k < bound else k - bound + 1))
    return LaurentPolynomial.from_terms(pairs)


def sample_coefficients(P: LatticePolytope, seed: int, bound: int) -> LaurentPolynomial:
    """Random member of the family with full lattice support."""
    return _sampled_on(lattice_points(P), seed, bound)


def _json_int(x: int):
    # JSON numbers are only faithful up to 2**53; beyond that, strings.
    return x if -(2**53) < x < 2**53 else str(x)


def _degree_dict(d: GradedDegree) -> dict:
    return {
        "free": [_json_int(x) for x in d.free_part],
        "torsion": [_json_int(x) for x in d.torsion_part],
    }


def _toric_dict(T: ToricData) -> dict:
    return {
        "rays": [[_json_int(x) for x in v] for v in T.rays],
        "class_rank": T.class_rank,
        "torsion_invariants": [_json_int(x) for x in T.torsion],
        "picard_number": T.class_rank,
        "variable_degrees": [_degree_dict(d) for d in T.variable_degrees],
    }


class _Terms(list):
    """A sample's coefficients: a list of {"exponents": [...], "coefficient":
    str} entries, keys in that order and exponents nonempty, which `_json`
    writes one expression per entry."""

    __slots__ = ()


def _sample_dict(F: LaurentPolynomial, seed: int, attempt: int, source: str) -> dict:
    return {
        "seed": _json_int(seed),
        "attempt": attempt,
        "source": source,
        "coefficients": _Terms(
            {"exponents": [_json_int(x) for x in e], "coefficient": str(c)}
            for e, c in F.terms
        ),
    }


def error_report(exc: BaseException) -> CertificationReport:
    """The ERROR report for an exception: its type and message, except that
    a MemoryError always reads "out of memory"."""
    detail = "out of memory" if isinstance(exc, MemoryError) else exc
    return CertificationReport(VERDICT_ERROR, f"{type(exc).__name__}: {detail}")


def certify(req: CertificationRequest) -> CertificationReport:
    """Run the pipeline and always return a report, never raise.

    Hull and fan first; a non-simplicial fan or a polytope of the wrong
    dimension is UNSUPPORTED. Surjectivity is an open condition on the
    coefficients, so one surjective member, however sparse, is a witness for
    the very general member; a member that fails proves nothing. Sampled
    members go up a ladder, each rung after the last one fails:
    1. Before any sample, the term rank on the target monomials U that no
       product covers, of the full support's pattern. Below |U| (Hall's
       condition fails) no member is surjective: INCONCLUSIVE, reported with
       full-support attempt 0's profile.
    2. The vertex member, from attempt 0's seed; it is a witness when U is
       empty.
    3. Full-support attempts 0..samples-1; if none is a witness, INCONCLUSIVE.
    With use_input_coeffs the input's coefficients are tested once instead.
    An input error, an internal self-check that fails (an AssertionError,
    such as an unverified Smith form), or running out of memory is an ERROR
    report.
    """
    try:
        return _certify_checked(req)
    except (QfactError, AssertionError, MemoryError) as exc:
        return error_report(exc)


def _ladder(P: LatticePolytope, req: CertificationRequest, structural: bool):
    """Rungs 2 and 3 of `certify`, as (F, source, attempt)."""
    seed, bound = req.seed * _SEED_STRIDE, req.coeff_bound
    if not structural:
        yield _sampled_on(P.vertices, seed, bound), "vertices", 0
    for attempt in range(1 if structural else req.samples):
        yield sample_coefficients(P, seed + attempt, bound), "sampled", attempt


def _certify_checked(req: CertificationRequest) -> CertificationReport:
    F_input = req.source_polynomial
    if F_input is None:
        hull, source, name = convex_hull, req.source_vertices, "polytope"
        points, noun = source, "vertices"
    else:
        hull, source, name = newton_polytope, F_input, "Newton polytope"
        points, noun = F_input.support, "exponents"
    arities = {len(v) for v in points}
    integral = all(isinstance(x, int) and not isinstance(x, bool) for v in points for x in v)
    # The zero polynomial has no exponents; newton_polytope reports it.
    if not integral or len(arities) > 1 or (not arities and F_input is None):
        return CertificationReport(
            VERDICT_ERROR, f"{noun} must be integer tuples of one common dimension"
        )
    for arity in arities:
        if arity >= 4:
            return CertificationReport(
                VERDICT_UNSUPPORTED,
                f"{noun} live in dimension {arity}; for dimension >= 4 the "
                "hypersurface ring of a very general member is already "
                "factorial, and this tool performs no computation there",
                citations=(_DOLGACHEV_CITATION,),
            )
        if arity <= 2:
            return CertificationReport(
                VERDICT_UNSUPPORTED,
                f"{noun} live in dimension {arity}; dimensions <= 2 are "
                "outside the certified scope",
            )

    try:
        P = hull(source)
        T = build_toric_data(normal_fan(P))
    except DegenerateHull as exc:
        return CertificationReport(
            VERDICT_UNSUPPORTED,
            f"{name} is not full-dimensional ({exc}); dimensions <= 2 are "
            "outside the certified scope",
        )
    except NotSimplicial as exc:
        return CertificationReport(
            VERDICT_UNSUPPORTED,
            f"normal fan is not simplicial ({exc}); the criterion needs a "
            "simplicial fan and this tool does not refine fans",
        )

    beta = polytope_degree(T, P)
    beta0 = anticanonical_degree(T)
    degrees = {
        "beta": _degree_dict(beta),
        "beta0": _degree_dict(beta0),
        "beta_minus_beta0": _degree_dict(beta - beta0),
        "two_beta_minus_beta0": _degree_dict(beta + beta - beta0),
    }

    keep_input = req.use_input_coeffs
    # The report spells out each coefficient (a sampled one is at most
    # coeff_bound) with str(), which refuses overly long integers.
    try:
        for c in [c for _, c in F_input.terms] if keep_input else [req.coeff_bound]:
            str(c)
    except ValueError as exc:
        return error_report(ValueError(f"coefficient too long: {exc}"))
    cover = coverage(T, beta)
    U = len(cover.uncovered)
    if keep_input:
        candidates = [(F_input, "input", 0)]
    else:
        hall = uncovered_term_rank(T, cover, None) if U else 0
        candidates = _ladder(P, req, hall < U)
    for F, kind, attempt in candidates:
        f = homogenize(F, P, T)
        v = multiplication_surjective(f, T, cover)
        if v.surjective:
            break
    if keep_input:
        hall = U if v.surjective else uncovered_term_rank(T, cover, f)
    # The input's support may be sparser than P's: its pattern proves nothing.
    structural = not keep_input and hall < U

    labels = ["beta", "beta_minus_beta0", "two_beta_minus_beta0"]
    dimensions = {
        "profile": [
            {
                "degree": lbl,
                "dim_s": p.s_dimension,
                "rank_j": p.jacobian_rank,
                "dim_r": p.r_dimension,
            }
            for lbl, p in zip(labels, v.pieces)
        ],
        "image_rank": v.image_rank,
        "target_needed": v.target_needed,
        "uncovered": v.uncovered,
        "term_rank": hall,
        "quotient_image_rank": max(v.image_rank - v.pieces[2].jacobian_rank, 0),
        "quotient_target": v.dims[2],
        "surjective": v.surjective,
    }
    sample = _sample_dict(F, req.seed, attempt, kind)
    toric = _toric_dict(T)

    if v.surjective:
        if v.uncovered:
            witness = f"witness at attempt {attempt}"
        else:
            witness = (
                "for every coefficient choice: each target monomial is a "
                "product of two source monomials"
            )
        reason = (
            f"multiplication map is surjective ({witness}): "
            "for very general members of the family with this Newton polytope, "
            "the hypersurface ring is Q-factorial"
        )
        if keep_input:
            reason += (
                "; the verdict transfers to the supplied coefficients only "
                "under a very-generality assumption this tool cannot check"
            )
        elif F_input is not None:
            reason += (
                "; certified for the family of the input's Newton polytope, "
                "not for the specific input coefficients"
            )
        verdict, citations = VERDICT_CERTIFIED, (_CRITERION_CITATION,)
    else:
        if structural:
            failure = (
                "multiplication map fails to be surjective for every member of "
                f"the family with full lattice support: on the {v.uncovered} target "
                "monomials that no product covers, the Jacobian rows have term rank "
                f"{hall}, so their rank is at most {hall} (Hall's "
                "condition fails)"
            )
        else:
            failure = (
                "multiplication map failed to be surjective in "
                f"{1 if keep_input else req.samples} attempt(s)"
            )
        reason = (
            f"{failure}; the criterion is sufficient only, so this proves nothing "
            "about the ring either way"
        )
        verdict = VERDICT_INCONCLUSIVE
        citations = (_CRITERION_CITATION, _SUFFICIENCY_CITATION)
    return CertificationReport(
        verdict=verdict,
        reason=reason,
        toric=toric,
        degrees=degrees,
        dimensions=dimensions,
        sample=sample,
        citations=citations,
    )


# The JSON writer gives the bytes of json.dumps(x, indent=2), which would
# take the pure-Python encoder: strings go through the same C function that
# json.dumps calls under ensure_ascii, and ints through int.__repr__.
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json(x, pad: str) -> str:
    """x as json.dumps(x, indent=2) writes it, nested at indentation pad."""
    write = _SCALARS.get(type(x))
    if write is not None:
        return write(x)
    inner = pad + "  "
    if isinstance(x, dict):
        items = [f"{_quote(k)}: {_json(v, inner)}" for k, v in x.items()]
        brackets = "{}"
    elif type(x) is _Terms:
        deeper, deepest = inner + "  ", inner + "    "
        sep = ",\n" + deepest
        items = [
            f'{{\n{deeper}"exponents": [\n{deepest}'
            f'{sep.join([_SCALARS[type(v)](v) for v in t["exponents"]])}\n{deeper}],\n'
            f'{deeper}"coefficient": {_quote(t["coefficient"])}\n{inner}}}'
            for t in x
        ]
        brackets = "[]"
    elif isinstance(x, (list, tuple)):
        try:  # a list of scalars is one join
            items = [_SCALARS[type(v)](v) for v in x]
        except KeyError:
            items = [_json(v, inner) for v in x]
        brackets = "[]"
    else:
        raise TypeError(f"{type(x).__name__} has no place in a report")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def emit_report(report: CertificationReport, format: str = "json") -> str:
    """Serialize a report deterministically, as JSON or readable text.

    Both are ASCII: JSON escapes other characters as json.dumps does, and
    text with Python's backslash escapes, so any stdout can print them.
    """
    if format == "json":
        return _json(report._asdict(), "") + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")

    lines = [f"verdict: {report.verdict}", f"reason: {report.reason}"]
    if report.toric is not None:
        t = report.toric
        lines.append(f"rays: {t['rays']}")
        lines.append(
            f"class group: rank {t['class_rank']}, torsion {t['torsion_invariants']}"
        )
        lines.append(f"picard number: {t['picard_number']}")
    if report.degrees is not None:
        for key, val in report.degrees.items():
            lines.append(f"degree {key}: free {val['free']}, torsion {val['torsion']}")
    if report.dimensions is not None:
        for row in report.dimensions["profile"]:
            lines.append(
                f"dims at {row['degree']}: dim S = {row['dim_s']}, "
                f"rank J = {row['rank_j']}, dim R = {row['dim_r']}"
            )
        d = report.dimensions
        lines.append(
            f"image rank {d['image_rank']} of {d['target_needed']} needed; "
            f"{d['uncovered']} target monomials uncovered by products, "
            f"term rank {d['term_rank']} on them"
        )
    if report.sample is not None:
        s = report.sample
        lines.append(
            f"sample: seed {s['seed']}, attempt {s['attempt']}, source {s['source']}, "
            f"{len(s['coefficients'])} terms"
        )
    for c in report.citations:
        lines.append(f"citation: {c}")
    return ("\n".join(lines) + "\n").encode("ascii", "backslashreplace").decode()
