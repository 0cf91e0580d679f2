"""Exact certifier of Q-factoriality for rings cut out by very general
3-variable Laurent polynomials.

The pipeline: Newton polytope, its normal fan, the class-group grading of
the fan's coordinate ring, homogenization of the polynomial, and one rank
computation deciding surjectivity of the multiplication map between graded
pieces of the ring modulo the partial-derivative ideal. A surjective
witness certifies Q-factoriality for very general coefficients with the
same Newton polytope.
"""

from .certify import (
    VERDICT_CERTIFIED,
    VERDICT_ERROR,
    VERDICT_INCONCLUSIVE,
    VERDICT_UNSUPPORTED,
    CertificationReport,
    CertificationRequest,
    certify,
    emit_report,
    sample_coefficients,
)
from .errors import (
    DegenerateHull,
    DimensionMismatch,
    EmptyPolynomial,
    FanMismatch,
    NotSimplicial,
    ParseError,
    QfactError,
    SupportOutsidePolytope,
)
from .jacobian import (
    GradedPiece,
    SurjectivityVerdict,
    graded_piece,
    hilbert_profile,
    multiplication_surjective,
)
from .lattice import (
    Facet,
    LatticePolytope,
    NormalFan,
    convex_hull,
    is_simplicial,
    lattice_points,
    normal_fan,
)
from .laurent import (
    CoxPolynomial,
    LaurentPolynomial,
    homogenize,
    newton_polytope,
    parse_laurent,
    partial_derivatives,
)
from .linalg import (
    IntMatrix,
    SmithDecomposition,
    rank,
    smith_normal_form,
    solve_integer,
)
from .toric import (
    CoxMonomial,
    GradedDegree,
    ToricData,
    anticanonical_degree,
    build_toric_data,
    monomials_of_degree,
    polytope_degree,
)

__all__ = [
    "VERDICT_CERTIFIED",
    "VERDICT_ERROR",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_UNSUPPORTED",
    "CertificationReport",
    "CertificationRequest",
    "CoxMonomial",
    "CoxPolynomial",
    "DegenerateHull",
    "DimensionMismatch",
    "EmptyPolynomial",
    "Facet",
    "FanMismatch",
    "GradedDegree",
    "GradedPiece",
    "IntMatrix",
    "LatticePolytope",
    "LaurentPolynomial",
    "NormalFan",
    "NotSimplicial",
    "ParseError",
    "QfactError",
    "SmithDecomposition",
    "SupportOutsidePolytope",
    "SurjectivityVerdict",
    "ToricData",
    "anticanonical_degree",
    "build_toric_data",
    "certify",
    "convex_hull",
    "emit_report",
    "graded_piece",
    "hilbert_profile",
    "homogenize",
    "is_simplicial",
    "lattice_points",
    "monomials_of_degree",
    "multiplication_surjective",
    "newton_polytope",
    "normal_fan",
    "parse_laurent",
    "partial_derivatives",
    "polytope_degree",
    "rank",
    "sample_coefficients",
    "smith_normal_form",
    "solve_integer",
]

__version__ = "0.1.0"
