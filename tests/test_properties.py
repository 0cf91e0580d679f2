"""Generated-input properties: the rank engine, its singleton peel and its
packed elimination mod p, the fraction-free echelon form, the term rank and
the lattice-point enumerator against the naive oracles, the graded pieces'
Euler-relation rank certificate against the integer elimination, the early
stop of the attempt loop against the loop run to the end, the two parsers of
outside input against their never-crash contracts, the Laurent parser
against the character scanner of `oracles.scan_laurent`, and the report's
JSON writer against `json.dumps(x, indent=2)`.

Hypothesis runs derandomized and without an example database, so every
run draws the same examples; its home directory, where it caches the
constants it reads from the package's source and writes the patch for a
failing property, is a temporary directory, so nothing is written to the
working tree.
"""

import atexit
import json
import tempfile
from pathlib import Path
from random import Random
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from oracles import (  # noqa: E402
    box_monomials_of_degree,
    box_points,
    exhaustive_term_rank,
    naive_rank,
    rank_mod_p,
    sampled_surjectivity,
    scan_laurent,
)
from util import (  # noqa: E402
    apply_matrix,
    random_polygon_prism,
    random_simplicial_polytope,
    random_support_polynomial,
    random_unimodular,
    sparse_rows,
    toric_of,
)

from qfact import jacobian, linalg  # noqa: E402
from qfact.certify import _json as json_writer  # noqa: E402
from qfact.certify import (  # noqa: E402
    CertificationReport,
    CertificationRequest,
    _Terms,
    certify,
    emit_report,
    sample_coefficients,
)
from qfact.cli import run  # noqa: E402
from qfact.errors import ParseError  # noqa: E402
from qfact.jacobian import graded_piece, multiplication_surjective  # noqa: E402
from qfact.lattice import convex_hull, lattice_points  # noqa: E402
from qfact.laurent import homogenize, parse_laurent  # noqa: E402
from qfact.linalg import (  # noqa: E402
    _PRIME,
    IntMatrix,
    SparseRows,
    rank,
    rank_and_pivot_columns,
    term_rank,
)
from qfact.toric import (  # noqa: E402
    anticanonical_degree,
    monomial_codes,
    monomials_of_degree,
    polytope_degree,
)

_HOME = tempfile.TemporaryDirectory(prefix="qfact-hypothesis-")
set_hypothesis_home_dir(_HOME.name)
# The home must outlive the session: Hypothesis's pytest plugin writes the
# patch for a failing property into it in the terminal summary, after every
# module's teardown. Removed explicitly at exit, since the implicit cleanup
# of a TemporaryDirectory is a ResourceWarning.
atexit.register(_HOME.cleanup)

# No shrink phase: a failure reports the first failing example it draws,
# since shrinking a polytope-valued example can take minutes.
DETERMINISTIC = settings(
    derandomize=True,
    database=None,
    deadline=None,
    phases=[p for p in Phase if p != Phase.shrink],
)

# Entries near multiples of the prime make the mod-p rank drop below the
# rank over Q, which is the case the integer fallback exists for.
_entries = st.one_of(
    st.integers(-20, 20),
    st.builds(lambda a, b: a + b * _PRIME, st.integers(-3, 3), st.integers(-2, 2)),
)


@st.composite
def _int_matrices(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    row = st.lists(_entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    scales = st.sampled_from((1, -1, _PRIME, 2 * _PRIME))
    rows = [[draw(scales) * x for x in r] for r in rows]
    if draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    return rows


@DETERMINISTIC
@given(_int_matrices())
def test_rank_matches_the_naive_oracle(rows):
    assert rank(IntMatrix.from_rows(rows)) == naive_rank(rows)


@st.composite
def _peelable_matrices(draw):
    """Sparse rows rich in what the peel removes: rows of one entry, columns
    of one row, chains of both, repeated rows and empty columns, with
    entries outside int64 and at multiples of the prime."""
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(
        st.integers(-3, 3).filter(bool),
        st.sampled_from((_PRIME, -(2**63) - 1, 2**63, 3 * 2**70 + 1)),
    )
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        width = draw(st.sampled_from((1, 1, 2, 3, ncols)))
        row = [0] * ncols
        for c in draw(st.lists(st.integers(0, ncols - 1), max_size=width, unique=True)):
            row[c] = draw(entry)
        rows.append(row)
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    return rows, ncols


@settings(DETERMINISTIC, max_examples=300)
@given(_peelable_matrices())
def test_the_peel_keeps_the_rank(matrix):
    rows, ncols = matrix
    A = IntMatrix.from_rows(rows) if rows else IntMatrix(())
    assert rank(A) == rank(SparseRows.of(A)) == naive_rank(rows)
    # and as the nonzeros of a matrix wider than its rows reach
    wide = SparseRows(SparseRows.of(A).rows, ncols + 2)
    assert rank(wide) == naive_rank(rows)


@DETERMINISTIC
@given(_int_matrices())
def test_echelon_matches_the_naive_oracle(rows):
    """The leads rise, number the rank, span every row (an inexact division
    would leave a row outside their span), and sit at the columns that
    raise the rank of the columns to their left."""
    leads = linalg._echelon(rows, len(rows[0]))
    columns = [next(j for j, x in enumerate(w) if x) for w in leads]
    assert columns == sorted(set(columns))
    assert len(leads) == naive_rank(rows)
    for row in rows:
        assert naive_rank(leads + [row]) == len(leads)
    for j in range(len(rows[0])):
        raised = naive_rank([r[: j + 1] for r in rows]) > naive_rank([r[:j] for r in rows])
        assert (j in columns) == raised


# The entries that reduction mod p treats specially; the rest of a matrix
# is arbitrary residues. Matrices this size are drawn from a seeded Random:
# drawing every entry through hypothesis costs about 0.1 s per example.
_SPECIAL = (0, 1, -1, _PRIME - 1, _PRIME, _PRIME + 1, 1 - _PRIME)


@settings(DETERMINISTIC, max_examples=150)
@given(
    st.integers(0, 2**32),
    st.integers(0, 40),
    st.integers(1, 40),
    st.sampled_from((0.0, 0.5, 0.9)),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(1, 80),
    st.integers(1, 4),
)
def test_packed_elimination_matches_the_list_oracle(
    seed, nrows, ncols, special, zeros, dependent, wide, per_row
):
    rng = Random(seed)

    def entry():
        return rng.choice(_SPECIAL) if rng.random() < special else rng.randrange(_PRIME)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(zeros):
        rows.insert(rng.randint(0, len(rows)), [0] * ncols)
    for _ in range(dependent if rows else 0):
        a, b = rng.choice(rows), rng.choice(rows)
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.insert(rng.randint(0, len(rows)), [x * u + y * v for u, v in zip(a, b)])
    bound = min(len(rows), ncols)
    assert linalg._rank_mod_p(sparse_rows(rows), ncols, bound) == rank_mod_p(rows, ncols)
    # Up to 80 columns and at most per_row nonzero cells a row, all in a
    # few columns: whole buckets of the elimination stay empty, in the
    # matrix and in its transpose.
    cols = rng.sample(range(wide), rng.randint(1, min(wide, 3 * per_row)))
    sparse = [[0] * wide for _ in range(rng.randint(1, 40))]
    for row in sparse:
        for j in rng.sample(cols, rng.randint(0, min(per_row, len(cols)))):
            row[j] = entry()
    for M in (sparse, [list(col) for col in zip(*sparse)]):
        bound = min(len(M), len(M[0]))
        assert linalg._rank_mod_p(sparse_rows(M), len(M[0]), bound) == rank_mod_p(M, len(M[0]))


# Mostly zeros, so that the zero pattern, not the size, limits the matching.
_sparse_matrices = st.integers(1, 7).flatmap(
    lambda ncols: st.lists(
        st.lists(st.sampled_from((0, 0, 0, 1, -2, 3)), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=7,
    )
)


@DETERMINISTIC
@given(st.one_of(_sparse_matrices, _int_matrices()))
def test_term_rank_matches_the_exhaustive_matching(rows):
    t = term_rank([[j for j, x in enumerate(row) if x] for row in rows], len(rows[0]))
    assert t == exhaustive_term_rank(rows)
    assert t >= naive_rank(rows)


@settings(DETERMINISTIC, max_examples=30)
@given(st.integers(0, 2**32), st.integers(0, 50))
def test_structural_stop_is_sound(polytope_seed, seed):
    """A stop on Hall's condition never hides a surjective sample: none of
    the attempts that the loop run to the end would make succeeds, and the
    verdict is the one that loop gives."""
    P = random_simplicial_polytope(Random(polytope_seed))
    report = certify(CertificationRequest(source_vertices=P.vertices, seed=seed))
    attempts = sampled_surjectivity(P, seed=seed)
    assert report.dimensions["surjective"] == any(attempts)
    if report.dimensions["term_rank"] < report.dimensions["uncovered"]:
        assert report.sample["attempt"] == 0
        assert not any(attempts)


@settings(DETERMINISTIC, max_examples=40)
@given(st.integers(0, 2**32), st.integers(0, 2**32))
# beta piece: 14 rows and 12 columns of rank 11, a drop beyond the Euler relations
@example(46530064, 46530064)
def test_euler_relations_settle_every_graded_piece(polytope_seed, coefficient_seed):
    """On every piece of a polytope of class rank at least 2, the integer
    elimination runs only where the rows that graded_piece ranks fall short
    of min(nrows, ncols), and the rank is the elimination's."""
    P = random_polygon_prism(Random(polytope_seed))
    T = toric_of(P)
    beta, beta0 = polytope_degree(T, P), anticanonical_degree(T)
    f = homogenize(random_support_polynomial(P, Random(coefficient_seed)), P, T)
    for gamma in (beta, beta - beta0, beta + beta - beta0):
        with mock.patch.object(jacobian, "rank", wraps=jacobian.rank) as ranked:
            with mock.patch.object(linalg, "_echelon", wraps=linalg._echelon) as fallback:
                piece = graded_piece(f, T, gamma)
        (ranked_rows,), _ = ranked.call_args
        if fallback.call_count:
            assert piece.jacobian_rank < min(ranked_rows.nrows, ranked_rows.ncols)
        distinct = IntMatrix(tuple(dict.fromkeys(piece.jacobian_rows.entries)))
        assert piece.jacobian_rank == rank_and_pivot_columns(distinct)[0]


@st.composite
def _simplicial_polytopes(draw):
    """A random simplicial polytope, mapped by a random unimodular matrix
    made of up to four shears (none: the polytope itself). More shears
    make the boxes the oracles scan too large to test quickly."""
    P = random_simplicial_polytope(Random(draw(st.integers(0, 2**32))))
    shears = draw(st.integers(0, 4))
    A = random_unimodular(Random(draw(st.integers(0, 2**32))), shears=shears)
    return convex_hull([apply_matrix(A, v) for v in P.vertices])


@settings(DETERMINISTIC, max_examples=30)
@given(_simplicial_polytopes())
def test_lattice_points_match_the_box_scan(P):
    bound = max(abs(c) for v in P.vertices for c in v)
    facets = [(f.normal, f.offset) for f in P.facets]
    assert lattice_points(P) == box_points(facets, bound)


@settings(DETERMINISTIC, max_examples=30)
@given(_simplicial_polytopes(), st.integers(0, 2**32))
def test_monomials_of_degree_match_the_box_scan(P, seed):
    T = toric_of(P)
    beta, beta0 = polytope_degree(T, P), anticanonical_degree(T)
    gammas = (beta, beta - beta0, beta + beta - beta0, *T.variable_degrees)
    for gamma in gammas:
        assert monomials_of_degree(T, gamma) == box_monomials_of_degree(T, gamma)
    # A further image, too skewed for the box scan, has the same bases: its
    # ray w is the ray A^T w of P, and a monomial keeps its exponents.
    A = random_unimodular(Random(seed))
    Q = convex_hull([apply_matrix(A, v) for v in P.vertices])
    TQ = toric_of(Q)
    ray_of = [T.rays.index(apply_matrix(tuple(zip(*A)), w)) for w in TQ.rays]
    beta_q, beta0_q = polytope_degree(TQ, Q), anticanonical_degree(TQ)
    gammas_q = (beta_q, beta_q - beta0_q, beta_q + beta_q - beta0_q)
    gammas_q += tuple(TQ.variable_degrees[ray_of.index(i)] for i in range(T.nrays))
    for gamma, gamma_q in zip(gammas, gammas_q):
        in_p_order = [
            tuple(e[ray_of.index(i)] for i in range(T.nrays))
            for e in monomials_of_degree(TQ, gamma_q)
        ]
        assert sorted(in_p_order) == monomials_of_degree(T, gamma)
    # A monomial of degree -deg z_0 times z_0 would have degree 0, so its
    # exponents would be (<m, v_i>)_i >= 0 for some m; the rays positively
    # span, so m = 0, yet the product is not 1: the fiber is empty.
    empty = T.degree_of_exponents((0,) * T.nrays) - T.variable_degrees[0]
    assert monomials_of_degree(T, empty) == box_monomials_of_degree(T, empty) == []


def _decode(code, radix, n):
    digits = []
    for _ in range(n):
        code, digit = divmod(code, radix)
        digits.append(digit)
    assert code == 0
    return tuple(reversed(digits))


def _codes_match_the_box_scan(P, seed):
    """The codes at beta, beta - beta0, 2*beta - beta0 and at every degree
    gamma - beta + deg z_i of a multiplier, in the radix that the box scan
    gives beta and 2*beta - beta0 (1 + their largest exponent), strictly
    increase and decode to the box scan's monomials in order; the pieces of
    the verdict carry that radix. Returns the largest code."""
    T = toric_of(P)
    beta, beta0 = polytope_degree(T, P), anticanonical_degree(T)
    pieces = (beta, beta - beta0, beta + beta - beta0)
    radix = 1 + max(max(e) for g in (beta, pieces[2]) for e in box_monomials_of_degree(T, g))
    f = homogenize(sample_coefficients(P, seed, 10), P, T)
    for piece, gamma in zip(multiplication_surjective(f, T).pieces, pieces):
        assert piece.radix == radix
        assert piece.monomial_basis == tuple(box_monomials_of_degree(T, gamma))
    largest = 0
    for gamma in pieces + tuple(g - beta + d for g in pieces for d in T.variable_degrees):
        codes = monomial_codes(T, gamma, radix)
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert [_decode(c, radix, T.nrays) for c in codes] == box_monomials_of_degree(T, gamma)
        largest = max((largest, *codes))
    return largest


@settings(DETERMINISTIC, max_examples=30)
@given(_simplicial_polytopes(), st.integers(0, 2**32))
def test_monomial_codes_match_the_box_scan(P, seed):
    _codes_match_the_box_scan(P, seed)


def test_monomial_codes_past_64_bits():
    # A prism over a 16-gon has 18 rays, so codes reach radix**17 > 2**64.
    edges = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1)]
    edges += [(-x, -y) for x, y in edges]
    polygon = [(sum(x for x, _ in edges[:k]), sum(y for _, y in edges[:k])) for k in range(16)]
    P = convex_hull([(x, y, z) for x, y in polygon for z in (0, 1)])
    assert len(P.facets) == 18
    assert _codes_match_the_box_scan(P, 0) > 2**64


_grammar_text = st.text(alphabet="xyz0123456789+-*/^() ", max_size=40)


@DETERMINISTIC
@given(st.one_of(st.text(max_size=40), _grammar_text))
def test_parse_laurent_returns_or_raises_parse_error(text):
    try:
        parse_laurent(text)
    except ParseError:
        pass


# Grammar symbols, ASCII and Unicode whitespace, and characters that are
# digits to str.isdigit but not to int().
_parser_text = st.text(
    alphabet="0123456789xyz+-*/^() \t\n\u00a0\u2003\u3000\x1c\u00b2&", max_size=40
)
_spaces = st.sampled_from(("", "", " ", "\t", "\u3000"))


@st.composite
def _well_formed_laurent(draw):
    """Text of the parser's grammar: terms of integers (0 among them, for
    zero denominators and divisions by zero), fractions, powers and
    parenthesized terms. One text in three has a term nested 100 or 101
    deep or starting with an integer of 5000 digits, more than int()
    converts; one in four is cut short anywhere."""

    def integer():
        return str(draw(st.integers(0, 12)))

    def term(depth):
        atoms = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(("int", "frac", "var", "var", "paren")))
            if kind == "int":
                atom = integer()
            elif kind == "frac":
                atom = f"{integer()}{draw(_spaces)}/{draw(_spaces)}{integer()}"
            elif kind == "var" or depth > 1:
                atom = draw(st.sampled_from("xyz"))
                if draw(st.booleans()):
                    sign = draw(st.sampled_from(("", "-")))
                    # one power in eight lacks its exponent
                    digits = integer() if draw(st.integers(0, 7)) else ""
                    atom += f"{draw(_spaces)}^{draw(_spaces)}{sign}{draw(_spaces)}{digits}"
            else:
                atom = "(" + term(depth + 1) + ")"
            atoms.append(atom)
        out = atoms[0]
        for atom in atoms[1:]:
            op = draw(st.sampled_from(("*", "*", "/")))
            out += f"{draw(_spaces)}{op}{draw(_spaces)}{atom}"
        return out

    terms = [term(0) for _ in range(draw(st.integers(1, 4)))]
    k = draw(st.integers(0, len(terms) - 1))
    special = draw(st.sampled_from((None, None, None, None, None, None, 100, 101, 0)))
    if special == 0:
        terms[k] = "7" * 5000 + "*" + terms[k]
    elif special:
        terms[k] = "(" * special + terms[k] + ")" * special
    text = draw(st.sampled_from(("", "-", "+"))) + terms[0]
    for t in terms[1:]:
        text += f"{draw(_spaces)}{draw(st.sampled_from('+-'))}{draw(_spaces)}{t}"
    if draw(st.sampled_from((False, False, False, True))):
        text = text[: draw(st.integers(0, len(text)))]  # cut anywhere
    return text


def _parse_outcome(parse, text):
    try:
        return parse(text).terms
    except ParseError as exc:
        return exc.position, exc.message


@settings(DETERMINISTIC, max_examples=300)
@given(st.one_of(_parser_text, _well_formed_laurent()))
def test_parse_laurent_matches_the_character_scanner(text):
    assert _parse_outcome(parse_laurent, text) == _parse_outcome(scan_laurent, text)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# Exponents stay in {-1, 0, 1} and terms at most four, so every polytope
# that passes validation is small and each example runs in well under a
# second; malformed values of every kind still reach each field.
_exponents = st.one_of(st.lists(st.integers(-1, 1), min_size=3, max_size=3), _json)
_coefficient = st.one_of(
    st.integers(),
    st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,3})?", fullmatch=True),
    _json,
)
_term = st.one_of(
    st.fixed_dictionaries({"exponents": _exponents, "coefficient": _coefficient}),
    _json,
)
_documents = st.one_of(
    st.fixed_dictionaries({"terms": st.lists(_term, max_size=4)}),
    st.fixed_dictionaries({"terms": _json}),
    _json,
)

_EXIT_CODES = {"CERTIFIED_Q_FACTORIAL": 0, "INCONCLUSIVE": 2, "UNSUPPORTED": 3, "ERROR": 1}


@settings(DETERMINISTIC, max_examples=60)
@given(_documents)
def test_cli_always_writes_a_report(document):
    with tempfile.TemporaryDirectory() as tmp:
        poly, out = Path(tmp) / "poly.json", Path(tmp) / "report.json"
        poly.write_text(json.dumps(document))
        code = run(
            ["check", "--poly", str(poly), "--use-input-coeffs",
             "--format", "json", "--out", str(out)]
        )
        payload = json.loads(out.read_text())
    assert code == _EXIT_CODES[payload["verdict"]]


# Report-shaped values: any text, lone surrogates and the characters JSON
# escapes included; ints, and the strings the report writes from 2^53 on;
# bools and None; lists, tuples and dicts, empty or nested; and sample
# coefficient lists, which the writer spells out one entry at a time.
_report_text = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('"\\\x01\x7f\xe9中\udce9'),
    ),
    max_size=12,
)
_report_ints = st.one_of(
    st.integers(),
    st.integers(2**53 - 2, 2**53 + 2),
    st.sampled_from((str(2**53), str(-(2**53)))),
)
_report_terms = st.lists(
    st.builds(
        lambda e, c: {"exponents": e, "coefficient": c},
        st.lists(_report_ints, min_size=1, max_size=4),
        _report_text,
    ),
    max_size=4,
).map(_Terms)
_report_values = st.recursive(
    st.one_of(_report_text, _report_ints, st.booleans(), st.none(), _report_terms),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_report_text, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(DETERMINISTIC, max_examples=200)
@given(_report_values)
def test_the_json_writer_gives_the_bytes_of_json_dumps(value):
    assert json_writer(value, "") == json.dumps(value, indent=2)
    report = CertificationReport(*[value] * 7)
    assert emit_report(report) == json.dumps(report._asdict(), indent=2) + "\n"
