"""Exact linear algebra, checked against naive Fraction-arithmetic oracles."""

from fractions import Fraction
from math import lcm
from random import Random

import pytest

from oracles import matmul, naive_det, naive_rank, rank_mod_p
from util import random_int_matrix, sparse_rows, toric_of

from qfact import linalg
from qfact.certify import CertificationRequest, certify, sample_coefficients
from qfact.errors import DimensionMismatch
from qfact.jacobian import graded_piece, multiplication_surjective
from qfact.lattice import convex_hull
from qfact.laurent import LaurentPolynomial, homogenize
from qfact.linalg import (
    _PRIME,
    IntMatrix,
    SparseRows,
    rank,
    rank_and_pivot_columns,
    smith_normal_form,
    solve_integer,
    term_rank,
)
from qfact.toric import anticanonical_degree, polytope_degree


# the ends of int64
_MIN64, _MAX64 = -(1 << 63), (1 << 63) - 1


def _as_lists(M: IntMatrix):
    return [list(row) for row in M.entries]


def _check_smith(A: IntMatrix):
    """Full soundness of one decomposition, via the oracles only."""
    dec = smith_normal_form(A)
    assert matmul(matmul(_as_lists(dec.U), _as_lists(A)), _as_lists(dec.V)) == _as_lists(
        dec.D
    )
    assert abs(naive_det(_as_lists(dec.U))) == 1
    assert abs(naive_det(_as_lists(dec.V))) == 1
    identity = [[int(i == j) for j in range(A.nrows)] for i in range(A.nrows)]
    assert matmul(_as_lists(dec.U), _as_lists(dec.U_inverse)) == identity
    for i, row in enumerate(dec.D.entries):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    diag = dec.diagonal
    assert all(d >= 0 for d in diag)
    # a row of U that D leaves zero has a nonnegative entry sum
    for u, d in zip(dec.U.entries, dec.D.entries):
        assert any(d) or sum(u) >= 0
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a and b % a == 0
    assert sum(1 for d in diag if d) == naive_rank(_as_lists(A))
    return dec


def test_smith_identity():
    I = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    dec = smith_normal_form(I)
    assert dec.D == I
    assert dec.diagonal == (1, 1, 1)


def test_smith_diagonal_divisibility_examples():
    # already diagonal but out of chain order: invariant factors reorganize
    assert smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 4]])).diagonal == (2, 4)
    assert smith_normal_form(IntMatrix.from_rows([[4, 0], [0, 6]])).diagonal == (2, 12)
    assert smith_normal_form(IntMatrix.from_rows([[6, 0], [0, 10]])).diagonal == (2, 30)


def test_smith_projective_space_rays():
    # ray matrix of the fan of the standard simplex: full rank, no torsion
    rays = [(-1, -1, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    dec = _check_smith(IntMatrix.from_rows(rays))
    assert dec.diagonal == (1, 1, 1)
    assert dec.U.nrows == 4 and dec.V.nrows == 3


def test_smith_torsion_example():
    # cokernel of 2x scaling is (Z/2)^2
    dec = _check_smith(IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert dec.diagonal == (2, 2)


def test_smith_zero_matrix():
    dec = _check_smith(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
    assert dec.diagonal == (0, 0)


def test_smith_awkward_pivot_progress():
    # remainder loop must make progress when no entry divides the others
    dec = _check_smith(IntMatrix.from_rows([[5, 7], [4, 9]]))
    assert dec.diagonal[0] == 1


def test_smith_random_soundness():
    rng = Random(101)
    for trial in range(200):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        A = IntMatrix.from_rows(random_int_matrix(rng, nrows, ncols))
        _check_smith(A)
    # tall products, of rank below their row count: D has zero rows
    for trial in range(200):
        inner = rng.randint(1, 3)
        A = matmul(random_int_matrix(rng, rng.randint(inner + 1, 7), inner, 3),
                   random_int_matrix(rng, inner, rng.randint(inner, 5), 3))
        _check_smith(IntMatrix.from_rows(A))


def test_smith_deterministic():
    rng = Random(5)
    A = IntMatrix.from_rows(random_int_matrix(rng, 5, 4))
    assert smith_normal_form(A) == smith_normal_form(A)


@pytest.mark.parametrize(
    "A, U, D, V, U_inverse",
    [
        # the least |entry|, 2, at (0, 1) and (1, 0)
        (
            [[3, -2], [2, 5]],
            [[-3, -1], [5, 2]],
            [[1, 0], [0, 19]],
            [[0, 1], [1, 11]],
            [[-2, -1], [5, 3]],
        ),
        # after the first sweeps, 12 twice in one row of the working submatrix
        (
            [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
            [[1, 0, 0], [2, -1, -1], [3, -4, -3]],
            [[2, 0, 0], [0, 6, 0], [0, 0, 12]],
            [[1, -2, 2], [0, 1, -2], [0, 0, 1]],
            [[1, 0, 0], [-3, 3, -1], [5, -4, 1]],
        ),
        # 2 at (0, 1) and -2 at (2, 2): different rows and columns
        (
            [[6, 2, 9], [-4, 8, 5], [7, 5, -2], [3, 10, 4]],
            [[-2, 0, 1, 0], [-1, -1, 0, 1], [-63, -268, -250, 352], [157, 667, 622, -876]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 1, 10], [1, 5, 70], [0, 0, 1]],
            [[2, 16, 209, 84], [8, 36, 525, 211], [5, 32, 418, 168], [10, 53, 734, 295]],
        ),
    ],
)
def test_smith_transforms_with_tied_pivots(A, U, D, V, U_inverse):
    # The pivot is the least |entry|, ties broken by row and then column;
    # another rule gives other (valid) transforms, and other class group
    # coordinates downstream.
    dec = _check_smith(IntMatrix.from_rows(A))
    assert [_as_lists(M) for M in dec] == [U, D, V, U_inverse]


def test_verify_smith_rejects_a_forged_inverse(monkeypatch):
    # The true inverses pass; one wrong entry in either, with U A V = D and
    # the chain still holding, is caught by the unimodularity check alone.
    A = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    seen = []
    real = linalg._verify_smith
    monkeypatch.setattr(linalg, "_verify_smith", lambda *args: seen.append(args))
    smith_normal_form(A)
    ((_, dec, V_inverse),) = seen
    real(A, dec, V_inverse)

    def forged(M):
        rows = _as_lists(M)
        rows[0][0] += 1
        return IntMatrix.from_rows(rows)

    with pytest.raises(AssertionError, match="not unimodular"):
        real(A, dec._replace(U_inverse=forged(dec.U_inverse)), V_inverse)
    with pytest.raises(AssertionError, match="not unimodular"):
        real(A, dec, forged(V_inverse))


def _diagonal_decomposition(diagonal):
    """A = D = diag(diagonal) with U = V = I: every check of
    `_verify_smith` but the chain's passes on it."""
    n = len(diagonal)
    A = IntMatrix.from_rows([[d * (i == j) for j in range(n)] for i, d in enumerate(diagonal)])
    identity = IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])
    return A, linalg.SmithDecomposition(identity, A, identity, identity), identity


def test_verify_smith_rejects_a_forged_chain():
    linalg._verify_smith(*_diagonal_decomposition((2, 6)))
    with pytest.raises(AssertionError, match="divisibility chain violated"):
        linalg._verify_smith(*_diagonal_decomposition((2, 3)))
    with pytest.raises(AssertionError, match="zero invariant factor precedes a nonzero one"):
        linalg._verify_smith(*_diagonal_decomposition((0, 5)))


def test_verify_smith_rejects_a_forged_transform(monkeypatch):
    # Rows 0 and 1 of U swapped, and columns 0 and 1 of U's inverse: U stays
    # unimodular with that inverse, and D keeps its chain, but U A V is D
    # with rows 0 and 1 swapped.
    A = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    seen = []
    real = linalg._verify_smith
    monkeypatch.setattr(linalg, "_verify_smith", lambda *args: seen.append(args))
    smith_normal_form(A)
    ((_, dec, V_inverse),) = seen
    U, Ui = _as_lists(dec.U), _as_lists(dec.U_inverse)
    U[0], U[1] = U[1], U[0]
    for row in Ui:
        row[0], row[1] = row[1], row[0]
    forged = dec._replace(U=IntMatrix.from_rows(U), U_inverse=IntMatrix.from_rows(Ui))
    with pytest.raises(AssertionError, match="UAV != D"):
        real(A, forged, V_inverse)


def test_smith_refuses_a_non_integer_entry():
    with pytest.raises(TypeError):
        smith_normal_form(IntMatrix(((1.5,),)))


def test_rank_examples():
    assert rank(sparse_rows([[1, 0], [0, 1]])) == 2
    assert rank(sparse_rows([[1, 2], [2, 4]])) == 1
    assert rank(sparse_rows([[0, 0], [0, 0]])) == 0
    assert rank(sparse_rows([[3, 2]])) == 1


def _adjacency(rows):
    """The columns of each row's nonzero entries."""
    return [[j for j, x in enumerate(row) if x] for row in rows]


def test_term_rank_examples():
    assert term_rank([], 0) == 0
    assert term_rank([[], []], 2) == 0
    # rank 1, yet two rows can be matched to two columns
    assert term_rank(_adjacency([[1, 2], [2, 4]]), 2) == 2
    assert term_rank(_adjacency([[1, 0], [5, 0], [0, 0]]), 2) == 1
    # the greedy first choice (row 0 to column 0) must be undone
    assert term_rank(_adjacency([[1, 1, 0], [1, 0, 0], [0, 1, 0]]), 3) == 2
    assert term_rank(_adjacency([[1, 1], [1, 0]]), 2) == 2


def _pattern(n, nonzero):
    """Adjacency of n rows with nonzero entries at the (row, column) pairs given."""
    adjacent = [[] for _ in range(n)]
    for i, j in nonzero:
        adjacent[i].append(j)
    return adjacent


def test_term_rank_needs_no_recursion():
    n = 2000
    assert term_rank(_pattern(n, ((i, i) for i in range(n))), n) == n
    # Row i < n - 1 reaches columns n - 2 - i and n - 1 - i, row n - 1 only
    # column 0. The first phase matches row i to column n - 2 - i, so the
    # last row's augmenting path runs back through all n rows.
    stairs = [(i, j) for i in range(n - 1) for j in (n - 2 - i, n - 1 - i)]
    assert term_rank(_pattern(n, stairs + [(n - 1, 0)]), n) == n


def test_rank_agreement_random():
    rng = Random(303)
    for trial in range(200):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = random_int_matrix(rng, nrows, ncols)
        assert rank(sparse_rows(rows)) == naive_rank(rows)
    # a few larger ones; low-rank products stress the pivoting
    for trial in range(8):
        left = random_int_matrix(rng, 20, 3)
        right = random_int_matrix(rng, 3, 25)
        rows = matmul(left, right)
        assert rank(sparse_rows(rows)) == naive_rank(rows)


def test_rank_invariances():
    rng = Random(404)
    for _ in range(30):
        rows = random_int_matrix(rng, rng.randint(2, 6), rng.randint(2, 6))
        A = sparse_rows(rows)
        r = rank(A)
        assert r <= min(A.nrows, A.ncols)
        assert rank(sparse_rows(tuple(zip(*rows)))) == r
        assert rank(sparse_rows(rows + [rows[0]])) == r
        scaled = [[7 * x for x in rows[0]]] + rows[1:]
        assert rank(sparse_rows(scaled)) == r
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank(sparse_rows(shuffled)) == r


def test_pivot_columns_span_the_rank():
    rng = Random(606)
    for _ in range(60):
        rows = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        A = IntMatrix.from_rows(rows)
        r, pivots = rank_and_pivot_columns(A)
        assert r == naive_rank(rows)
        assert len(pivots) == r
        assert all(0 <= j < A.ncols for j in pivots)
        sub = [[row[j] for j in pivots] for row in rows]
        assert naive_rank(sub) == r


def test_pivot_columns_example():
    r, pivots = rank_and_pivot_columns(IntMatrix.from_rows([[0, 1, 0], [0, 0, 2]]))
    assert r == 2
    assert pivots == (1, 2)


def test_pivot_columns_are_the_first_that_span_the_columns():
    # Pivoting on the entry of least absolute value would lead with the 1 in
    # column 1 and give (1, 2); column 0 already spans what column 1 adds.
    A = IntMatrix.from_rows([[3, 1, 2], [6, 2, 5]])
    assert rank_and_pivot_columns(A) == (2, (0, 2))


def test_rank_survives_an_unlucky_prime():
    # rank 2 over Q, rank 1 mod the prime: the peel settles the first with
    # no prime (both rows are singletons); in the second nothing peels, the
    # certificate fails and the integer elimination decides
    assert rank(sparse_rows(((_PRIME, 0), (0, 1)))) == 2
    assert rank(sparse_rows(((_PRIME, 2 * _PRIME), (1, 2)))) == 1


def _count_bareiss(monkeypatch):
    calls = []
    original = linalg._echelon

    def counting(rows, ncols):
        calls.append((len(rows), ncols))
        return original(rows, ncols)

    monkeypatch.setattr(linalg, "_echelon", counting)
    return calls


def _setup(vertices):
    P = convex_hull(vertices)
    T = toric_of(P)
    beta, beta0 = polytope_degree(T, P), anticanonical_degree(T)
    return P, T, beta, beta0


def test_full_rank_is_certified_mod_p(monkeypatch):
    P, T, beta, beta0 = _setup([(0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 5)])
    f = homogenize(sample_coefficients(P, 0, 10), P, T)
    calls = _count_bareiss(monkeypatch)
    top = graded_piece(f, T, beta + beta - beta0)
    assert top.jacobian_rank == min(top.jacobian_rows.nrows, top.s_dimension)
    assert calls == []


def test_rank_deficiency_is_settled_by_euler_syzygies(monkeypatch):
    # Class rank 3: the Euler relations among the partials bound each
    # rank-deficient piece from above, and the mod-p rank meets the bound.
    cube = [(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)]
    P, T, beta, beta0 = _setup(cube)
    f = homogenize(sample_coefficients(P, 0, 10), P, T)
    calls = _count_bareiss(monkeypatch)
    verdict = multiplication_surjective(f, T)
    assert verdict.surjective
    top = verdict.pieces[2]
    distinct = len(set(top.jacobian_rows.entries))
    assert top.jacobian_rank < min(distinct, top.s_dimension)
    assert calls == []


def test_a_rank_short_of_min_nrows_ncols_goes_to_bareiss(monkeypatch):
    # rank 1 below the bound 2: the mod-p rank cannot certify it
    calls = _count_bareiss(monkeypatch)
    assert rank(sparse_rows(((1, 2), (2, 4), (3, 6)))) == 1
    assert calls == [(3, 2)]


def test_repeated_rows_are_dropped_before_the_bound(monkeypatch):
    # Two distinct rows of three entries each in three columns: nothing
    # peels. Kept, the repeat would make the bound 3, which the mod-p rank 2
    # misses; dropped, the bound is 2 and the mod-p rank settles it.
    calls = _count_bareiss(monkeypatch)
    assert rank(sparse_rows(((1, 1, 1), (1, 2, 3), (1, 1, 1)))) == 2
    assert calls == []


def test_rank_of_a_tall_matrix_survives_an_unlucky_prime(monkeypatch):
    # rank 2 over Q and bound 2, but rank 1 mod the prime. The first matrix
    # has two singleton rows, so the peel settles it with no prime; in the
    # second every row and column has two entries or more, nothing peels,
    # and the integer elimination decides.
    calls = _count_bareiss(monkeypatch)
    assert rank(sparse_rows(((_PRIME, 0), (0, 1), (_PRIME, 1)))) == 2
    assert calls == []
    assert rank(sparse_rows(((_PRIME, 1), (2 * _PRIME, 2), (_PRIME, 2)))) == 2
    assert calls == [(3, 2)]


def test_empty_matrices_have_rank_0():
    assert rank(sparse_rows(((1, 2), (2, 4), (3, 6)))) == 1
    assert rank(sparse_rows(((), ()))) == 0
    assert rank(sparse_rows(())) == 0


def _spy_on_packing(monkeypatch):
    shapes = []
    original = linalg._rank_mod_p

    def spying(rows, ncols, bound):
        shapes.append((len(rows), ncols))
        return original(rows, ncols, bound)

    monkeypatch.setattr(linalg, "_rank_mod_p", spying)
    return shapes


def test_the_peel_ranks_vertex_only_simplices_with_no_prime(monkeypatch):
    # Each partial of the vertex member of kΔ is one term, so every Jacobian
    # row is a singleton: the rank is the number of columns the rows meet,
    # and nothing is packed.
    shapes = _spy_on_packing(monkeypatch)
    for k in (7, 12):
        P, T, beta, beta0 = _setup([(0, 0, 0), (k, 0, 0), (0, k, 0), (0, 0, k)])
        report = certify(CertificationRequest(source_vertices=P.vertices))
        assert report.verdict == "CERTIFIED_Q_FACTORIAL"
        assert report.sample["source"] == "vertices"
        F = LaurentPolynomial.from_terms([(v, 1 + i) for i, v in enumerate(P.vertices)])
        top = graded_piece(homogenize(F, P, T), T, beta + beta - beta0)
        assert top.jacobian_rank == len({cols for cols, _ in top.rows.rows})
    assert shapes == []


def test_the_peel_leaves_the_box_cores(monkeypatch):
    # The vertex member of [0,a]^3 has 4 terms a partial, and no row is a
    # singleton; the columns that the Euler relations leave in one row start
    # the peel. The top pieces, 56 x 125 and 352 x 729 as ranked, leave cores
    # of 24 x 48 and 96 x 192, the only matrices packed.
    shapes = _spy_on_packing(monkeypatch)
    for a, core in ((3, (24, 48)), (5, (96, 192))):
        shapes.clear()
        box = [(x, y, z) for x in (0, a) for y in (0, a) for z in (0, a)]
        report = certify(CertificationRequest(source_vertices=box))
        assert report.verdict == "CERTIFIED_Q_FACTORIAL"
        assert report.sample["source"] == "vertices"
        assert shapes == [core]


def test_an_entry_outside_int64_is_packed_in_one_call(monkeypatch):
    # Every row and column has two entries, so nothing peels, and the core
    # is ranked mod p in one call whatever the size of its entries.
    shapes = _spy_on_packing(monkeypatch)
    assert rank(sparse_rows(((1 << 64, 1), (1, 1 << 64)))) == 2
    assert shapes == [(2, 2)]


class _Counted(int):
    """An int that records each reduction it takes."""

    seen = []

    def __mod__(self, other):
        self.seen.append(int(self))
        return int(self) % other


def test_rows_that_share_a_values_tuple_reduce_it_once(monkeypatch):
    # 40 rows of one partial: the same 3 values outside int64, at columns
    # k + (0, 1, 3) and k + (0, 5, 11) mod 20. Every column meets 6 rows,
    # so nothing peels; the tuple is reduced once, not once per cell.
    monkeypatch.setattr(_Counted, "seen", [])
    values = tuple(_Counted(x) for x in (3 << 70, -(5 << 80) + 1, (1 << 63) + 7))
    rows = [
        (tuple(sorted((k + o) % 20 for o in offsets)), values)
        for offsets in ((0, 1, 3), (0, 5, 11))
        for k in range(20)
    ]
    assert rank(SparseRows(tuple(rows), 20)) == 20
    assert _Counted.seen == list(values)
    dense = [[int(x) for x in row] for row in SparseRows(tuple(rows), 20).dense().entries]
    assert naive_rank(dense) == 20


def test_rank_sees_a_miss_by_one_among_60_bit_entries():
    big = (1 << 60) - 93
    rows = ((big, 1, 2), (big - 1, 1, 3), (2 * big - 1, 2, 5))
    assert rank(sparse_rows(rows)) == 2
    off = rows[:2] + ((2 * big, 2, 5),)
    assert rank(sparse_rows(off)) == 3


def test_rank_of_rows_that_combine_to_a_multiple_of_a_slot():
    # (1, 0) and (0, 64) combine to (1, -256) under (1, -4), and (1, 0)
    # and 512 rows (0, -2**63) to (1, -2**72) under (1, ..., 1): multiples
    # of 2**8 and 2**72, the size of a slot, in the second column. Every
    # values tuple is reduced mod p before it is packed, so no slot holds
    # them. The peel settles rows of one entry, so `_rank_mod_p` is called
    # directly as well as through `rank`.
    for M in (((1, 0), (0, 64)), ((1, 0),) + ((0, _MIN64),) * 512):
        assert rank(sparse_rows(M)) == 2
        assert linalg._rank_mod_p(*sparse_rows(M, 2), 2) == rank_mod_p(M, 2) == 2


def _worst_folder(size, nslots):
    """A stand-in for `linalg._slot_folder` that returns each slot's largest
    allowed value, x mod p + p, below 2p but as far above p as it can be."""
    p = _PRIME

    def fold(v):
        data = v.to_bytes(size * nslots, "big")
        xs = [int.from_bytes(data[k : k + size], "big") for k in range(0, len(data), size)]
        return int.from_bytes(b"".join((x % p + p).to_bytes(size, "big") for x in xs), "big")

    return fold


def _chain(rng, nrows, ncols, dependent=16):
    """Rows that every pivot updates by a multiplier near p - 1.

    Row i is the sum of the first i + 1 rows of an upper triangular matrix
    with entries just below p, so at column k each remaining row's top
    entry is the pivot's (the multiplier is -1 mod p). The last `dependent`
    rows, and all rows past ncols, are the last independent row plus an
    earlier row, so that every pivot updates them and they must end at
    zero: a carry between slots would leave them nonzero and raise the rank.
    """
    indep = min(nrows - dependent, ncols)
    rows, acc = [], [0] * ncols
    for k in range(indep):
        acc = [a + (_PRIME - rng.randint(1, 3) if j >= k else 0) for j, a in enumerate(acc)]
        rows.append(acc)
    for i in range(indep, nrows):
        rows.append([a + b for a, b in zip(rows[indep - 1], rng.choice(rows))])
    return rows


@pytest.mark.parametrize(
    "nrows, ncols",
    [(255, 64), (256, 64), (257, 260), (600, 40), (255, 260), (256, 260)]
    + [(1023, 12), (1024, 12), (1025, 12), (2048, 12), (2049, 12)],
)
def test_packed_elimination_at_its_largest_slot_growth(monkeypatch, nrows, ncols):
    # Dense residues near p. Slots hold 2 * nrows * p**2: 9 bytes up to
    # 2048 rows and 10 bytes from 2049 (`linalg._slot_size`); 255,
    # 256 and 257, and 1023, 1024 and 1025 rows straddle the steps of
    # bitlen(nrows) that sized them by an older rule. At 257 x 260 the last 16 rows, sums of two earlier ones, take
    # an update from each of the 241 pivots; a carry between slots would
    # leave them nonzero and raise the rank. The list oracle's cubic time
    # keeps the other cases narrow.
    rng = Random(nrows)
    rows = [[_PRIME - rng.randint(1, 99) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows - 16, nrows):
        rows[i] = [a + b for a, b in zip(rng.choice(rows[:i]), rng.choice(rows[:i]))]
    for M in (rows, [list(col) for col in zip(*rows)]):
        bound = min(len(M), len(M[0]))
        assert linalg._rank_mod_p(*sparse_rows(M), bound) == rank_mod_p(M, len(M[0]))
    # The slot bound's worst case: multipliers p - 1 and p - 2 times pivot
    # tails folded to their largest representative, below 2p, on rows that
    # take an update from every pivot (up to nrows - 16 of them).
    chain = _chain(rng, nrows, ncols)
    expected = rank_mod_p(chain, ncols)
    assert linalg._rank_mod_p(*sparse_rows(chain, ncols), min(nrows, ncols)) == expected
    # Negated, the entries reduce to residues p - x, near 0, and take the
    # same updates.
    negated = [[-x for x in row] for row in chain]
    assert linalg._rank_mod_p(*sparse_rows(negated, ncols), min(nrows, ncols)) == expected
    monkeypatch.setattr(linalg, "_slot_folder", _worst_folder)
    assert linalg._rank_mod_p(*sparse_rows(chain, ncols), min(nrows, ncols)) == expected
    assert linalg._rank_mod_p(*sparse_rows(negated, ncols), min(nrows, ncols)) == expected


@pytest.mark.parametrize("nrows", [8, 9])
def test_packed_elimination_at_the_8_byte_slot_step(monkeypatch, nrows):
    # 8 rows get 8-byte slots, and 9 rows 9-byte ones. The last row takes
    # an update from each of the other nrows - 1 rows, with tails folded to
    # their largest representative: the slot bound's worst case.
    chain = _chain(Random(nrows), nrows, nrows, dependent=1)
    monkeypatch.setattr(linalg, "_slot_folder", _worst_folder)
    assert linalg._rank_mod_p(*sparse_rows(chain, nrows), nrows) == nrows - 1
    assert rank_mod_p(chain, nrows) == nrows - 1


@pytest.mark.parametrize("nrows", [2, 600, 4096])
def test_slot_folder_brings_every_slot_below_2p(nrows):
    # Slots of 8, 9 and 10 bytes, as an older rule sized them for nrows
    # rows from bit lengths, and as `_rank_mod_p` sizes them now from
    # 2 * nrows * p**2, the bound on the slots of an elimination of nrows
    # rows. Each packed vector must come back below 2p and congruent mod p
    # slot by slot; a slot left at 2p or above, or a bit that leaked into or
    # out of a neighbour, would show as a mismatch.
    p = _PRIME
    rng = Random(nrows)
    older = (2 * p.bit_length() + nrows.bit_length() + 8) // 8
    for size in (older, linalg._slot_size(nrows)):
        top = (1 << 8 * size) - 1
        edges = [0, 1, p - 1, p, 2 * p - 1, 2 * p, (1 << 30) - 1, 600 * p * p - 1]
        edges += [nrows * p * p - 1, 2 * nrows * p * p - 1]
        edges += [(1 << 63) + p - 1, (1 << 64) + 2 * nrows * p * p - 1]
        edges = [x for x in edges if x <= top] + [top]
        vectors = [
            edges,
            edges[::-1],
            [0, top] * 8,
            [top, 0] * 8 + [top],
            [top] * 9,
            [rng.randrange(2 * nrows * p * p) for _ in range(40)],
            [rng.getrandbits(8 * size) for _ in range(40)],
            [rng.randrange(min(top, (1 << 64) + 2 * nrows * p * p)) for _ in range(40)],
        ]
        for xs in vectors:
            fold = linalg._slot_folder(size, len(xs))
            v = int.from_bytes(b"".join(x.to_bytes(size, "big") for x in xs), "big")
            data = fold(v).to_bytes(size * len(xs), "big")
            out = [int.from_bytes(data[k : k + size], "big") for k in range(0, len(data), size)]
            assert all(y < 2 * p for y in out)
            assert [y % p for y in out] == [x % p for x in xs]


@pytest.mark.parametrize(
    "rows, ncols, expected",
    [
        # the update leaves exactly p in row 1's slots: masked, never a pivot
        ([[1, 1], [1, 1]], 2, 1),
        ([[1, 1, 1], [1, 1, 1], [2, 2, 3]], 3, 2),
        # all-zero columns between the pivots
        ([[0, 2, 0, 0, 5, 0], [0, 4, 0, 0, 7, 0], [0, 0, 0, 0, 0, 3]], 6, 3),
        ([[0, 0, 0], [0, 0, 0]], 3, 0),
        # rows congruent to 0 mod p at the top of the bucket, before its pivot
        ([[_PRIME, 1, 0], [2 * _PRIME, 0, 1], [3, 1, 1]], 3, 3),
        ([[_PRIME, 1], [-_PRIME, 1], [5, 0]], 2, 2),
        # 1 x n and n x 1
        ([[0, 0, _PRIME, 0, 7]], 5, 1),
        ([[_PRIME, 0, 2 * _PRIME]], 3, 0),
        ([[0], [_PRIME], [3], [6]], 1, 1),
        ([[0], [_PRIME]], 1, 0),
        ([], 4, 0),
    ],
)
def test_packed_elimination_small_cases(rows, ncols, expected):
    assert rank_mod_p(rows, ncols) == expected
    assert linalg._rank_mod_p(*sparse_rows(rows, ncols), min(len(rows), ncols)) == expected


def test_rank_mod_p_reduces_entries_of_any_size_and_sign():
    # Every values tuple is reduced mod p before its rows pack, whatever
    # the size of its entries: entries at or above p, nonzero multiples of
    # p, negative entries, entries at either end of int64 and just outside
    # it, and entries near 2**80 must all land on their residues. The
    # random rows have rank r mod p and full rank over Z, so an entry
    # reduced wrong shows as a rank above r.
    p = _PRIME
    big = 1 << 80
    rng = Random(83)
    multiples = [0, 1, 2, -1, -3, big // p, -(big // p)]
    for nrows, ncols, r in ((6, 6, 3), (9, 5, 4), (5, 9, 2), (12, 12, 7)):
        left = [[rng.randrange(p) for _ in range(r)] for _ in range(nrows)]
        right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(r)]
        rows = [[x % p + rng.choice(multiples) * p for x in row] for row in matmul(left, right)]
        # row 0: nonzero multiples of p, so zero mod p
        rows[0] = [rng.choice(multiples[1:]) * p for _ in range(ncols)]
        bound = min(len(rows), ncols)
        assert linalg._rank_mod_p(*sparse_rows(rows, ncols), bound) == rank_mod_p(rows, ncols) == r
        assert naive_rank(rows) == min(nrows, ncols)
    for rows, ncols, expected in [
        ([[p, 2 * p, -p], [big * p, -3 * p, 0]], 3, 0),
        ([[1, big], [1 + p, big - 5 * p]], 2, 1),
        ([[-1, big + 1], [p - 1, big + 1 + p], [big, -big]], 2, 2),
        ([[_MIN64, _MAX64], [_MIN64 + p, _MAX64 - 2 * p]], 2, 1),
        ([[_MIN64, _MAX64], [_MAX64, _MIN64], [-1, 1]], 2, 2),
        ([[_MIN64 - 1, _MAX64 + 1], [_MIN64 - 1 + p, _MAX64 + 1 - p]], 2, 1),
        ([[_MAX64 + 1, 0], [0, _MIN64 - 1], [_MAX64 + 1, _MIN64 - 1]], 2, 2),
    ]:
        assert rank_mod_p(rows, ncols) == expected
        assert linalg._rank_mod_p(*sparse_rows(rows, ncols), min(len(rows), ncols)) == expected


@pytest.mark.parametrize(
    "rows, ncols, bound, expected",
    [
        # dependent rows wait in later buckets when the bound is met
        ([[1, 2, 3], [0, 1, 1], [1, 3, 4], [2, 5, 7]], 3, 2, 2),
        ([[1, 2, 3], [0, 1, 1], [1, 3, 4], [2, 5, 7]], 3, 3, 2),
        # rows congruent to 0 mod p but not 0, and a zero row, left behind
        ([[0, 1, 0], [_PRIME, 1, 2 * _PRIME], [0, 0, 0], [1, 0, 1]], 3, 2, 2),
        ([[0, 1, 0], [_PRIME, 1, 2 * _PRIME], [0, 0, 0], [1, 0, 1]], 3, 3, 2),
        # the bound is met at the first pivot of a bucket of four rows
        ([[5, 1], [5, 2], [10, 3], [1, 1]], 2, 1, 1),
        ([[5, 1], [5, 2], [10, 3], [1, 1]], 2, 2, 2),
        # bound 0, and a bound met only in the last column
        ([[1, 1], [2, 2]], 2, 0, 0),
        ([[0, 0, 1], [0, 0, 2], [0, 0, 3]], 3, 1, 1),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, 3, 3),
    ],
)
def test_packed_elimination_stops_at_its_bound(monkeypatch, rows, ncols, bound, expected):
    # The rank mod p, or `bound` as soon as the elimination reaches it: no
    # pivot tail is folded for the rows that remain once it does.
    assert min(rank_mod_p(rows, ncols), bound) == expected
    folds = []
    original = linalg._slot_folder

    def counting(size, nslots):
        fold = original(size, nslots)
        return lambda v: folds.append(v) or fold(v)

    monkeypatch.setattr(linalg, "_slot_folder", counting)
    assert linalg._rank_mod_p(*sparse_rows(rows, ncols), bound) == expected
    # each pivot folds its tail at most once, and one that meets the bound never
    assert len(folds) <= expected - (0 < expected == bound)


def test_rank_is_exact_on_entries_of_any_size_and_sign():
    # The third row is the sum of the first two. Moved by p or by 2**80 in
    # one entry, it still is mod p or mod 2**80, but not over Z: the rank
    # must see the miss.
    p = _PRIME
    big = 1 << 80
    r1, r2 = [p, -big, 3 * p - 1, -7], [big * p, 2 * p, -p - 2, big + 3]
    r3 = [a + b for a, b in zip(r1, r2)]
    assert rank(sparse_rows([r1, r2, r3])) == 2
    for shift in (p, -p, big, big * p):
        moved = [r3[0], r3[1] + shift, r3[2], r3[3]]
        assert rank(sparse_rows([r1, r2, moved])) == 3
    # Entries at the ends of int64 and just outside it: all are reduced
    # mod p before they pack.
    for lo, hi in ((_MIN64, _MAX64), (_MIN64 - 1, _MAX64 + 1)):
        r1, r2 = [lo, hi, 0], [hi, lo, -1]
        r3 = [a + b for a, b in zip(r1, r2)]
        assert rank(sparse_rows([r1, r2, r3])) == 2
        for j in range(3):
            moved = [x + (i == j) for i, x in enumerate(r3)]
            assert rank(sparse_rows([r1, r2, moved])) == 3


def test_graded_piece_clears_denominators():
    # p/q coefficients and their lcm-scaled integer copy span one ideal
    P, T, beta, beta0 = _setup([(0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 1, 3)])
    rng = Random(17)
    F = LaurentPolynomial.from_terms(
        (m, Fraction(c, rng.randint(1, 12)))
        for m, c in sample_coefficients(P, 3, 10).terms
    )
    k = lcm(*(c.denominator for _, c in F.terms))
    scaled = LaurentPolynomial.from_terms((e, k * c) for e, c in F.terms)
    assert all(c.denominator == 1 for _, c in scaled.terms)
    f, g = homogenize(F, P, T), homogenize(scaled, P, T)
    for gamma in (beta, beta - beta0, beta + beta - beta0):
        a, b = graded_piece(f, T, gamma), graded_piece(g, T, gamma)
        assert a.jacobian_rank == b.jacobian_rank
        assert a.jacobian_rank == naive_rank(a.jacobian_rows.entries)


def test_solve_integer_examples():
    I = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert solve_integer(I, (5, -2, 7)) == (5, -2, 7)
    assert solve_integer(IntMatrix.from_rows([[2]]), (3,)) is None
    assert solve_integer(IntMatrix.from_rows([[2, 0], [0, 2]]), (1, 0)) is None
    assert solve_integer(IntMatrix.from_rows([[2, 3]]), (1,)) is not None


def test_solve_integer_random_round_trip():
    rng = Random(808)
    for _ in range(60):
        A = IntMatrix.from_rows(
            random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        )
        x0 = tuple(rng.randint(-5, 5) for _ in range(A.ncols))
        b = A.mul_vector(x0)
        x = solve_integer(A, b)
        assert x is not None
        assert A.mul_vector(x) == b


def test_solve_integer_refuses_a_non_integer_right_hand_side():
    # read as 2, 5/2 would be solved by x = 1
    with pytest.raises(TypeError):
        solve_integer(IntMatrix.from_rows([[2]]), [Fraction(5, 2)])


def test_solve_integer_unsolvable_off_image():
    # column space is the even sublattice in the first coordinate
    A = IntMatrix.from_rows([[2, 4], [0, 0]])
    assert solve_integer(A, (1, 0)) is None
    assert solve_integer(A, (0, 1)) is None
    x = solve_integer(A, (6, 0))
    assert x is not None and A.mul_vector(x) == (6, 0)


def test_shape_guards():
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2], [3]])
    A = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(DimensionMismatch):
        A.mul(A)
    with pytest.raises(DimensionMismatch):
        A.mul_vector((1, 2, 3))
    with pytest.raises(DimensionMismatch):
        solve_integer(A, (1, 2))


def test_matrix_basics():
    A = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert A.nrows == 2 and A.ncols == 3


def test_from_rows_rejects_non_integer_entries():
    for entry in (Fraction(1, 2), Fraction(3), 2.7, 3.0, "3"):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1, entry]])
