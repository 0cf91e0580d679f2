"""Exact integer matrix algebra: Smith normal forms, ranks, term ranks,
integer solves.

Everything here is exact: entries are Python's arbitrary-precision ints,
and floating point is never used. A rational matrix has the rank of its
rows scaled by their denominators' lcm, so callers clear denominators
first (as `jacobian.graded_piece` does).

A rank is taken in two steps: peel, then pack. The peel (`_peel`) works on
the nonzero entries alone (`SparseRows`), so a row costs its nonzeros, not
ncols. It removes a row and a column together wherever the column meets
one row, or the row has one column; each removal adds exactly 1 to the
rank, over the integers and with no prime. This is the 1 x 1 part of the
Dulmage-Mendelsohn form, and the first step of structured Gaussian
elimination (LaMacchia and Odlyzko, CRYPTO '90).

The core that is left is ranked modulo the prime `_PRIME`. Rank mod p never
exceeds rank over Q, which never exceeds min(nrows, ncols). So a mod-p rank
that meets this bound is the exact rank, and only a core that misses it is
eliminated again over the integers, by `_echelon`: the one fraction-free
elimination here, which also gives the pivot columns. Callers that know
rows to be dependent leave them out first (as `jacobian.graded_piece`
does), so that the bound can be met.

Each core row is packed once, by `struct`, into one int with a slot per
column, each slot holding the entry's residue mod p behind zero pad bytes.
The rows of one Jacobian partial share one values tuple, so each distinct
tuple is reduced mod p once. A row operation then costs one big-int
multiply-add, not a Python loop over cells. Slots are sized from the exact
bound of that elimination. Rows wait in buckets by leading slot, so a
pivot touches only the rows it changes, and it is only folded below 2p,
never scaled. The elimination stops as soon as its rank meets the bound
above. Entries of any size reduce to residues, so every row packs.
"""

from __future__ import annotations

import struct
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import chain
from operator import index, mul

from .errors import DimensionMismatch

# The largest prime below 2**30, so every residue fits in one CPython digit.
_PRIME = 1073741789


class IntMatrix(namedtuple("IntMatrix", "entries")):
    """Dense matrix over the integers, stored as a tuple of row tuples."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, ...], ...]):
        if len(set(map(len, entries))) > 1:
            raise DimensionMismatch("ragged rows in integer matrix")
        return super().__new__(cls, entries)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check its result too
        return cls(*iterable)

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        """Matrix from integer rows; a non-integer entry raises TypeError."""
        return cls(tuple([tuple(map(index, row)) for row in rows]))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else self

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product shape mismatch")
        cols = other.transpose().entries
        return IntMatrix(
            tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in self.entries])
        )

    def mul_vector(self, v) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise DimensionMismatch("matrix-vector shape mismatch")
        return tuple([sum(map(mul, row, v)) for row in self.entries])


class SparseRows(namedtuple("SparseRows", "rows ncols")):
    """Integer matrix with ncols columns by its nonzero entries: each row is
    a pair (columns, values) of equal-length tuples, columns increasing and
    values nonzero. Rows may share one values tuple."""

    __slots__ = ()

    @classmethod
    def of(cls, A: IntMatrix) -> "SparseRows":
        """The nonzero entries of A; a non-integer entry raises TypeError."""
        rows = []
        for row in A.entries:
            row = list(map(index, row))
            cols = tuple([j for j, x in enumerate(row) if x])
            rows.append((cols, tuple([row[j] for j in cols])))
        return cls(tuple(rows), A.ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def dense(self) -> IntMatrix:
        return IntMatrix(tuple([tuple(_scatter(row, self.ncols)) for row in self.rows]))


def _scatter(row, ncols: int) -> list[int]:
    """The dense list of a (columns, values) row."""
    cols, values = row
    out = [0] * ncols
    for c, x in zip(cols, values):
        out[c] = x
    return out


class SmithDecomposition(namedtuple("SmithDecomposition", "U D V U_inverse")):
    """Unimodular U, V and diagonal D with U * A * V = D and d1 | d2 | ...,
    plus the inverse of U. All four are IntMatrix.

    `diagonal` lists the invariant factors (nonnegative), padded with zeros
    up to min(nrows, ncols) of the original matrix.
    """

    __slots__ = ()

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.D.nrows, self.D.ncols)
        return tuple(self.D.entries[i][i] for i in range(n))


def _pivot_min_abs(M, k, nrows, ncols):
    """Nonzero entry of M[k:, k:] of least absolute value; ties by (row, col).
    The pivot rule of `smith_normal_form`.

    Minimality of the pivot is what makes the remainder loop in
    `smith_normal_form` terminate: any nonzero remainder it produces is
    strictly smaller in absolute value than the current minimum.
    """
    best = None
    where = None
    for i in range(k, nrows):
        row = M[i]
        for j in range(k, ncols):
            x = row[j]
            if x:
                a = -x if x < 0 else x
                if best is None or a < best:
                    best = a
                    where = (i, j)
                    if a == 1:
                        return where
    return where


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: U * A * V = D, d1 | d2 | ...

    Deterministic: the pivot is always the nonzero entry of the working
    submatrix with the least absolute value, ties broken by (row, col).
    Each step is one of two operations on a pair of lines with a 2 x 2
    matrix of determinant +-1: `rows` acts on the rows of D and U and
    undoes itself on the columns of U's inverse, `cols` acts on the columns
    of D and V and undoes itself on the rows of V's inverse. Swaps, both
    remainder sweeps, the divisibility fold and the signs are all made so.

    Signs: each d_i ends nonnegative, and each row of U that D leaves zero
    ends with a nonnegative entry sum (negating such a row keeps U A V = D,
    as that row of U A is zero). The result is verified by multiplication.
    """
    r, c = A.nrows, A.ncols
    D = [list(row) for row in A.entries]
    U, Ui = _identity(r), _identity(r)
    V, Vi = _identity(c), _identity(c)

    # rows i, j become a x_i + b x_j and g x_i + h x_j (i == j with
    # (-1, 0, 0, -1) negates row i); likewise columns in `cols`
    def rows(i, j, a, b, g, h):
        e = a * h - b * g
        for M in (D, U):
            M[i], M[j] = _mix(M[i], M[j], a, b), _mix(M[i], M[j], g, h)
        for row in Ui:
            row[i], row[j] = e * (h * row[i] - g * row[j]), e * (a * row[j] - b * row[i])

    def cols(i, j, a, b, g, h):
        e = a * h - b * g
        for M in (D, V):
            for row in M:
                row[i], row[j] = a * row[i] + b * row[j], g * row[i] + h * row[j]
        Vi[i], Vi[j] = _mix(Vi[i], Vi[j], e * h, -e * g), _mix(Vi[i], Vi[j], -e * b, e * a)

    for k in range(min(r, c)):
        while piv := _pivot_min_abs(D, k, r, c):
            i0, j0 = piv
            if i0 != k:
                rows(k, i0, 0, 1, 1, 0)
            if j0 != k:
                cols(k, j0, 0, 1, 1, 0)
            # Reduce the pivot column, then the pivot row.  If any remainder
            # survives, a smaller pivot now exists and we start over.
            p = D[k][k]
            for i in range(k + 1, r):
                if q := D[i][k] // p:
                    rows(i, k, 1, -q, 0, 1)
            if any(D[i][k] for i in range(k + 1, r)):
                continue
            for j in range(k + 1, c):
                if q := D[k][j] // p:
                    cols(j, k, 1, -q, 0, 1)
            if any(D[k][k + 1 :]):
                continue
            # Pivot must divide the entire remaining submatrix for the
            # divisibility chain; if not, fold the offending row in and redo.
            offender = next(
                (i for i in range(k + 1, r) if any(x % p for x in D[i][k + 1 :])), None
            )
            if offender is None:
                break
            rows(k, offender, 1, 1, 0, 1)

    # D is diagonal: sum(D[i]) is d_i, or 0 on a row that D leaves zero
    for i in range(r):
        if (sum(D[i]) or sum(U[i])) < 0:
            rows(i, i, -1, 0, 0, -1)

    dec = SmithDecomposition(
        U=IntMatrix.from_rows(U),
        D=IntMatrix.from_rows(D),
        V=IntMatrix.from_rows(V),
        U_inverse=IntMatrix.from_rows(Ui),
    )
    _verify_smith(A, dec, IntMatrix.from_rows(Vi))
    return dec


def _mix(x, y, a, b):
    """The row a x + b y: y itself in a swap and for the row a sweep keeps."""
    if (a, b) == (0, 1):
        return y
    return [a * s + b * t for s, t in zip(x, y)]


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _verify_smith(A: IntMatrix, dec: SmithDecomposition, V_inverse: IntMatrix):
    """Check U * A * V = D, the divisibility chain, and that U and V are
    unimodular: an integer matrix with an integer inverse has determinant
    +-1, so U * Ui = I and V * Vi = I settle it without an elimination."""
    prod = dec.U.mul(A).mul(dec.V)
    if prod != dec.D:
        raise AssertionError("Smith decomposition failed verification: UAV != D")
    for M, inverse in ((dec.U, dec.U_inverse), (dec.V, V_inverse)):
        if M.mul(inverse) != IntMatrix.from_rows(_identity(M.nrows)):
            raise AssertionError("Smith transform is not unimodular")
    d = dec.diagonal
    for a, b in zip(d, d[1:]):
        if a == 0 and b != 0:
            raise AssertionError("zero invariant factor precedes a nonzero one")
        if a and b % a:
            raise AssertionError("divisibility chain violated")


def _echelon(rows, ncols: int) -> list[tuple[int, ...]]:
    """Rows of a fraction-free echelon form of an integer matrix: they span
    its rows over Q, and their leads (first nonzero entries) are at strictly
    increasing columns. At each column the first remaining row nonzero there
    leads, and every other remaining row w becomes (lead_t w - w_t lead) / l,
    l the previous lead's entry (1 at first). The division is exact: each
    entry is a minor of the matrix (Bareiss, Math. Comp. 22, 1968).

    Remaining rows are zero left of column t, so a step updates only the
    columns right of t, and a row that becomes zero is dropped."""
    rest, leads, last = [w for w in map(tuple, rows) if any(w)], [], 1
    for t in range(ncols):
        if lead := next((w for w in rest if w[t]), None):
            rest.remove(lead)
            a, tail, zeros = lead[t], lead[t + 1 :], (0,) * (t + 1)
            # every row is updated, even where w_t == 0, so that the next
            # division stays exact
            rest = [
                zeros + v
                for w in rest
                if any(v := tuple([(a * x - w[t] * y) // last for x, y in zip(w[t + 1 :], tail)]))
            ]
            leads.append(lead)
            last = a
    return leads


# p = 2**_LOW - _FOLD, so 2**_LOW is congruent to _FOLD mod p.
_LOW = 30
_FOLD = (1 << _LOW) - _PRIME


def _ones(size: int, nslots: int) -> int:
    """1 in the lowest bit of each of `nslots` slots of `size` bytes."""
    return int.from_bytes((1).to_bytes(size, "big") * nslots, "big")


def _slot_folder(size: int, nslots: int):
    """The map sending each of the `nslots` slots of `size` bytes of a
    packed int to a value below 2p congruent to it mod p, by folds
    x -> lo + _FOLD * hi, with lo the low _LOW bits of each slot and hi the
    rest, masked per slot so that no bits come in from the slot above.
    From x < B a fold stays below 2**_LOW + _FOLD * ((B - 1) >> _LOW) <
    2**w for the slot width w, so nothing carries; the loop below counts
    the folds that take any w-bit value below 2p (two for w <= 79)."""
    width = 8 * size
    one = _ones(size, nslots)
    lo_mask = one * ((1 << _LOW) - 1)
    hi_mask = one * ((1 << (width - _LOW)) - 1)
    folds, bound = 0, 1 << width
    while bound > 2 * _PRIME:
        bound = (1 << _LOW) + _FOLD * ((bound - 1) >> _LOW)
        folds += 1

    def fold(v):
        for _ in range(folds):
            v = (v & lo_mask) + _FOLD * ((v >> _LOW) & hi_mask)
        return v

    return fold


def _slot_size(nrows: int) -> int:
    """Bytes per slot: room for a residue slot of the elimination, below
    2**64 + 2 * nrows * p**2."""
    return (((1 << 64) + 2 * nrows * _PRIME**2 - 1).bit_length() + 7) // 8


@lru_cache(maxsize=64)
def _row_struct(size: int, ncols: int) -> struct.Struct:
    """Packs ncols int64 entries, each behind size - 8 zero bytes."""
    return struct.Struct(">" + f"{size - 8}xq" * ncols)


def _rank_mod_p(rows, ncols: int, bound: int) -> int:
    """Rank over the field of `_PRIME` elements of the (columns, values)
    rows, or `bound` as soon as the rank reaches it.

    Each distinct values tuple is reduced mod p once (the rows of one
    Jacobian partial share theirs). Each row is then packed once into one
    int by `_row_struct`, its residues as 64-bit fields behind zero pads.

    Each packed row waits in the bucket of its leading nonzero slot, and
    column c reads only bucket c, so a row costs nothing at a column where
    it is zero. The bucket's first row whose top slot t0 is nonzero mod p
    is the pivot. It is not scaled: its tail is folded below 2p by
    `_slot_folder`, and a row whose top slot holds t gets (-t / t0 mod p)
    times it. Every row of the bucket then drops its top slot, now 0 mod p,
    and moves to the bucket of its new leading slot. An update adds less
    than p * 2p to a slot and a row takes at most nrows - 1, so slots stay
    below 2**64 + 2 * nrows * p**2 and never carry (`_slot_size`).
    """
    if not bound:
        return 0
    p = _PRIME
    size = _slot_size(len(rows))
    pack = _row_struct(size, ncols).pack
    bits = 8 * size
    width = bits * ncols
    buckets = [[] for _ in range(ncols)]
    residues = {}
    for cols, values in rows:
        if (r := residues.get(values)) is None:
            r = residues[values] = [x % p for x in values]
        if u := int.from_bytes(pack(*_scatter((cols, r), ncols)), "big"):
            buckets[(width - u.bit_length()) // bits].append(u)
    fold = _slot_folder(size, ncols)
    rank = 0
    for c, bucket in enumerate(buckets):
        if not bucket:
            continue
        buckets[c] = None
        shift = width - bits * (c + 1)
        low = (1 << shift) - 1
        pivot = tail = None
        for v in bucket:
            t = (v >> shift) % p
            if pivot is None and t:
                rank += 1
                if rank == bound:
                    return rank
                pivot, inv = v, p - pow(t, -1, p)
                continue
            if t:
                tail = tail or fold(pivot & low)
                v += t * inv % p * tail
            if v := v & low:
                buckets[(width - v.bit_length()) // bits].append(v)
    return rank


def _peel(rows, ncols: int) -> tuple[int, list, int]:
    """Peel singletons off the (columns, values) rows: (the number peeled,
    the core's (columns, values) rows, the core's width). The rank is the
    number peeled plus the core's rank.

    A column that meets one row k, or a row k with one column left, is a
    pivot (k, c): row or column operations clear the rest of its column or
    row, so rank(A) = 1 + rank(A without row k and column c). Removing the
    pair can leave new singletons, which are peeled in turn. The core holds
    the rows left, on the columns they still meet. With no singleton at all
    (as on full-support pieces) only the column counts are made, in one pass
    over the nonzeros in C, and the core is the rows as given."""
    columns = [cols for cols, _ in rows]
    meets = Counter(chain.from_iterable(columns))
    if len(meets) == ncols and 1 not in meets.values() and min(map(len, columns)) > 1:
        return 0, rows, ncols
    # (k, -1) is a candidate row k, (-1, c) a candidate column c
    stack = [(k, -1) for k, cols in enumerate(columns) if len(cols) == 1]
    stack += [(-1, c) for c, n in meets.items() if n == 1]
    live = [set(cols) for cols in columns]
    at = [[] for _ in range(ncols)]
    for k, cols in enumerate(columns):
        for c in cols:
            at[c].append(k)
    peeled = 0
    while stack:
        k, c = stack.pop()
        if c < 0:
            if len(live[k]) != 1:
                continue
            (c,) = live[k]
        elif meets[c] == 1:
            k = next(k for k in at[c] if c in live[k])
        else:
            continue
        # a removed column meets no row, and a removed row has no column
        peeled += 1
        meets[c] = 0
        for c2 in live[k] - {c}:
            meets[c2] -= 1
            if meets[c2] == 1:
                stack.append((-1, c2))
        live[k] = set()
        for k2 in at[c]:
            if c in live[k2]:
                live[k2].remove(c)
                if len(live[k2]) == 1:
                    stack.append((k2, -1))
    where = {c: j for j, c in enumerate(sorted(c for c, n in meets.items() if n))}
    rows = [
        ([where[c] for c in cols if c in kept], tuple([x for c, x in zip(cols, xs) if c in kept]))
        for (cols, xs), kept in zip(rows, live)
        if kept
    ]
    return peeled, rows, len(where)


def rank(A: IntMatrix | SparseRows) -> int:
    """Exact rank of an integer matrix, given dense or by its nonzeros.

    Singleton rows and columns are peeled first (`_peel`), each adding 1 to
    the rank exactly. The core that is left stays sparse. Its rank mod
    `_PRIME` is a lower bound on its rank over Q, and min(nrows, ncols) an
    upper bound; when the two meet, that is the core's rank, and the
    elimination mod p stops there. Otherwise the fraction-free elimination
    `_echelon` over the integers decides, on the core made dense.
    """
    if isinstance(A, IntMatrix):
        A = SparseRows.of(A)
    if not A.rows or not A.ncols:
        return 0
    peeled, core, width = _peel(A.rows, A.ncols)
    bound = min(len(core), width)
    if not bound or _rank_mod_p(core, width, bound) == bound:
        return peeled + bound
    return peeled + len(_echelon([_scatter(row, width) for row in core], width))


def term_rank(adjacent, ncols: int) -> int:
    """Size of a maximum matching of rows to columns 0..ncols-1, where row i
    may be matched to column j only when j is in adjacent[i]: the term rank
    of every matrix whose nonzero entries sit at those places.

    The term rank bounds the rank of every matrix with that pattern
    (König–Egerváry). Augmenting paths are searched depth first with an
    explicit stack, so long paths cannot hit the recursion limit. Each phase
    searches from every unmatched row with one shared set of visited
    columns; phases repeat until one augments nothing, which by Berge's
    lemma leaves a maximum matching.
    """
    row_of = [-1] * ncols
    col_of = [-1] * len(adjacent)
    size = 0
    while True:
        visited = bytearray(ncols)
        grown = 0
        for start in range(len(adjacent)):
            if col_of[start] >= 0:
                continue
            # rows[k + 1] was reached from rows[k] through column via[k]
            rows = [start]
            via = []
            scans = [iter(adjacent[start])]
            while scans:
                for j in scans[-1]:
                    if not visited[j]:
                        visited[j] = 1
                        break
                else:
                    scans.pop()
                    rows.pop()
                    if via:
                        via.pop()
                    continue
                if row_of[j] >= 0:
                    rows.append(row_of[j])
                    via.append(j)
                    scans.append(iter(adjacent[row_of[j]]))
                    continue
                # j is free: match each row on the path to the column after it
                via.append(j)
                for i, c in zip(rows, via):
                    row_of[c] = i
                    col_of[i] = c
                grown += 1
                break
        if not grown:
            return size
        size += grown


# perfbench/tracer.py binds this name; it can go after ROADMAP item 18.
def rank_and_pivot_columns(A: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Rank plus the pivot columns: the columns of the leads of `_echelon`,
    that is, the first columns from the left that span the column space."""
    leads = _echelon(A.entries, A.ncols)
    pivots = tuple(next(j for j, x in enumerate(w) if x) for w in leads)
    return len(pivots), pivots


# perfbench/tracer.py binds this name; it can go after ROADMAP item 18.
def solve_integer(A: IntMatrix, b) -> tuple[int, ...] | None:
    """Some integer solution x of A x = b, or None when none exists.

    With U A V = D the Smith decomposition of A, the system becomes
    D y = U b, which is solvable iff each d_i divides (U b)_i and the zero
    rows of D annihilate U b; then x = V y.
    """
    b = tuple(map(index, b))
    if len(b) != A.nrows:
        raise DimensionMismatch("right-hand side length does not match row count")
    dec = smith_normal_form(A)
    ub = dec.U.mul_vector(b)
    d = dec.diagonal
    if any(ub[len(d) :]) or any(t % k if k else t for t, k in zip(ub, d)):
        return None
    y = [t // k if k else 0 for t, k in zip(ub, d)]
    x = dec.V.mul_vector(y + [0] * (A.ncols - len(y)))
    if A.mul_vector(x) != b:
        raise AssertionError("integer solve failed verification")
    return x
