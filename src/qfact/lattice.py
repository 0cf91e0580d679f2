"""Integer convex geometry in rank 3: hulls, facets, lattice points, normal fans.

All computations are exact over the integers. A polytope is stored by its
vertex set together with primitive inner-normal facet inequalities
``<m, normal> >= -offset``.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations, product, repeat
from math import gcd
from operator import index

from .errors import DegenerateHull
# Nothing here calls rank; perfbench/tracer.py binds it. It can go after ROADMAP item 18.
from .linalg import rank

Vec3 = tuple[int, int, int]


def dot(a: Vec3, b: Vec3) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def primitive(v: Vec3) -> Vec3:
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return (v[0] // g, v[1] // g, v[2] // g)


class Facet(namedtuple("Facet", "normal offset")):
    """Half-space <m, normal> >= -offset, tight on the facet itself."""

    __slots__ = ()

    def value(self, point: Vec3) -> int:
        return dot(self.normal, point) + self.offset


class LatticePolytope(namedtuple("LatticePolytope", "vertices facets")):
    """Full-dimensional lattice polytope: sorted vertices (Vec3), sorted
    facets (Facet)."""

    __slots__ = ()


class NormalFan(namedtuple("NormalFan", "rays maximal_cones")):
    """Inner-normal fan: rays (Vec3) in facet order, one maximal cone per
    vertex, as a tuple of ray indices."""

    __slots__ = ()


def _independent_points(points) -> list[Vec3]:
    """Greedy affinely independent points: the first point, the first one
    unequal to it, the first off their line and the first off their plane,
    as far as they exist. One more than the affine dimension of a nonempty
    set, and [] for an empty one."""
    if not points:
        return []
    p0 = points[0]
    p1 = next((p for p in points if p != p0), None)
    if p1 is None:
        return [p0]
    u = sub(p1, p0)
    p2 = next((p for p in points if cross(u, sub(p, p0)) != (0, 0, 0)), None)
    if p2 is None:
        return [p0, p1]
    n = cross(u, sub(p2, p0))
    p3 = next((p for p in points if dot(n, sub(p, p0)) != 0), None)
    return [p0, p1, p2] if p3 is None else [p0, p1, p2, p3]


def _supporting_facet(apex: Vec3, u: Vec3, w: Vec3, cloud) -> Facet | None:
    """Facet of conv(cloud) spanned by apex, u, w, when that plane supports."""
    n = cross(sub(u, apex), sub(w, apex))
    if n == (0, 0, 0):
        return None
    n = primitive(n)
    base = dot(n, apex)
    lo = hi = 0
    for q in cloud:
        s = dot(n, q) - base
        if s < lo:
            lo = s
        elif s > hi:
            hi = s
        if lo < 0 and hi > 0:
            return None
    if lo == 0:
        return Facet(normal=n, offset=-base)
    return Facet(normal=(-n[0], -n[1], -n[2]), offset=base)


def _spans_space(vectors) -> bool:
    """True iff some triple of the integer vectors has dot(cross(a, b), c) != 0."""
    return any(dot(cross(a, b), c) for a, b, c in combinations(vectors, 3))


def convex_hull(points) -> LatticePolytope:
    """Exact convex hull of integer triples; requires affine dimension 3.

    Beneath-beyond over facet planes from four independent seed points.
    A point violating no facet is skipped. An outside point p keeps the
    facets it does not violate and adds each supporting plane through p
    and two vertices tight on one violated facet: the plane of a new
    facet meets the old hull in an edge, whose two facets p cannot both
    satisfy, or in a facet coplanar with p, beyond one of whose edges p
    lies, so p violates the other facet at that edge. A point is a vertex
    exactly when three of its tight facet normals are independent; only p
    and the vertices tight on a violated facet are tested again.
    Points come farthest from the centroid first, ties in lexicographic
    order. The farthest is a vertex, as a strictly convex function peaks
    at one, so on lattice supports the hull is nearly done before the rest
    cost one pass over the facets each. The hull does not depend on the order.
    """
    try:
        pts = sorted({(index(x), index(y), index(z)) for x, y, z in points})
    except ValueError:  # a point that does not unpack into three coordinates
        bad = next(p for p in points if len(p) != 3)
        raise DegenerateHull(f"point {bad} has {len(bad)} coordinates, need 3") from None
    if not pts:
        raise DegenerateHull("empty point set")
    seed = _independent_points(pts)
    if len(seed) < 4:
        raise DegenerateHull(f"points span affine dimension {len(seed) - 1}, need 3")

    facets = {_supporting_facet(a, b, c, seed) for a, b, c in combinations(seed, 3)}
    vertices = set(seed)

    n, (x, y, z) = len(pts), map(sum, zip(*pts))
    pts.sort(key=lambda p: -((n * p[0] - x) ** 2 + (n * p[1] - y) ** 2 + (n * p[2] - z) ** 2))
    for p in pts:
        violated = [f for f in facets if f.value(p) < 0]
        if not violated:
            continue
        cloud = sorted(vertices) + [p]
        pairs = set()
        touched = {p}
        for f in violated:
            tight = sorted(v for v in vertices if f.value(v) == 0)
            touched.update(tight)
            pairs.update(combinations(tight, 2))
        fresh = {_supporting_facet(p, u, w, cloud) for u, w in pairs} - {None}
        facets = facets.difference(violated) | fresh
        # a vertex on no violated facet keeps its facets, so it stays a vertex
        vertices = vertices.difference(touched) | {
            q for q in touched if _spans_space([f.normal for f in facets if f.value(q) == 0])
        }

    vlist = tuple(sorted(vertices))
    flist = tuple(sorted(facets, key=lambda f: (f.normal, f.offset)))
    for f in flist:
        # the tight vertices lie on f's plane; three independent ones span it
        if len(_independent_points([v for v in vlist if f.value(v) == 0])) < 3:
            raise AssertionError("facet not supported by 3 independent vertices")
    return LatticePolytope(vertices=vlist, facets=flist)


def _eliminate_z(rows):
    """Fourier-Motzkin: from rows (c, b, k, a), each meaning
    c x + b y + k z + a >= 0, the rows (c, b, a) that cut out exactly the
    region's projection to (x, y) over the rationals. Each comes with its
    history: the indices of the one or two input rows it combines."""
    out = [((c, b, a), (i,)) for i, (c, b, k, a) in enumerate(rows) if k == 0]
    pos = [(i, r) for i, r in enumerate(rows) if r[2] > 0]
    neg = [(j, r) for j, r in enumerate(rows) if r[2] < 0]
    for i, (c1, b1, k1, a1) in pos:
        for j, (c2, b2, k2, a2) in neg:
            row = (k1 * c2 - k2 * c1, k1 * b2 - k2 * b1, k1 * a2 - k2 * a1)
            g = gcd(*row)
            if g:
                out.append(((row[0] // g, row[1] // g, row[2] // g), (i, j)))
    return out


def _eliminate_y(rows):
    """Fourier-Motzkin on the output of `_eliminate_z`: the rows (c, a),
    meaning c x + a >= 0, that cut out exactly the region's projection to x
    over the rationals.

    Kohler's rule: after k eliminations, a row that combines more than
    k + 1 input rows is implied by those that combine fewer. So two rows
    that combine two input rows each are only combined when they share one.
    """
    out = {(c, a) for (c, b, a), _ in rows if b == 0}
    # index 1 holds rows with b > 0, index 0 those with b < 0
    singles, doubles = ([], []), ([], [])
    shared = {}
    for r, history in rows:
        if r[1]:
            side = r[1] > 0
            if len(history) == 1:
                singles[side].append(r)
            else:
                doubles[side].append(r)
                for i in history:
                    shared.setdefault(i, ([], []))[side].append(r)
    pairs = chain(
        product(singles[1], singles[0] + doubles[0]),
        product(doubles[1], singles[0]),
        *(product(pos, neg) for neg, pos in shared.values()),
    )
    for (c1, b1, a1), (c2, b2, a2) in pairs:
        c, a = b1 * c2 - b2 * c1, b1 * a2 - b2 * a1
        g = gcd(c, a)
        if g:
            out.add((c // g, a // g))
    return out


def _interval(rows) -> tuple[int, int]:
    """Integer bounds on t from the rows (k, a), meaning k t + a >= 0, k != 0."""
    lo = max(-(a // k) for k, a in rows if k > 0)
    hi = min(a // -k for k, a in rows if k < 0)
    return lo, hi


def integer_lines(normals, offsets) -> list[tuple[int, int, int, int]]:
    """All m in Z^3 with <m, n_i> >= -a_i for every i, as the nonempty runs
    (x, y, z_lo, z_hi) of points (x, y, z_lo..z_hi), in lex order.

    Eliminating z and then y gives exact bounds on x and, for each x, on y;
    each (x, y) line is then cut to its z interval. The scan costs the
    number of lines times the row counts, in the coordinates the normals
    are given in (see `scan_chart`); `expand_lines` lists the points. For
    n normals, eliminating z gives up to about n^2/4 rows; eliminating y
    combines, by Kohler's rule, only rows that share an input row, about
    n^3/16 pairs. The normals must positively span R^3, so that the region
    is bounded.
    """
    rows3 = [(*n, a) for n, a in zip(normals, offsets)]
    combined = _eliminate_z(rows3)
    rows2 = {r for r, _ in combined}
    rows1 = _eliminate_y(combined)
    if any(k == 0 and a < 0 for k, a in rows1):
        return []
    z_lower = [r for r in rows3 if r[2] > 0]
    z_upper = [r for r in rows3 if r[2] < 0]
    out = []
    xlo, xhi = _interval(rows1)
    for x in range(xlo, xhi + 1):
        ylo, yhi = _interval([(b, a + c * x) for c, b, a in rows2])
        for y in range(ylo, yhi + 1):
            zlo = max(-((a + c * x + b * y) // k) for c, b, k, a in z_lower)
            zhi = min((a + c * x + b * y) // -k for c, b, k, a in z_upper)
            if zlo <= zhi:
                out.append((x, y, zlo, zhi))
    return out


def expand_lines(lines, origin, rows) -> list[tuple[int, ...]]:
    """Each point m of the runs of `integer_lines`, in run order, mapped to
    (o_i + <r_i, m>)_i for o_i in origin and r_i in rows. Along a run,
    coordinate i steps by r_i[2], so zip builds the points in C from ranges,
    or repeats for step 0."""
    maps = [(o, a, b, c) for o, (a, b, c) in zip(origin, rows)]
    out = []
    for x, y, lo, hi in lines:
        n = hi - lo + 1
        columns = [
            range(s, s + c * n, c) if c else repeat(s, n)
            for o, a, b, c in maps
            for s in (o + a * x + b * y + c * lo,)
        ]
        out.extend(zip(*columns))
    return out


def scan_chart(fan: NormalFan) -> tuple[Vec3, Vec3, Vec3]:
    """Rows of C = d B^-T for the fan's scan chart m' = d B m: B's rows are
    the first three rays of a maximal cone, in fan order, with d = det B =
    +-1, and B = I if there are none. A ray v reads C v in the chart and m
    is C^T m'; on a smooth cone m' are Cox exponents up to sign and shift."""
    for cone in fan.maximal_cones:
        for a, b, c in combinations([fan.rays[i] for i in cone], 3):
            if dot(cross(a, b), c) in (1, -1):
                return (cross(b, c), cross(c, a), cross(a, b))
    return ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def lattice_points(P: LatticePolytope) -> list[Vec3]:
    """All points of P intersected with the integer lattice, in lex order.

    The scan runs in the `scan_chart` of P's vertex cones and costs its lines
    in that chart; the points are mapped back and sorted."""
    C = scan_chart(normal_fan(P))
    normals = [tuple(dot(c, f.normal) for c in C) for f in P.facets]
    lines = integer_lines(normals, [f.offset for f in P.facets])
    return sorted(expand_lines(lines, (0, 0, 0), tuple(zip(*C))))


def normal_fan(P: LatticePolytope) -> NormalFan:
    """Inner-normal fan: rays follow facet order, cones follow vertex order."""
    cones = []
    for v in P.vertices:
        cones.append(tuple(i for i, f in enumerate(P.facets) if f.value(v) == 0))
    return NormalFan(
        rays=tuple(f.normal for f in P.facets), maximal_cones=tuple(cones)
    )


def is_simplicial(fan: NormalFan) -> bool:
    """True iff every maximal cone is spanned by 3 independent rays."""
    for cone in fan.maximal_cones:
        if len(cone) != 3 or not _spans_space([fan.rays[i] for i in cone]):
            return False
    return True
