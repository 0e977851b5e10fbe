"""Exact polyhedral geometry of Newton polyhedra and orthant regions (k <= 3).

A polyhedron here always has recession cone equal to the nonnegative
orthant: P = conv(vertices) + R_{>=0}^k.  Facets are stored as pairs
(normal, c) meaning <normal, x> >= c with a primitive integer normal
having all components >= 0.  Facets with c = 0 (the coordinate planes)
are never stored: for points in the orthant they are vacuous, and
membership tests check nonnegativity separately.

Everything is exact rational arithmetic; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd, lcm

from .errors import (
    DimensionMismatch,
    NegativeWeight,
    UnboundedComplement,
    UnsupportedDimension,
    ZeroIdeal,
)
from .monomial import MonomialIdeal

Point = tuple
Facet = tuple  # (normal: tuple[int, ...], c: Fraction or int)


# -- small exact linear algebra ---------------------------------------------


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _rank(rows) -> int:
    """Rank of a small matrix of rationals, by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def primitive(nums) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same direction)."""
    fracs = [Fraction(x) for x in nums]
    denom = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _normalize_facet(normal, c) -> Facet:
    """Rescale so the normal is primitive integer; c scales along."""
    prim = primitive(normal)
    i = next(j for j, x in enumerate(prim) if x != 0)
    scale = Fraction(prim[i], 1) / Fraction(normal[i])
    cc = Fraction(c) * scale
    return prim, (int(cc) if cc.denominator == 1 else cc)


# -- 2d staircase machinery --------------------------------------------------


def staircase_vertices(points) -> list[Point]:
    """Extreme points of conv(points) + orthant in the plane.

    Returns the boundary chain sorted by increasing x (so decreasing y),
    with collinear interior points dropped.
    """
    mins: list[Point] = []
    best = None
    for p in sorted(set(map(tuple, points))):
        if best is None or p[1] < best:
            mins.append(p)
            best = p[1]
    hull: list[Point] = []
    for p in mins:
        while len(hull) >= 2 and _cross2(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull


def _chain_facets_2d(verts) -> list[Facet]:
    facets = []
    for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
        facets.append(_normalize_facet((y1 - y2, x2 - x1), (y1 - y2) * x1 + (x2 - x1) * y1))
    if verts[0][0] > 0:
        facets.append(((1, 0), verts[0][0]))
    if verts[-1][1] > 0:
        facets.append(((0, 1), verts[-1][1]))
    return sorted(facets)


# -- the polyhedron type ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NewtonPolyhedron:
    """conv(vertices) + orthant, with the canonical irredundant facet list."""

    dim: int
    vertices: tuple[Point, ...]
    facets: tuple[Facet, ...]

    def __eq__(self, other):
        # geometric equality across subclasses (regions vs Newton polyhedra)
        if not isinstance(other, NewtonPolyhedron):
            return NotImplemented
        return (self.dim, self.vertices, self.facets) == (
            other.dim, other.vertices, other.facets,
        )

    def __hash__(self):
        return hash((self.dim, self.vertices, self.facets))

    def contains_point(self, q) -> bool:
        qt = tuple(q)
        if len(qt) != self.dim:
            raise DimensionMismatch(f"point of length {len(qt)} in dimension {self.dim}")
        if any(x < 0 for x in qt):
            return False
        return all(_dot(a, qt) >= c for a, c in self.facets)

    def diagonal_lambda(self) -> Fraction:
        """inf of lambda with lambda*(1,...,1) in the polyhedron."""
        if not self.facets:
            return Fraction(0)
        return max(Fraction(c) / sum(a) for a, c in self.facets)

    def min_weighted(self, w) -> Fraction:
        """min over the polyhedron of <w, x>, attained at a vertex for w >= 0."""
        wt = tuple(Fraction(x) for x in w)
        if len(wt) != self.dim:
            raise DimensionMismatch(f"weight of length {len(wt)} in dimension {self.dim}")
        if any(x < 0 for x in wt):
            raise NegativeWeight(f"negative weight in {wt!r}")
        return min(sum(a * b for a, b in zip(wt, v)) for v in self.vertices)

    def covolume(self) -> Fraction:
        """Exact volume of orthant \\ P; raises if the complement is unbounded."""
        if self.dim == 1:
            return Fraction(self.vertices[0][0])
        if self.dim == 2:
            first, last = self.vertices[0], self.vertices[-1]
            if first[0] != 0 or last[1] != 0:
                raise UnboundedComplement("an axis ray never enters the polyhedron")
            return _shoelace([(0, 0), *self.vertices])
        if self.dim == 3:
            return _covolume_3d(self.vertices, self.facets)
        raise UnsupportedDimension(f"covolume in dimension {self.dim}")

    def scale(self, t) -> NewtonPolyhedron:
        t = Fraction(t)
        verts = tuple(tuple(x * t for x in v) for v in self.vertices)
        facets = tuple((a, c * t) for a, c in self.facets)
        return NewtonPolyhedron(self.dim, verts, facets)


def _shoelace(poly) -> Fraction:
    total = Fraction(0)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        total += Fraction(x1) * y2 - Fraction(x2) * y1
    return abs(total) / 2


# -- construction -------------------------------------------------------------


def newton_polyhedron(ideal: MonomialIdeal) -> NewtonPolyhedron:
    """Newton polyhedron of a monomial ideal: conv(exponent vectors) + orthant."""
    if ideal.is_zero:
        raise ZeroIdeal("the zero ideal has no Newton polyhedron")
    k = ideal.dim
    if k > 3:
        raise UnsupportedDimension("exact Newton polyhedra are limited to k <= 3")
    if ideal.is_unit:
        return NewtonPolyhedron(k, ((0,) * k,), ())
    if k == 1:
        c = min(g[0] for g in ideal.gens)
        return NewtonPolyhedron(1, ((c,),), (((1,), c),))
    if k == 2:
        verts = staircase_vertices(ideal.gens)
        return NewtonPolyhedron(2, tuple(verts), tuple(_chain_facets_2d(verts)))
    verts, facets = orthant_hull_3d(ideal.gens)
    return NewtonPolyhedron(3, verts, facets)


def from_vertices(points) -> NewtonPolyhedron:
    """Polyhedron conv(points) + orthant from an arbitrary point set (k <= 3)."""
    pts = [tuple(p) for p in points]
    k = len(pts[0])
    if k == 1:
        c = min(Fraction(p[0]) for p in pts)
        return NewtonPolyhedron(1, ((c,),), (((1,), c),) if c > 0 else ())
    if k == 2:
        verts = staircase_vertices(pts)
        return NewtonPolyhedron(2, tuple(verts), tuple(_chain_facets_2d(verts)))
    if k == 3:
        verts, facets = orthant_hull_3d(pts)
        return NewtonPolyhedron(3, verts, facets)
    raise UnsupportedDimension(f"from_vertices in dimension {k}")


def orthant_hull_3d(points):
    """Vertices and facets of conv(points) + orthant in R^3.

    Facet normals arise only from planes spanned by generator triples,
    generator pairs plus an axis direction, or a single generator plus two
    axis directions; all candidates are enumerated and filtered exactly.
    """
    pts = sorted(set(map(tuple, points)))
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    normals = set()
    for i in range(3):
        normals.add(tuple(axes[i]))
    for p, q in combinations(pts, 2):
        d = tuple(a - b for a, b in zip(q, p))
        for e in axes:
            n = _cross3(d, e)
            for cand in (n, tuple(-x for x in n)):
                if any(x != 0 for x in cand) and all(x >= 0 for x in cand):
                    normals.add(primitive(cand))
    for p, q, r in combinations(pts, 3):
        n = _cross3(
            tuple(a - b for a, b in zip(q, p)),
            tuple(a - b for a, b in zip(r, p)),
        )
        for cand in (n, tuple(-x for x in n)):
            if any(x != 0 for x in cand) and all(x >= 0 for x in cand):
                normals.add(primitive(cand))

    facets = []
    tight_normals: dict[Point, list] = {p: [] for p in pts}
    for n in sorted(normals):
        c = min(_dot(n, p) for p in pts)
        tight = [p for p in pts if _dot(n, p) == c]
        zero_axes = [axes[i] for i in range(3) if n[i] == 0]
        t0 = tight[0]
        spanning = [tuple(a - b for a, b in zip(t, t0)) for t in tight[1:]] + zero_axes
        if _rank(spanning) != 2:
            continue
        for p in tight:
            tight_normals[p].append(n)
        if c > 0:
            facets.append((n, c))

    verts = []
    for p in pts:
        ns = list(tight_normals[p]) + [axes[i] for i in range(3) if p[i] == 0]
        if _rank(ns) == 3:
            verts.append(p)
    return tuple(sorted(verts)), tuple(sorted(facets))


def vertices_from_halfspaces(k: int, facets) -> tuple[Point, ...]:
    """Extreme points of {x >= 0 : <a, x> >= c for all facets} (k <= 3), sorted.

    All facet normals must be nonzero and componentwise nonnegative, so the
    region has recession cone the full orthant.  k = 2 reads the vertices
    off an upper envelope of lines in O(m log m) (``_envelope_vertices_2d``);
    k = 3 still enumerates every triple of constraints and keeps the
    feasible basic points, O(m^4).
    """
    if k == 1:
        c = max((Fraction(c) for _, c in facets), default=Fraction(0))
        return ((max(c, Fraction(0)),),)
    if k == 2:
        return _envelope_vertices_2d(facets)
    if k != 3:
        raise UnsupportedDimension(f"vertex enumeration in dimension {k}")
    constraints = [(tuple(a), Fraction(c)) for a, c in facets]
    for i in range(k):
        constraints.append((tuple(1 if j == i else 0 for j in range(k)), Fraction(0)))

    def feasible(q):
        return all(x >= 0 for x in q) and all(_dot(a, q) >= c for a, c in facets)

    found = set()
    for rows in combinations(constraints, 3):
        mat = [r[0] for r in rows]
        rhs = [r[1] for r in rows]
        q = _solve3(mat, rhs)
        if q is not None and feasible(q):
            found.add(q)
    return tuple(sorted(found))


def _envelope_vertices_2d(facets) -> tuple[Point, ...]:
    """Vertices of {x, y >= 0 : a0 x + a1 y >= c}, by increasing x.

    With nonnegative normals the region is {x >= wall, y >= F(x)}, where
    wall is the largest c/a0 of a facet with a1 = 0 (or 0) and F is the
    upper envelope of the lines y = (c - a0 x)/a1 and y = 0.  Its vertices
    are (wall, F(wall)) and the breakpoints of F right of the wall.
    """
    wall = Fraction(0)
    best: dict[Fraction, Fraction] = {Fraction(0): Fraction(0)}  # slope -> intercept
    for (a0, a1), c in facets:
        if a1 == 0:
            wall = max(wall, Fraction(c) / a0)
            continue
        slope, icept = Fraction(-a0) / a1, Fraction(c) / a1
        if slope not in best or icept > best[slope]:
            best[slope] = icept
    # lines by increasing slope: the order in which they appear left to right
    hull: list[tuple[Fraction, Fraction]] = []
    for m3, b3 in sorted(best.items()):
        while len(hull) >= 2:
            (m1, b1), (m2, b2) = hull[-2], hull[-1]
            # hull[-1] leaves the envelope when the new line meets hull[-2]
            # at or left of where hull[-1] does (cross-multiplied, m1 < m2 < m3)
            if (b1 - b3) * (m2 - m1) > (b1 - b2) * (m3 - m1):
                break
            hull.pop()
        hull.append((m3, b3))
    breaks = [(b1 - b2) / (m2 - m1) for (m1, b1), (m2, b2) in zip(hull, hull[1:])]
    first = 0
    while first < len(breaks) and breaks[first] <= wall:
        first += 1
    m, b = hull[first]
    verts = [(wall, m * wall + b)]
    verts.extend((x, m * x + b) for x, (m, b) in zip(breaks[first:], hull[first + 1:]))
    return tuple(verts)


def _solve3(mat, rhs):
    d = _det3(mat)
    if d == 0:
        return None
    cols = []
    for j in range(3):
        m = [row[:] if isinstance(row, list) else list(row) for row in mat]
        for i in range(3):
            m[i][j] = rhs[i]
        cols.append(Fraction(_det3(m), 1) / d)
    return tuple(cols)


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


# -- 3d volume ----------------------------------------------------------------


def _angular_sort(points, normal):
    """Cyclic order of coplanar points around their centroid, exact."""
    n = len(points)
    cx = [sum(Fraction(p[i]) for p in points) / n for i in range(3)]
    vecs = [tuple(Fraction(p[i]) - cx[i] for i in range(3)) for p in points]
    ref = vecs[0]

    def half(w):
        s = _dot(normal, _cross3(ref, w))
        if s != 0:
            return 0 if s > 0 else 1
        return 0 if _dot(ref, w) > 0 else 1

    def cmp(iu, iv):
        hu, hv = half(vecs[iu]), half(vecs[iv])
        if hu != hv:
            return -1 if hu < hv else 1
        s = _dot(normal, _cross3(vecs[iu], vecs[iv]))
        return -1 if s > 0 else (1 if s < 0 else 0)

    order = sorted(range(n), key=cmp_to_key(cmp))
    return [points[i] for i in order]


def _polytope_volume_3d(planes) -> Fraction:
    """Volume of a bounded full-dimensional {x : <a,x> >= c} polytope."""
    uniq = {}
    for a, c in planes:
        uniq[(tuple(a), Fraction(c))] = None
    plist = list(uniq)

    def feasible(q):
        return all(_dot(a, q) >= c for a, c in plist)

    verts = set()
    for rows in combinations(plist, 3):
        q = _solve3([r[0] for r in rows], [r[1] for r in rows])
        if q is not None and feasible(q):
            verts.add(q)
    verts = sorted(verts)
    if len(verts) < 4:
        return Fraction(0)
    centroid = tuple(sum(v[i] for v in verts) / len(verts) for i in range(3))
    total = Fraction(0)
    for a, c in plist:
        tight = [v for v in verts if _dot(a, v) == c]
        if len(tight) < 3:
            continue
        t0 = tight[0]
        if _rank([tuple(x - y for x, y in zip(t, t0)) for t in tight[1:]]) != 2:
            continue
        ring = _angular_sort(tight, a)
        for i in range(1, len(ring) - 1):
            u = tuple(x - y for x, y in zip(ring[0], centroid))
            v = tuple(x - y for x, y in zip(ring[i], centroid))
            w = tuple(x - y for x, y in zip(ring[i + 1], centroid))
            total += abs(_det3([u, v, w]))
    return total / 6


def _covolume_3d(vertices, facets) -> Fraction:
    for i in range(3):
        if not any(all(v[j] == 0 for j in range(3) if j != i) for v in vertices):
            raise UnboundedComplement(f"axis {i} never enters the polyhedron")
    if (0, 0, 0) in [tuple(v) for v in vertices]:
        return Fraction(0)
    bound = max(max(Fraction(x) for x in v) for v in vertices)
    planes = [(a, Fraction(c)) for a, c in facets]
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        planes.append((e, Fraction(0)))
        planes.append((tuple(-x for x in e), -bound))
    return bound**3 - _polytope_volume_3d(planes)


# -- standalone convex hulls (bounded, any sign) ------------------------------


@dataclass(frozen=True)
class Hull:
    """Exact convex hull of a finite point set; facets empty when degenerate."""

    dim: int
    vertices: tuple[Point, ...]
    facets: tuple[Facet, ...] = ()
    degenerate: bool = field(default=False, compare=False)


def convex_hull(points, k: int | None = None) -> Hull:
    """Exact hull for k <= 3; collinear/coplanar inputs come back flagged."""
    pts = sorted(set(map(tuple, points)))
    if not pts:
        raise ValueError("need at least one point")
    if k is None:
        k = len(pts[0])
    if any(len(p) != k for p in pts):
        raise DimensionMismatch("points of mixed dimension")
    if k > 3:
        raise UnsupportedDimension("exact hulls are limited to k <= 3")
    base = pts[0]
    rank = _rank([tuple(a - b for a, b in zip(p, base)) for p in pts[1:]])
    if k == 1:
        verts = (pts[0],) if len(pts) == 1 else (pts[0], pts[-1])
        return Hull(1, verts, degenerate=rank < 1)
    if k == 2:
        if rank < 2:
            return Hull(2, (pts[0],) if rank == 0 else (pts[0], pts[-1]), degenerate=True)
        verts = _hull_2d(pts)
        return Hull(2, tuple(verts), tuple(_polygon_facets(verts)))
    if rank < 3:
        if rank == 0:
            return Hull(3, (pts[0],), degenerate=True)
        if rank == 1:
            ends = max(
                combinations(pts, 2),
                key=lambda pq: sum((a - b) ** 2 for a, b in zip(*pq)),
            )
            return Hull(3, tuple(sorted(ends)), degenerate=True)
        return Hull(3, _planar_hull_3d(pts), degenerate=True)
    return _hull_3d(pts)


def _hull_2d(pts) -> list[Point]:
    """Andrew monotone chain, counterclockwise from the lex-smallest point."""
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _polygon_facets(verts) -> list[Facet]:
    facets = []
    n = len(verts)
    for i in range(n):
        (x1, y1), (x2, y2) = verts[i], verts[(i + 1) % n]
        a = (-(y2 - y1), x2 - x1)
        facets.append(_normalize_facet(a, a[0] * x1 + a[1] * y1))
    return sorted(facets)


def _planar_hull_3d(pts) -> tuple[Point, ...]:
    base = pts[0]
    dirs = [tuple(a - b for a, b in zip(p, base)) for p in pts[1:]]
    u = next(d for d in dirs if any(x != 0 for x in d))
    v = next(d for d in dirs if _rank([u, d]) == 2)
    coords = []
    for p in pts:
        d = tuple(a - b for a, b in zip(p, base))
        # planar coordinates via dot products against the (u, v) frame
        g = [[_dot(u, u), _dot(u, v)], [_dot(v, u), _dot(v, v)]]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        s = Fraction(_dot(d, u) * g[1][1] - _dot(d, v) * g[0][1], det)
        t = Fraction(g[0][0] * _dot(d, v) - g[1][0] * _dot(d, u), det)
        coords.append(((s, t), p))
    plane_pts = sorted({c for c, _ in coords})
    back = {}
    for c, p in coords:
        back[c] = p
    if _rank([tuple(a - b for a, b in zip(c, plane_pts[0])) for c in plane_pts[1:]]) < 2:
        ends = (back[plane_pts[0]], back[plane_pts[-1]])
        return tuple(sorted(ends))
    return tuple(sorted(back[c] for c in _hull_2d(plane_pts)))


def _hull_3d(pts) -> Hull:
    facets = {}
    for p, q, r in combinations(pts, 3):
        n = _cross3(
            tuple(a - b for a, b in zip(q, p)),
            tuple(a - b for a, b in zip(r, p)),
        )
        if all(x == 0 for x in n):
            continue
        n = primitive(n)
        c = _dot(n, p)
        if all(_dot(n, s) >= c for s in pts):
            facets[(n, c)] = None
        elif all(_dot(n, s) <= c for s in pts):
            m = tuple(-x for x in n)
            facets[(m, -c)] = None
    flist = sorted(facets)
    verts = []
    for p in pts:
        tight = [a for a, c in flist if _dot(a, p) == c]
        if _rank(tight) == 3:
            verts.append(p)
    return Hull(3, tuple(sorted(verts)), tuple(flist))
