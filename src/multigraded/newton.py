"""Exact polyhedral geometry of Newton polyhedra and orthant regions (k <= 3).

One type, ``NewtonPolyhedron``, models every closed convex region of the
orthant that absorbs the orthant: the Newton polyhedron of an ideal, a
halfspace region, an epigraph, and every limit body of a graded system
(the builders live in ``regions``).  Such a polyhedron always has
recession cone equal to the nonnegative orthant: P = conv(vertices) +
R_{>=0}^k.  Facets are stored as pairs (normal, c) meaning
<normal, x> >= c with a primitive integer normal having all components
>= 0.  Facets with c = 0 (the coordinate planes) are never stored: for
points in the orthant they are vacuous, and membership tests check
nonnegativity separately.

One exact routine per dimension builds the polyhedron: a sorted
staircase chain in k = 2 and, in k = 3, ``orthant_hull_3d``, an
incremental beneath-beyond hull with integer orientation tests that
treats the axis directions as points at infinity.  For integer points,
such as the generators of an ideal, the whole build, the facet
normalization and the covolume stay in ints; ``Fraction`` appears only
where a value is not an integer.  A region given by
halfspaces (``vertices_from_halfspaces``) comes from the same routines:
in k = 2 from ``envelope_2d``, an upper envelope of lines in integer
arithmetic that returns the vertices together with the facets of the
lines it keeps; in k = 3 from one ``orthant_hull_3d`` of its blocker,
whose facets are the region's vertices and whose vertices are the
region's facets.  The 3D covolume is a sum of cones from the origin
over the facets.

Everything is exact: ints where the data are integral, ``Fraction``
otherwise, and no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    NonpositiveScale,
    UnboundedComplement,
    UnsupportedDimension,
    ZeroIdeal,
)
from .monomial import MonomialIdeal, _antichain

Point = tuple
Facet = tuple  # (normal: tuple[int, ...], c: Fraction or int)


# -- small exact linear algebra ---------------------------------------------


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _rank(rows) -> int:
    """Rank of exact rows of length <= 3, padded to 3, without division: 0
    without a nonzero row u, 1 if every row has zero cross product with u,
    2 if every row is orthogonal to the first nonzero u x v, else 3."""
    rows = [tuple(r) + (0,) * (3 - len(r)) for r in rows]
    if any(len(r) > 3 for r in rows):
        raise UnsupportedDimension("rank of rows longer than 3")
    u = next((r for r in rows if any(r)), None)
    if u is None:
        return 0
    n = next((n for n in (_cross(u, r) for r in rows) if any(n)), None)
    if n is None:
        return 1
    return 3 if any(_dot(n, r) for r in rows) else 2


def primitive(nums) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same direction)."""
    ints = list(nums)
    if not all(type(x) is int for x in ints):
        fracs = [Fraction(x) for x in ints]
        denom = lcm(*(f.denominator for f in fracs))
        ints = [f.numerator * (denom // f.denominator) for f in fracs]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _normalize_facet(normal, c) -> Facet:
    """Rescale so the normal is primitive integer; c scales along.  An
    integer normal is divided by its gcd, so an integer c that the gcd
    divides stays an int."""
    if type(c) is int and all(type(x) is int for x in normal):
        g = gcd(*normal)
        if c % g == 0:
            return tuple(x // g for x in normal), c // g
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
    hull: list[Point] = []
    for p in _antichain(map(tuple, points), 2):
        x, y = p
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) > (y1 - y0) * (x - x0):
                break  # a strict left turn: hull[-1] stays
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


@dataclass(frozen=True)
class NewtonPolyhedron:
    """conv(vertices) + orthant, with the canonical irredundant facet list."""

    dim: int
    vertices: tuple[Point, ...]
    facets: tuple[Facet, ...]

    def diagonal_lambda(self) -> Fraction:
        """inf of lambda with lambda*(1,...,1) in the polyhedron."""
        if not self.facets:
            return Fraction(0)
        # the largest c / sum(a), compared as cross products (every sum > 0)
        (a, best_c), *rest = self.facets
        best_s = sum(a)
        for a, c in rest:
            s = sum(a)
            if c * best_s > best_c * s:
                best_c, best_s = c, s
        return Fraction(best_c, best_s)

    def ord0(self) -> Fraction:
        """min over the polyhedron of the coordinate sum, attained at a vertex."""
        return Fraction(min(map(sum, self.vertices)))

    def covolume(self) -> Fraction:
        """Exact volume of orthant \\ P; raises if the complement is unbounded.

        k = 2 is the shoelace area under the staircase chain; k = 3 sums,
        over the facets, the cones from the origin (``_covolume_3d``).
        """
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
        if t <= 0:
            raise NonpositiveScale(f"scale factor {t} must be positive")
        verts = tuple(tuple(x * t for x in v) for v in self.vertices)
        facets = tuple((a, c * t) for a, c in self.facets)
        return NewtonPolyhedron(self.dim, verts, facets)


def _shoelace(poly) -> Fraction:
    """Area of a polygon; exact sums of its coordinates' type, one division."""
    total = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]))
    return Fraction(abs(total), 2)


# -- construction -------------------------------------------------------------


def newton_polyhedron(ideal: MonomialIdeal) -> NewtonPolyhedron:
    """Newton polyhedron of a monomial ideal: conv(exponent vectors) + orthant."""
    if ideal.is_zero:
        raise ZeroIdeal("the zero ideal has no Newton polyhedron")
    if ideal.dim > 3:
        raise UnsupportedDimension("exact Newton polyhedra are limited to k <= 3")
    return from_vertices(ideal.gens)


def from_vertices(points) -> NewtonPolyhedron:
    """Polyhedron conv(points) + orthant from an arbitrary point set (k <= 3)."""
    pts = [tuple(p) for p in points]
    k = len(pts[0])
    if k == 1:
        c = min(p[0] for p in pts)
        return NewtonPolyhedron(1, ((c,),), (((1,), c),) if c > 0 else ())
    if k == 2:
        verts = staircase_vertices(pts)
        return NewtonPolyhedron(2, tuple(verts), tuple(_chain_facets_2d(verts)))
    if k == 3:
        verts, facets = orthant_hull_3d(pts)
        return NewtonPolyhedron(3, verts, facets)
    raise UnsupportedDimension(f"from_vertices in dimension {k}")


_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def orthant_hull_3d(points):
    """Vertices and facets of conv(points) + orthant in R^3, for points >= 0.

    Beneath-beyond incremental hull (the deterministic form of the
    Clarkson-Shor randomized incremental construction) in homogeneous
    integer coordinates: an integer point p becomes (p, 1), a rational one
    (L p, L) with L the lcm of its denominators, and the axis directions
    e_i become points at infinity (e_i, 0).  Starting from the tetrahedron
    e_1, e_2, e_3 and the first point, the points are inserted by
    decreasing largest coordinate: those far out on the axes carry the
    facets that meet the axes, so most later points lie beneath the hull
    and see no triangle.  A point that sees triangles strictly (the sign of
    an integer 4x4 determinant, a dot product with each triangle's plane)
    removes them and joins their horizon to itself; O(n F) tests for n
    points and F triangles.  Triangles are index triples into the sorted
    input, so the result does not depend on the input's order.  At the end
    the face at infinity (w = 0) is dropped and coplanar triangles merge by
    primitive normal.

    Vertices are input tuples.  A facet's c is <a, p> for the lex-first
    input point p on it (a vertex of the facet, so on some triangle), so c
    is an int for integer input and has that point's type otherwise;
    facets with c <= 0 are not stored.  A point is a vertex when it lies on
    three distinct facets, counting the coordinate plane x_i = 0 wherever
    its i-th coordinate is 0: in a 3-dimensional polyhedron a point in the
    relative interior of an edge lies on two facets, one inside a facet on
    one.
    """
    pts = sorted(set(map(tuple, points)))
    gens = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    for p in pts:
        if type(p[0]) is int and type(p[1]) is int and type(p[2]) is int:
            gens.append((*p, 1))
        else:
            den = lcm(*(x.denominator for x in p))
            gens.append(tuple(x.numerator * (den // x.denominator) for x in p) + (den,))
    order = sorted(range(3, len(gens)), key=lambda i: -max(pts[i - 3]))
    # strictly inside the first tetrahedron, hence inside every later hull
    w0, w1, w2, w3 = map(sum, zip(*gens[:3], gens[order[0]]))

    def triangle(i, j, k):
        """(i, j, k, n_0, n_1, n_2, n_3) for i < j < k, n the inward normal."""
        n0, n1, n2, n3 = _plane(gens[i], gens[j], gens[k])
        if n0 * w0 + n1 * w1 + n2 * w2 + n3 * w3 < 0:
            return i, j, k, -n0, -n1, -n2, -n3
        return i, j, k, n0, n1, n2, n3

    # <n, g> >= 0 for every point g taken, each triangle (i, j, k, *n)
    q = order[0]
    tris = [triangle(0, 1, 2), triangle(0, 1, q), triangle(0, 2, q), triangle(1, 2, q)]
    for q in order[1:]:
        g0, g1, g2, g3 = gens[q]
        seen = [t for t in tris if t[3] * g0 + t[4] * g1 + t[5] * g2 + t[6] * g3 < 0]
        if not seen:
            continue
        horizon: dict[tuple[int, int], bool] = {}
        for i, j, k, *_ in seen:
            for edge in ((i, j), (j, k), (i, k)):
                horizon[edge] = edge not in horizon
        tris = [t for t in tris if t[3] * g0 + t[4] * g1 + t[5] * g2 + t[6] * g3 >= 0]
        for (i, j), once in horizon.items():
            if once:
                tris.append(triangle(i, j, q) if q > j else
                            triangle(i, q, j) if q > i else triangle(q, i, j))

    first: dict[tuple, int] = {}  # primitive normal -> lex-first point on it
    incident: dict[int, set] = {}
    for i, j, k, n0, n1, n2, _ in tris:
        if k < 3:
            continue  # the face at infinity
        g = gcd(n0, n1, n2)
        a = (n0 // g, n1 // g, n2 // g)
        ends = (i, j, k) if i >= 3 else (j, k) if j >= 3 else (k,)
        first[a] = min(first.get(a, ends[0]), ends[0])
        for e in ends:
            incident.setdefault(e, set()).add(a)
    facets = []
    for a, i in first.items():
        c = _dot(a, pts[i - 3])
        if c > 0:
            facets.append((a, c))
    verts = []
    for i in sorted(incident):
        p, normals = pts[i - 3], incident[i]
        if len(normals | {_AXES[j] for j in range(3) if p[j] == 0}) >= 3:
            verts.append(p)
    return tuple(verts), tuple(sorted(facets))


def _plane(a, b, c):
    """n with <n, x> = det(a, b, c, x) for 4-vectors (cofactors of the last row)."""
    m01, m02, m03 = a[0] * b[1] - a[1] * b[0], a[0] * b[2] - a[2] * b[0], a[0] * b[3] - a[3] * b[0]
    m12, m13, m23 = a[1] * b[2] - a[2] * b[1], a[1] * b[3] - a[3] * b[1], a[2] * b[3] - a[3] * b[2]
    return (
        -(c[1] * m23 - c[2] * m13 + c[3] * m12),
        c[0] * m23 - c[2] * m03 + c[3] * m02,
        -(c[0] * m13 - c[1] * m03 + c[3] * m01),
        c[0] * m12 - c[1] * m02 + c[2] * m01,
    )


def vertices_from_halfspaces(k: int, facets) -> tuple[tuple[Point, ...], tuple[Facet, ...]]:
    """Vertices (sorted) and facets of {x >= 0 : <a, x> >= c} for k = 2, 3,
    integer normals a >= 0, a != 0, and (in k = 3) every c > 0.

    k = 2 is ``envelope_2d``.  k = 3 is one ``orthant_hull_3d`` of the
    blocker B = conv(a / c) + orthant, the set of y >= 0 with <y, x> >= 1
    on the region (Fulkerson, "Blocking and anti-blocking pairs of
    polyhedra", 1971).  The region's vertices are n / d for the stored
    facets (n, d) of B, and its facets are <b, x> >= 1, made primitive,
    for the vertices b of B; so c is a ``Fraction``.
    """
    if k == 2:
        return envelope_2d(facets)
    if k != 3:
        raise UnsupportedDimension("halfspace regions are limited to k <= 3")
    points, dual = orthant_hull_3d([tuple(Fraction(x) / c for x in a) for a, c in facets])
    verts = sorted(tuple(Fraction(x * d.denominator, d.numerator) for x in n) for n, d in dual)
    out = []
    for b in points:
        a = primitive(b)
        i = next(j for j, x in enumerate(a) if x)
        out.append((a, Fraction(a[i] * b[i].denominator, b[i].numerator)))
    return tuple(verts), tuple(sorted(out))


def envelope_2d(facets) -> tuple[tuple[Point, ...], tuple[Facet, ...]]:
    """Vertices (by increasing x) and facets of {x, y >= 0 : a0 x + a1 y >= c},
    for integer normals.

    With nonnegative normals the region is {x >= wall, y >= F(x)}, where
    wall is the largest c/a0 of a facet with a1 = 0 (or 0) and F is the
    upper envelope of the lines y = (c - a0 x)/a1 and y = 0.  Its vertices
    are (wall, F(wall)) and the breakpoints of F right of the wall.

    The arithmetic is in integers: with D the common denominator of the c
    and L that of the slopes, the line of (a0, a1, c) is
    D L y = K - S x for the integers S = a0 D L/a1 and K = c D L/a1.  Lines
    are sorted by S, each pop is the sign of a 3x3 determinant, and only
    the vertices become ``Fraction``s.  The facets are the input facets of
    the lines that carry an edge (made primitive if they are not), the
    wall (1, 0) and the floor (0, 1), the last two with ``Fraction`` c.
    """
    facets = list(facets)
    den = lcm(*(c.denominator for _, c in facets))
    slopes_den = lcm(*(a[1] for a, _ in facets if a[1]))
    wall_num, wall_den = 0, 1
    best = {0: (0, None)}  # S -> (K, facet) of the highest line of that slope
    for facet in facets:
        (a0, a1), c = facet
        num = c.numerator * (den // c.denominator)
        if a1 == 0:
            if num * wall_den > wall_num * den * a0:
                wall_num, wall_den = num, den * a0
            continue
        q = slopes_den // a1
        s, k = a0 * den * q, num * q
        if s not in best or k > best[s][0]:
            best[s] = (k, facet)
    # lines by decreasing S, i.e. increasing slope -S: left to right
    hull: list[tuple[int, int, Facet]] = []
    for s3, (k3, f3) in sorted(best.items(), reverse=True):
        while len(hull) >= 2:
            (s1, k1, _), (s2, k2, _) = hull[-2], hull[-1]
            # hull[-1] leaves the envelope when the new line meets hull[-2]
            # at or left of where hull[-1] does: det((1, S, K) rows) <= 0
            if (k1 - k3) * (s1 - s2) > (k1 - k2) * (s1 - s3):
                break
            hull.pop()
        hull.append((s3, k3, f3))
    scale = den * slopes_den
    first = 0
    while first < len(hull) - 1:
        (s1, k1, _), (s2, k2, _) = hull[first], hull[first + 1]
        if (k1 - k2) * wall_den > wall_num * (s1 - s2):
            break
        first += 1
    s, k, _ = hull[first]
    verts = [(Fraction(wall_num, wall_den), Fraction(k * wall_den - s * wall_num, wall_den * scale))]
    for (s1, k1, _), (s2, k2, _) in zip(hull[first:], hull[first + 1:]):
        verts.append((Fraction(k1 - k2, s1 - s2), Fraction(s1 * k2 - s2 * k1, (s1 - s2) * scale)))
    out = [_primitive_facet(f) for _, _, f in hull[first:-1]]
    if wall_num > 0:
        out.append(((1, 0), verts[0][0]))
    if hull[-1][1] > 0:
        out.append(((0, 1), verts[-1][1]))
    return tuple(verts), tuple(sorted(out))


def _primitive_facet(facet) -> Facet:
    """An input facet in stored form: primitive normal, c an int when integral."""
    a, c = facet
    if gcd(*a) != 1:
        return _normalize_facet(a, c)
    return tuple(a), (c.numerator if c.denominator == 1 else c)


# -- 3d volume ----------------------------------------------------------------


def _covolume_3d(vertices, facets) -> Fraction:
    """Volume of orthant minus P as a sum of cones from the origin.

    Each stored facet <a, x> >= c (c > 0) contributes the cone over its
    vertex ring, fanned as |det(r_0, r_i, r_{i+1})| / 6; the determinants
    are summed in the vertices' type (ints for an ideal) and divided once.
    When every axis meets P, such facets have strictly positive normals, so
    they are compact and their cones tile the complement.
    """
    for i in range(3):
        if not any(all(v[j] == 0 for j in range(3) if j != i) for v in vertices):
            raise UnboundedComplement(f"axis {i} never enters the polyhedron")
    total = 0
    for (a0, a1, a2), c in facets:
        r0, *ring = _ring([v for v in vertices if a0 * v[0] + a1 * v[1] + a2 * v[2] == c])
        for u, w in zip(ring, ring[1:]):
            total += abs(_dot(r0, _cross(u, w)))
    return Fraction(total, 6)


def _ring(points):
    """Cyclic order of the vertices of a compact facet (a_z > 0).

    Projected to (x, y) they stay in convex position; sorted, the ones
    right of the chord from the first to the last come before it.
    """
    pts = sorted(points)
    lo, hi = pts[0], pts[-1]
    right = [p for p in pts[1:-1] if _cross2(lo, hi, p) < 0]
    left = [p for p in pts[1:-1] if _cross2(lo, hi, p) > 0]
    return [lo, *right, hi, *reversed(left)]
