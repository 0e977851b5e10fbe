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

One exact routine per dimension builds the polyhedron from points: a
sorted staircase chain in k = 2 and, in k = 3, ``orthant_hull_3d``, an
incremental beneath-beyond hull (``_hull_3d``) on homogeneous integer
points that treats the axis directions as points at infinity.  The 3D
covolume is a sum of cones from the origin over the facets.  One routine,
``vertices_from_halfspaces``, builds every region given by any list of
halfspaces in k <= 3: it drops the vacuous ones (c <= 0), takes the
largest c / a in k = 1, the integer line envelope in k = 2, and in k = 3
one ``_hull_3d`` of the blocker, whose facets are the region's vertices
and whose vertices are its facets.

Everything is exact and in integers: integer data stay ints throughout,
and rational data are carried over one integer denominator, cleared once
by ``_clear_denominators`` (a 2D chain, the points of a 3D hull, the
vertices of either covolume) or by the blocker (a facet with c = p/q as
the point (q a, p)), so a ``Fraction`` is made only for a value that
leaves the layer: a vertex, a facet's c, a volume.  No floats anywhere.
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
from .monomial import MonomialIdeal

Point = tuple
Facet = tuple  # (normal: tuple[int, ...], c: Fraction or int)


# -- small exact linear algebra ---------------------------------------------


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _clear_denominators(points):
    """(D, the points times D as int tuples), D the lcm of the coordinates'
    denominators; all-int points come back as they are, with D = 1."""
    if all(type(x) is int for p in points for x in p):
        return 1, points
    ratios = [[x.as_integer_ratio() for x in p] for p in points]
    den = lcm(*(d for r in ratios for _, d in r))
    return den, [tuple(n * (den // d) for n, d in r) for r in ratios]


def primitive(nums) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same direction)."""
    ints = tuple(nums)
    if not all(type(x) is int for x in ints):
        _, (ints,) = _clear_denominators([ints])
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else ints


def _normalize_facet(normal, c) -> Facet:
    """Divide an integer normal by its gcd g, and c along; c stays an int
    when g divides it and is an int whenever it is integral."""
    g = gcd(*normal)
    if type(c) is int and c % g == 0:
        return tuple(x // g for x in normal), c // g
    if g > 1:
        c = Fraction(c, g)
    return tuple(x // g for x in normal), (c.numerator if c.denominator == 1 else c)


# -- 2d staircase machinery --------------------------------------------------


def staircase_vertices(points) -> list[Point]:
    """Extreme points of conv(points) + orthant in the plane.

    Returns the boundary chain sorted by increasing x (so decreasing y),
    with collinear interior points dropped.  One pass in lex order skips
    every point no lower than the last one kept, the lowest so far.
    """
    hull: list[Point] = []
    for p in sorted(map(tuple, points)):
        x, y = p
        if hull and y >= hull[-1][1]:
            continue
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) > (y1 - y0) * (x - x0):
                break  # a strict left turn: hull[-1] stays
            hull.pop()
        hull.append(p)
    return hull


def _chain_facets_2d(verts) -> list[Facet]:
    """Edge facets of a staircase chain, then its axis facets.  On the chain
    cleared as D X an edge's c is <n, X> / (g D), a Fraction if not integral."""
    den, chain = _clear_denominators(verts)
    facets = []
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        a, b = y1 - y2, x2 - x1
        g, c = gcd(a, b), a * x1 + b * y1
        q, r = divmod(c, g * den)
        facets.append(((a // g, b // g), Fraction(c, g * den) if r else q))
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
        if t == 1:
            return self
        if t.denominator == 1:
            t = t.numerator  # integer data stay ints
        verts = tuple(tuple(x * t for x in v) for v in self.vertices)
        facets = tuple((a, c * t) for a, c in self.facets)
        return NewtonPolyhedron(self.dim, verts, facets)


def _shoelace(poly) -> Fraction:
    """Area of a polygon: the integer shoelace sum of D p, divided by 2 D^2."""
    den, poly = _clear_denominators(poly)
    total = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]))
    return Fraction(abs(total), 2 * den * den)


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
_AXES_AT_INFINITY = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def orthant_hull_3d(points):
    """Vertices and facets of conv(points) + orthant in R^3, for points >= 0.

    The points become homogeneous integer points (D p, D) for ``_hull_3d``,
    with D the lcm of all their denominators (1 for integer points).  They
    are sorted first, so the result does not depend on the input's order,
    and inserted by decreasing largest coordinate.

    Vertices are input tuples.  A facet's c is <a, p> for the lex-first
    input point p on it, so c is an int for integer input and has that
    point's type otherwise; facets with c <= 0 are not stored.
    """
    pts = sorted(set(map(tuple, points)))
    den, ints = _clear_denominators(pts)
    gens = [*_AXES_AT_INFINITY, *((*q, den) for q in ints)]
    first, verts = _hull_3d(gens, sorted(range(3, len(gens)), key=lambda i: -max(pts[i - 3])))
    facets = []
    for a, i in first.items():
        c = _dot(a, pts[i - 3])
        if c > 0:
            facets.append((a, c))
    return tuple(pts[i - 3] for i in verts), tuple(sorted(facets))


def _hull_3d(gens, order):
    """Facets and vertices of conv + orthant of homogeneous integer points.

    Beneath-beyond incremental hull (the deterministic form of the
    Clarkson-Shor randomized incremental construction): gens[:3] are the
    axis directions as points at infinity (e_i, 0), every later gen is a
    point (L p, L) with L > 0, and ``order`` lists the indices >= 3 in
    insertion order.  Points far out on the axes, inserted first, carry the
    facets that meet the axes, so most later points lie beneath the hull
    and see no triangle.  Starting from the tetrahedron e_1, e_2, e_3 and
    the first point, a point that sees triangles strictly (the sign of an
    integer 4x4 determinant, a dot product with each triangle's plane)
    removes them and joins their horizon to itself; O(n F) tests for n
    points and F triangles.  At the end the face at infinity (w = 0) is
    dropped and coplanar triangles merge by primitive normal.

    Returns a dict from each primitive normal to the least index of a point
    on it, and the sorted indices of the vertices.  A point is a vertex
    when it lies on three distinct facets, counting the coordinate plane
    x_i = 0 wherever its i-th coordinate is 0: in a 3-dimensional
    polyhedron a point in the relative interior of an edge lies on two
    facets, one inside a facet on one.  Neither depends on ``order``.
    """
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

    first: dict[tuple, int] = {}  # primitive normal -> least point index on it
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
    verts = []
    for i in sorted(incident):
        p, normals = gens[i], incident[i]
        if len(normals | {_AXES[j] for j in range(3) if p[j] == 0}) >= 3:
            verts.append(i)
    return first, verts


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
    """Vertices (sorted) and facets of {x >= 0 : <a, x> >= c} for k <= 3 and
    any list of integer normals a >= 0, a != 0 and int or ``Fraction`` c:
    facets with c <= 0 are dropped, and with none left the region is the
    orthant.  Vertices and c are ``Fraction``s in k = 1 and 3.

    k = 1 is x >= max c / a.  k = 3 is one ``_hull_3d`` of the blocker
    B = conv(a / c) + orthant, the y >= 0 with <y, x> >= 1 on the region
    (Fulkerson, "Blocking and anti-blocking pairs of polyhedra", 1971),
    whose facets are the region's vertices and whose vertices are its
    facets.  With c = p / q the point a / c is the homogeneous integer
    point (q a, p), in lowest terms so that equal points coincide; a facet
    <n, y> >= <n, X> / w of B, through the point (X, w), is the vertex
    n w / <n, X> of the region, and a vertex (X, w) of B is the facet
    <X / g, x> >= w / g, with g = gcd(X).  Only those values become
    ``Fraction``s.  k = 2 is ``envelope_2d``: on Theorem 2 intersections of
    130 to 2,050 facets a blocker on ``Fraction`` points took 13-14 times
    as long (Python 3.11.7, 2 shared vCPUs).
    """
    facets = [(a, c) for a, c in facets if c > 0]
    if k == 2:
        return envelope_2d(facets)
    if k not in (1, 3):
        raise UnsupportedDimension("halfspace regions are limited to k <= 3")
    if not facets:
        return ((0,) * k,), ()
    if k == 1:
        b = max(Fraction(c) / a for (a,), c in facets)
        return ((b,),), (((1,), b),)
    points = set()
    for (a0, a1, a2), c in facets:
        # gcd(q a, p) = gcd(a, p), as p and q are coprime
        p, q = c.numerator, c.denominator
        g = gcd(a0, a1, a2, p)
        points.add((q * (a0 // g), q * (a1 // g), q * (a2 // g), p // g))
    gens = [*_AXES_AT_INFINITY, *sorted(points)]
    # insertion by decreasing largest coordinate max(X) / w, over the lcm of the w
    den = lcm(*(g[3] for g in gens[3:]))
    first, corners = _hull_3d(gens, sorted(range(3, len(gens)),
                                           key=lambda i: -max(gens[i][:3]) * (den // gens[i][3])))
    verts = []
    for a, i in first.items():
        x0, x1, x2, w = gens[i]
        s = a[0] * x0 + a[1] * x1 + a[2] * x2
        if s > 0:
            verts.append(tuple(Fraction(n * w, s) for n in a))
    out = []
    for i in corners:
        x0, x1, x2, w = gens[i]
        g = gcd(x0, x1, x2)
        out.append(((x0 // g, x1 // g, x2 // g), Fraction(w, g)))
    return tuple(sorted(verts)), tuple(sorted(out))


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
    out = [_normalize_facet(*f) for _, _, f in hull[first:-1]]
    if wall_num > 0:
        out.append(((1, 0), verts[0][0]))
    if hull[-1][1] > 0:
        out.append(((0, 1), verts[-1][1]))
    return tuple(verts), tuple(sorted(out))


# -- 3d volume ----------------------------------------------------------------


def _covolume_3d(vertices, facets) -> Fraction:
    """Volume of orthant minus P as a sum of cones from the origin.

    Each stored facet <a, x> >= c (c > 0) contributes the cone over its
    vertex ring, fanned as |det(r_0, r_i, r_{i+1})| / 6.  Rational vertices
    are scaled by the lcm D of their denominators first, so the
    determinants are integers, summed and divided once, by 6 D^3.  When
    every axis meets P, such facets have strictly positive normals, so they
    are compact and their cones tile the complement.
    """
    for i in range(3):
        if not any(all(v[j] == 0 for j in range(3) if j != i) for v in vertices):
            raise UnboundedComplement(f"axis {i} never enters the polyhedron")
    den, vertices = _clear_denominators(vertices)
    total = 0
    for (a0, a1, a2), c in facets:
        # c D is an integer: c = <a, v> for a vertex v on the facet
        c = c.numerator * (den // c.denominator)
        r0, *ring = _ring([v for v in vertices if a0 * v[0] + a1 * v[1] + a2 * v[2] == c])
        for u, w in zip(ring, ring[1:]):
            total += abs(_dot(r0, _cross(u, w)))
    return Fraction(total, 6 * den**3)


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
