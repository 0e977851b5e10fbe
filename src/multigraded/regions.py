"""Builders for closed convex regions of the orthant that absorb the orthant.

Every region is a ``NewtonPolyhedron``, the one polyhedron type of
``newton``.  This module holds its builders: halfspace regions, the
boundary functions of the pathological constructions and their
epigraphs, the region algebra (intersection, Minkowski sum),
lattice-generator extraction, and the gauge of the reflected symmetric
body.

Every boundary function is one ``PiecewiseLinearFn``.  Both of the
paper's constructions are sums of dyadic hinge terms, built by one sweep
(``_hinge_sum``) that adds each term's slope jump at its abscissa: the
kinked convex boundary of Theorem 2 (``build_kinked_f``) and the
Appendix's concave boundary (``appendix_boundary``).  The line companion
``build_g`` has a single piece.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, lcm
from operator import itemgetter, mul

from .errors import (
    DimensionMismatch,
    EmptyRegion,
    UnsupportedDimension,
)
from .monomial import MonomialIdeal, _trusted, minimalize
from .newton import (
    NewtonPolyhedron,
    _chain_facets_2d,
    from_vertices,
    vertices_from_halfspaces,
)


def dyadic_sequence(n: int) -> list[Fraction]:
    """First n dyadic rationals of (0,1): 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, ..."""
    out: list[Fraction] = []
    level = 1
    while len(out) < n:
        for num in range(1, 2**level, 2):
            out.append(Fraction(num, 2**level))
            if len(out) == n:
                break
        level += 1
    return out


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Continuous piecewise-linear function on [0, intercept], 0 after.

    ``breakpoints`` are (abscissa, value) pairs with abscissa 0 first;
    ``slopes[j]`` is the slope to the right of breakpoint j.  Values are
    positive and the last slope is negative, so the function hits zero at
    a finite intercept.  Convexity is not required here: ``epigraph_region``
    checks it.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    slopes: tuple[Fraction, ...]

    def __post_init__(self):
        bps, sl = self.breakpoints, self.slopes
        if len(bps) != len(sl) or not bps:
            raise ValueError("need one slope per breakpoint")
        if bps[0][0] != 0:
            raise ValueError("first breakpoint must be at x = 0")
        for (x1, v1), (x2, v2), s in zip(bps, bps[1:], sl):
            if x2 <= x1 or v2 != v1 + s * (x2 - x1):
                raise ValueError("breakpoints must be increasing and continuous")
        if any(v <= 0 for _, v in bps):
            raise ValueError("breakpoint values must be positive")
        if sl[-1] >= 0:
            raise ValueError("the last slope must be negative")

    @property
    def value_at_zero(self) -> Fraction:
        return self.breakpoints[0][1]

    @property
    def intercept(self) -> Fraction:
        x, v = self.breakpoints[-1]
        return x - v / self.slopes[-1]

    @property
    def kinks(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.breakpoints[1:])

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        if x < 0:
            raise ValueError("defined on x >= 0")
        if x >= self.intercept:
            return Fraction(0)
        # the last breakpoint at or left of x
        j = bisect_right(self.breakpoints, x, key=itemgetter(0)) - 1
        bx, bv = self.breakpoints[j]
        return bv + self.slopes[j] * (x - bx)


def _hinge_sum(value0, slope0, jumps) -> PiecewiseLinearFn:
    """The function with value value0 and slope slope0 at 0 whose slope
    changes by d at each (x, d) of jumps (abscissae distinct and positive):
    one sweep over the sorted abscissae, each value from the one before."""
    bps, slopes = [(Fraction(0), Fraction(value0))], [Fraction(slope0)]
    for x, d in sorted(jumps):
        bx, bv = bps[-1]
        bps.append((x, bv + slopes[-1] * (x - bx)))
        slopes.append(slopes[-1] + d)
    return PiecewiseLinearFn(tuple(bps), tuple(slopes))


@lru_cache(maxsize=64)
def build_kinked_f(n_kinks: int) -> PiecewiseLinearFn:
    """The steep line -2x + 2 plus n_kinks hinge terms w_i max(0, e_i - x),
    w_i = 2^-(i+2).

    Kink abscissae e_i run through the dyadic enumeration of (0,1); the
    slope jump at e_i is exactly w_i, and the total lift of the value at 0
    stays below 1, so the function keeps slope <= -2 and intercept 1.
    The result is frozen, so it is built once per n_kinks and shared.
    """
    eps = dyadic_sequence(n_kinks)
    weights = [Fraction(1, 2 ** (i + 2)) for i in range(1, n_kinks + 1)]
    return _hinge_sum(2 + sum(map(mul, weights, eps)), -2 - sum(weights), zip(eps, weights))


def build_g() -> PiecewiseLinearFn:
    """The line 1 - x/2 on [0, 2]."""
    return PiecewiseLinearFn(((Fraction(0), Fraction(1)),), (Fraction(-1, 2),))


# -- regions -------------------------------------------------------------------


def full_orthant(k: int) -> NewtonPolyhedron:
    return NewtonPolyhedron(k, ((0,) * k,), ())


def region_from_halfspaces(k: int, facets) -> NewtonPolyhedron:
    """Region {x >= 0 : <a, x> >= c} from nonnegative-normal halfspaces.

    Rational normals are scaled to integer ones, c along; the k = 2
    envelope makes only the lines it keeps primitive."""
    kept = []
    for a, c in facets:
        if any(x < 0 for x in a) or all(x == 0 for x in a):
            raise ValueError(f"facet normal {a!r} must be nonzero and nonnegative")
        if Fraction(c) > 0:
            den = lcm(*(Fraction(x).denominator for x in a))
            kept.append((tuple(int(x * den) for x in a), Fraction(c) * den))
    if not kept:
        return full_orthant(k)
    return _from_halfspaces(k, kept)


def _from_halfspaces(k: int, facets) -> NewtonPolyhedron:
    """The region of checked, nonempty halfspaces with integer normals and
    c > 0: in k = 1 the largest c / a, in k = 2 and 3 the vertices and
    facets of ``vertices_from_halfspaces``, one integer line envelope or
    one hull of the blocker; no facet is rebuilt from the vertices."""
    if k == 1:
        return from_vertices([(max(Fraction(c) / a[0] for a, c in facets),)])
    return NewtonPolyhedron(k, *vertices_from_halfspaces(k, facets))


def epigraph_region(fn: PiecewiseLinearFn) -> NewtonPolyhedron:
    """The set above the graph of fn in the first quadrant (k = 2); fn must
    be convex, with strictly increasing slopes."""
    if any(a >= b for a, b in zip(fn.slopes, fn.slopes[1:])):
        raise ValueError("slopes must be strictly increasing")
    verts = [(x, v) for x, v in fn.breakpoints] + [(fn.intercept, Fraction(0))]
    return NewtonPolyhedron(2, tuple(verts), tuple(_chain_facets_2d(verts)))


@lru_cache(maxsize=64)
def thm2_regions(n_kinks: int) -> tuple[NewtonPolyhedron, NewtonPolyhedron]:
    """The Theorem 2 pair (P, Q): the epigraphs of the kinked boundary
    ``build_kinked_f(n_kinks)`` and of the line ``build_g()``; built once per
    n_kinks and shared (both regions are frozen)."""
    return epigraph_region(build_kinked_f(n_kinks)), epigraph_region(build_g())


@lru_cache(maxsize=64)
def thm2_vertex_chain(n_kinks: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(D, D * vertices of P) for the P of ``thm2_regions``, with D the lcm of
    the vertices' denominators: P's boundary chain in integers, from the
    vertex on the y-axis to the one on the x-axis; built once per n_kinks."""
    verts = thm2_regions(n_kinks)[0].vertices
    den = lcm(*(c.denominator for v in verts for c in v))
    return den, tuple((int(x * den), int(y * den)) for x, y in verts)


def region_intersect(p: NewtonPolyhedron, q: NewtonPolyhedron) -> NewtonPolyhedron:
    """P intersect Q from the concatenated facets of both (see
    ``_from_halfspaces``): repeated facets cost nothing, as the envelope
    keeps one line per slope and the hull one point per position."""
    if p.dim != q.dim:
        raise DimensionMismatch("regions in different dimensions")
    merged = p.facets + q.facets
    if not merged:
        return full_orthant(p.dim)
    return _from_halfspaces(p.dim, merged)


def region_minkowski(p: NewtonPolyhedron, q: NewtonPolyhedron) -> NewtonPolyhedron:
    if p.dim != q.dim:
        raise DimensionMismatch("regions in different dimensions")
    sums = [tuple(a + b for a, b in zip(u, v)) for u in p.vertices for v in q.vertices]
    return from_vertices(sums)


def lattice_generators(region: NewtonPolyhedron, m: int) -> MonomialIdeal:
    """Minimal generators of the ideal of all lattice points of m * region.

    k = 2 and k = 3 scan columns in integer arithmetic and emit the
    antichain directly: one column per x between the wall and the last
    vertex (``_lattice_generators_2d``), or O(B^2) columns of the bounding
    box (``_lattice_generators_3d``).
    """
    if m < 1:
        raise ValueError("dilation factor must be a positive integer")
    scaled = region.scale(m) if m != 1 else region
    k = region.dim
    if k == 1:
        return minimalize([(ceil(Fraction(scaled.vertices[0][0])),)], 1)
    if k == 2:
        return _lattice_generators_2d(scaled)
    if k == 3:
        return _lattice_generators_3d(scaled)
    raise UnsupportedDimension("lattice scans are limited to k <= 3")


def _lattice_generators_2d(scaled: NewtonPolyhedron) -> MonomialIdeal:
    """Minimal lattice points of scaled, one column x at a time.

    Column x holds the points y >= h(x), the least y >= 0 meeting every
    sloped facet; h is nonincreasing, so (x, h(x)) is a minimal generator
    exactly when h drops there, and the scan emits the antichain directly.
    """
    x_start = ceil(max([0] + [c for a, c in scaled.facets if a[1] == 0]))
    x_stop = max(x_start, ceil(max(v[0] for v in scaled.vertices)))
    # scaled to integers: a_x x + a_y y >= c
    sloped = [(a[0] * c.denominator, a[1] * c.denominator, c.numerator)
              for a, c in scaled.facets if a[1] > 0]
    gens = []
    for x in range(x_start, x_stop + 1):
        h = max([0] + [-((ax * x - cc) // ay) for ax, ay, cc in sloped])
        if not gens or h < gens[-1][1]:
            gens.append((x, h))
    return _trusted(2, tuple(gens))


def _lattice_generators_3d(scaled: NewtonPolyhedron) -> MonomialIdeal:
    """Minimal lattice points of scaled within the box [0, b_x] x [0, b_y] x [0, b_z].

    Column (x, y) holds the points z >= h(x, y), where h is the least z >= 0
    meeting every facet with a_z > 0 (never above b_z); a column breaking a
    facet with a_z = 0 holds none.  h is nonincreasing in x and y, so
    (x, y, h) is a minimal generator exactly when h lies strictly below
    both h(x - 1, y) and h(x, y - 1); the scan emits the lex-sorted
    antichain directly, with no domination filter.
    """
    bounds = []
    for i in range(3):
        per_axis = [ceil(Fraction(c, a[i])) + 1 for a, c in scaled.facets if a[i] > 0]
        bounds.append(max(per_axis) if per_axis else 0)
    bx, by, bz = bounds
    flat, sloped = [], []
    for a, c in scaled.facets:
        # scaled to integers: a_x x + a_y y + a_z z >= c
        q = [Fraction(t) for t in (*a, c)]
        scale = lcm(*(t.denominator for t in q))
        ax, ay, az, cc = (int(t * scale) for t in q)
        (sloped if az > 0 else flat).append((ax, ay, az, cc))
    empty = bz + 1  # the height of a column holding no point
    gens = []
    below = [empty] * (by + 1)  # h(x - 1, y) for every y
    for x in range(bx + 1):
        left = empty  # h(x, y - 1)
        for y in range(by + 1):
            if any(ax * x + ay * y < cc for ax, ay, _, cc in flat):
                h = empty
            else:
                # -(-n // az) is ceil(n / az) for n = cc - ax x - ay y
                h = max([0] + [-((ax * x + ay * y - cc) // az) for ax, ay, az, cc in sloped])
            if h < left and h < below[y]:
                gens.append((x, y, h))
            below[y] = left = h
    if not gens:
        raise EmptyRegion("no lattice points in the scan box")
    return _trusted(3, tuple(gens))


# -- the appendix construction ---------------------------------------------------


def appendix_boundary(n_terms: int) -> tuple[PiecewiseLinearFn, SymmetricBody]:
    """Sum of n_terms hinge terms min(e_i, e_i (1-x)/(1-x_i)) and its body.

    e_i = 2^-i, kink abscissae x_i from the dyadic enumeration.  Each term
    is the constant e_i left of x_i and drops linearly to 0 at x = 1, so
    the sum is concave, nonincreasing, kinked exactly at the x_i, with
    intercept 1.  The body is the subgraph reflected across both axes: a
    symmetric convex polygon.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    xs = dyadic_sequence(n_terms)
    eps = [Fraction(1, 2**i) for i in range(1, n_terms + 1)]
    boundary = _hinge_sum(sum(eps), 0, ((xi, -e / (1 - xi)) for e, xi in zip(eps, xs)))
    return boundary, _reflect_to_body(boundary)


@dataclass(frozen=True)
class SymmetricBody:
    """Origin-symmetric convex polygon, with gauge functionals per edge.

    gauge(p) = inf{ y > 0 : p/y in body } = max over edges of <u_e, p>,
    where each edge lies on the line <u_e, x> = 1.  The vertices run ccw
    from (1, 0), ``functionals[i]`` belongs to the edge from vertex i to
    vertex i + 1, and the n kink vertices, listed by increasing x, are
    vertices n, ..., 1.
    """

    vertices: tuple[tuple[Fraction, Fraction], ...]
    functionals: tuple[tuple[Fraction, Fraction], ...]
    kink_vertices: tuple[tuple[Fraction, Fraction], ...]

    def gauge(self, p) -> Fraction:
        px, py = Fraction(p[0]), Fraction(p[1])
        best = Fraction(0)
        for u1, u2 in self.functionals:
            best = max(best, u1 * px + u2 * py)
        return best


def _reflect_to_body(boundary: PiecewiseLinearFn) -> SymmetricBody:
    kinks = boundary.breakpoints[1:]
    quarter = [(Fraction(1), Fraction(0)), *reversed(kinks), boundary.breakpoints[0]]
    upper = quarter + [(-x, y) for x, y in reversed(quarter)][1:]
    polygon = upper + [(-x, -y) for x, y in upper[1:-1]]
    functionals = []
    n = len(polygon)
    for i in range(n):
        (x1, y1), (x2, y2) = polygon[i], polygon[(i + 1) % n]
        det = x1 * y2 - x2 * y1
        if det == 0:
            raise EmptyRegion("edge through the origin; body has empty interior")
        functionals.append((Fraction(y2 - y1, 1) / det, Fraction(x1 - x2, 1) / det))
    return SymmetricBody(tuple(polygon), tuple(functionals), kinks)
