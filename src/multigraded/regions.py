"""Builders for closed convex regions of the orthant that absorb the orthant.

Every region is a ``NewtonPolyhedron``, the one polyhedron type of
``newton``.  This module holds its builders: halfspace regions, the
boundary functions of the pathological constructions and their
epigraphs, the region algebra (intersection, Minkowski sum),
lattice-generator extraction by one integer scan, row by row along the
sloped facets' line envelope, for every k <= 3, and the gauge of the
reflected symmetric body.  Every halfspace
region is one ``newton.vertices_from_halfspaces``, which takes any list
of facets, so ``region_from_halfspaces`` only checks outside input.

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
from functools import cmp_to_key, lru_cache
from operator import itemgetter, mul

from .errors import (
    DimensionMismatch,
    EmptyRegion,
    UnsupportedDimension,
    WorkLimitExceeded,
)
# minimalize is unused here; perfbench's install test asserts that this
# module's alias of it is wrapped
from .monomial import MonomialIdeal, _trusted, minimalize  # noqa: F401
from .newton import (
    NewtonPolyhedron,
    _chain_facets_2d,
    _clear_denominators,
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
    def intercept(self) -> Fraction:
        x, v = self.breakpoints[-1]
        return x - v / self.slopes[-1]

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


# Largest kink counts of the two constructions, refused before anything is
# built.  Their cost grows about as N^3, as the i-th term has about i bits:
# `repro thm2` took 9.3, 55 and 478 s at N = 4096, 8192 and 16384 (with a
# 2x2 grid, 281 s and 2,956 MB max RSS at 16384), and
# `repro appendix`, whose certificate takes N + 4 gauges of 4N + 4
# functionals each, 6.4, 42 and 362 s at N = 256, 512 and 1024 (Python
# 3.11.7, 2 shared vCPUs), so one more doubling of either would run for
# about an hour.
MAX_KINKS = 16384
MAX_APPENDIX_KINKS = 1024


@lru_cache(maxsize=64)
def build_kinked_f(n_kinks: int) -> PiecewiseLinearFn:
    """The steep line -2x + 2 plus n_kinks hinge terms w_i max(0, e_i - x),
    w_i = 2^-(i+2).

    Kink abscissae e_i run through the dyadic enumeration of (0,1); the
    slope jump at e_i is exactly w_i, and the total lift of the value at 0
    stays below 1, so the function keeps slope <= -2 and intercept 1.
    The result is frozen, so it is built once per n_kinks and shared.
    """
    if n_kinks < 0:
        raise ValueError(f"n_kinks must be >= 0, got {n_kinks}")
    if n_kinks > MAX_KINKS:
        raise WorkLimitExceeded(f"{n_kinks} kinks are over the limit of {MAX_KINKS}")
    eps = dyadic_sequence(n_kinks)
    weights = [Fraction(1, 2 ** (i + 2)) for i in range(1, n_kinks + 1)]
    return _hinge_sum(2 + sum(map(mul, weights, eps)), -2 - sum(weights), zip(eps, weights))


def build_g() -> PiecewiseLinearFn:
    """The line 1 - x/2 on [0, 2]."""
    return PiecewiseLinearFn(((Fraction(0), Fraction(1)),), (Fraction(-1, 2),))


# -- regions -------------------------------------------------------------------

# Largest number of columns (x, y) a lattice scan may visit.  For F sloped
# facets a row of c columns costs O(F + c) by its line envelope, or O(F c)
# column by column when c <= F, so past F columns a row's cost per column
# does not grow with F: the 923,521 columns of an 80-facet region take
# about 0.2 s.  Past the cap lie dilations whose scan box grows as
# (m c)^2 for k = 3, such as a facet with c = 1e400; they are refused up
# front.
MAX_SCAN_COLUMNS = 1_000_000


def full_orthant(k: int) -> NewtonPolyhedron:
    return NewtonPolyhedron(k, ((0,) * k,), ())


def region_from_halfspaces(k: int, facets) -> NewtonPolyhedron:
    """Region {x >= 0 : <a, x> >= c} from outside input: every normal must be
    nonnegative and nonzero.  Integer normals pass through untouched, with
    c; rational ones are scaled to integer ones, c along.
    ``vertices_from_halfspaces`` does the rest."""
    scaled = []
    for a, c in facets:
        if any(x < 0 for x in a) or all(x == 0 for x in a):
            raise ValueError(f"facet normal {a!r} must be nonzero and nonnegative")
        den, (a,) = _clear_denominators([a])
        scaled.append((a, Fraction(c) * den if den > 1 else c))
    return NewtonPolyhedron(k, *vertices_from_halfspaces(k, scaled))


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


def region_intersect(p: NewtonPolyhedron, q: NewtonPolyhedron) -> NewtonPolyhedron:
    """P intersect Q from the concatenated facets of both (see
    ``vertices_from_halfspaces``): repeated facets cost nothing, as the
    envelope keeps one line per slope and the hull one point per position."""
    if p.dim != q.dim:
        raise DimensionMismatch("regions in different dimensions")
    return NewtonPolyhedron(p.dim, *vertices_from_halfspaces(p.dim, p.facets + q.facets))


def region_minkowski(p: NewtonPolyhedron, q: NewtonPolyhedron) -> NewtonPolyhedron:
    if p.dim != q.dim:
        raise DimensionMismatch("regions in different dimensions")
    sums = [tuple(a + b for a, b in zip(u, v)) for u in p.vertices for v in q.vertices]
    return from_vertices(sums)


def lattice_generators(region: NewtonPolyhedron, m: int) -> MonomialIdeal:
    """Minimal generators of the ideal of all lattice points of m * region.

    One integer scan, row by row, for every k <= 3, read straight off the
    region's stored data: a facet <a, x> >= p/q of the region is the
    integer inequality q <a, x> >= m p of m * region.  A region with k < 3
    gets 3 - k leading zero coordinates on its facets, and each generator
    drops them again.  Column (x, y) holds the points z >= h(x, y), where h
    is the least z >= 0 meeting every facet with a_z > 0; a column breaking
    a facet with a_z = 0 holds none.  Those flat facets give each row x its
    first nonempty column at once.  On the rest of the row h is the ceiling
    of the upper envelope of the sloped facets' lines
    z = (c - a_x x - a_y y) / a_z and of z = 0, built per row in integers
    from the lines sorted by slope once per call (``_envelope_heights``); each
    column is one floor division of its segment's line.  A row of no more
    columns than the F sloped facets takes the max over the lines column
    by column instead, at most F divisions per column: a few columns
    against many facets with large integers (the Theorem 2 kinked
    epigraph at N = 2048, scanned at m <= 6) cost far less that way than
    the envelope's products.  h is nonincreasing in x and
    y, so (x, y, h) is a minimal generator exactly when h lies strictly
    below both h(x - 1, y) and h(x, y - 1); the scan emits the lex-sorted
    antichain directly, with no domination filter.

    Each axis stops at b_i = ceil(m v_i) for the largest vertex coordinate
    v_i: a point u = p + r of m * region (p in the vertices' hull, r >= 0)
    with u_i > b_i has r_i >= 1, so u - e_i is in it too and u is not
    minimal.  The same bound caps every nonempty column's h at b_z.  A box
    of more than ``MAX_SCAN_COLUMNS`` columns (x, y) is refused before the
    scan starts.
    """
    if m < 1:
        raise ValueError("dilation factor must be a positive integer")
    k = region.dim
    if k > 3:
        raise UnsupportedDimension("lattice scans are limited to k <= 3")
    pad = (0,) * (3 - k)
    bx, by, bz = pad + tuple(max(-(-m * t.numerator // t.denominator) for t in ts)
                             for ts in zip(*region.vertices))
    if (bx + 1) * (by + 1) > MAX_SCAN_COLUMNS:
        raise WorkLimitExceeded(
            f"lattice scan of {m} * region needs more columns than the limit of "
            f"{MAX_SCAN_COLUMNS}"
        )
    flat, sloped = [], []
    for a, c in region.facets:
        q, mp = c.denominator, m * c.numerator
        ax, ay, az = (*pad, *a) if q == 1 else (q * t for t in (*pad, *a))
        (sloped if az > 0 else flat).append((ax, ay, az, mp))
    if by >= len(sloped):  # some row may be scanned by its envelope
        # least slope -a_y / a_z first: a_y / a_z decreasing
        sloped.sort(key=cmp_to_key(lambda s, t: t[1] * s[2] - s[1] * t[2]))
    empty = bz + 1  # the height of a column holding no point
    gens = []
    below = [empty] * (by + 1)  # h(x - 1, y) for every y
    for x in range(bx + 1):
        # the first column meeting every flat facet; by + 1 if none does
        y0 = 0
        for ax, ay, _, cc in flat:
            if ay:
                y0 = max(y0, -((ax * x - cc) // ay))
            elif ax * x < cc:
                y0 = by + 1
        if y0 > by:
            continue
        if by - y0 < len(sloped):
            # -(-n // az) is ceil(n / az) for n = cc - ax x - ay y
            row = [max([0] + [-((ax * x + ay * y - cc) // az) for ax, ay, az, cc in sloped])
                   for y in range(y0, by + 1)]
        else:
            # each line as (a_y, a_z, a_x x - c), then the floor z = 0
            lines = [(ay, az, ax * x - cc) for ax, ay, az, cc in sloped]
            row = _envelope_heights(lines + [(0, 1, 0)], y0, by + 1)
        left = empty  # h(x, y - 1)
        for y, h in enumerate(row, y0):
            if h < left and h < below[y]:
                gens.append((x, y, h)[3 - k:])
            left = h
        below[y0:] = row
    if not gens:
        raise EmptyRegion("no lattice points in the scan box")
    return _trusted(k, tuple(gens))


def _envelope_heights(lines, lo: int, hi: int) -> list[int]:
    """Ceilings, at the integers y in [lo, hi), of the upper envelope of the
    lines z = -(a_y y + p) / a_z given as (a_y, a_z, p) by slope -a_y / a_z
    increasing: one list per envelope segment, a constant one where a_y = 0.

    Line t reaches line s of lesser slope from the integer
    ceil((p_t a_zs - p_s a_zt) / d) on, d = a_ys a_zt - a_yt a_zs > 0.  A
    line reaching the top of the stack no later than the top took over
    buries it; one reaching it only at hi or later is never on top."""
    stack = []  # (a_y, a_z, p, first integer y where the line is on top)
    for ay, az, p in lines:
        start = lo
        while stack:
            ays, azs, ps, s = stack[-1]
            d = ays * az - ay * azs
            if d:
                start = -((ps * az - p * azs) // d)
            else:  # parallel: the higher line wins everywhere
                start = lo if p * azs <= ps * az else hi
            if start > s:
                break
            stack.pop()
            start = lo
        if start < hi:
            stack.append((ay, az, p, start))
    heights = []
    for (ay, az, p, s), (*_, e) in zip(stack, stack[1:] + [(hi,)]):
        if ay:  # a_y y + p runs through an arithmetic progression
            heights += [-(v // az) for v in range(ay * s + p, ay * e + p, ay)]
        else:
            heights += [-(p // az)] * (e - s)
    return heights


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
    if n_terms > MAX_APPENDIX_KINKS:
        raise WorkLimitExceeded(f"{n_terms} kinks are over the limit of "
                                f"{MAX_APPENDIX_KINKS}")
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
    for (x1, y1), (x2, y2) in zip(polygon, polygon[1:] + polygon[:1]):
        det = x1 * y2 - x2 * y1  # > 0: the boundary's values are positive
        functionals.append(((y2 - y1) / det, (x1 - x2) / det))
    return SymmetricBody(tuple(polygon), tuple(functionals), kinks)
