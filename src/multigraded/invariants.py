"""Asymptotic invariants of directed systems, by two independent routes.

The sequence route samples per-ideal invariants along monotone schedules
(n = 1!, 2!, ..., L! or n = 1, 2, 4, ..., 2^J) and normalizes; the
geometric route reads the same numbers off the exact limit body.  The
closed forms for the ceiling construction and the kinked intersection
construction live here too.  The kink tables of the kinked intersection's
ord0 and of the appendix gauge come in closed form from one O(N) walk
each, as ``KinkTable``s, and ``KinkTable.matches`` certifies a table
against an evaluation route at its cell midpoints.  The kinked
intersection's evaluation route, ``thm2_ord0``, is an exact 2D linear
program on the kinked region's cached integer vertex chain, solved by
integer bisection in O(log N) steps; it shares no code with the crossing
walk or the tables.  The exact one-sided difference quotient scanner,
which finds the same slopes with 21 evaluations per kink, stays as the
reference of the tests and perfbench.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, pairwise
from math import factorial

from .errors import (
    EvaluationOutOfDomain,
    MonotonicityError,
    NotRegionExpressible,
    UnboundedComplement,
    ZeroIdealInDirection,
)
from .newton import NewtonPolyhedron
from .regions import SymmetricBody, build_kinked_f, thm2_regions, thm2_vertex_chain
from .regions import region_intersect  # noqa: F401  (an alias that perfbench's self-test wraps)
from .systems import CeilingSystem, SystemExpr

QUANTITIES = ("ord0", "arn", "mult")

FACTORIAL_CAP = 7
DOUBLING_CAP = 12


def schedule_points(kind: str, steps: int) -> list[int]:
    if kind == "factorial":
        if not 1 <= steps <= FACTORIAL_CAP:
            raise ValueError(f"factorial schedule needs 1 <= steps <= {FACTORIAL_CAP}")
        return [factorial(i) for i in range(1, steps + 1)]
    if kind == "doubling":
        if not 0 <= steps <= DOUBLING_CAP:
            raise ValueError(f"doubling schedule needs 0 <= steps <= {DOUBLING_CAP}")
        return [2**j for j in range(steps + 1)]
    raise ValueError(f"unknown schedule {kind!r}")


@dataclass(frozen=True)
class InvariantBracket:
    """Monotone schedule samples bracketing an asymptotic invariant from above."""

    quantity: str
    direction: tuple[int, ...]
    samples: tuple[tuple[int, Fraction], ...]
    geometric: Fraction | None = None
    certified: bool = False


def _per_ideal(ideal, quantity: str, n: int) -> Fraction:
    if quantity == "ord0":
        return ideal.ord0() / n
    if quantity == "arn":
        return ideal.arn() / n
    if quantity == "mult":
        return ideal.multiplicity() / Fraction(n) ** ideal.dim
    raise ValueError(f"unknown quantity {quantity!r}")


def sequence_invariant(system: SystemExpr, v, quantity: str,
                       schedule: str = "factorial", steps: int | None = None,
                       with_geometry: bool = True) -> InvariantBracket:
    """Sample the normalized invariant along a monotone schedule.

    Samples are asserted to be nonincreasing (they are, for any honestly
    graded system).  When the system is region-expressible the geometric
    value is attached and the bracket is certified: every sample must sit
    at or above it.
    """
    if steps is None:
        steps = 5 if schedule == "factorial" else 8
    view = system.restrict(v)
    samples = []
    for n in schedule_points(schedule, steps):
        ideal = view.eval(n)
        if ideal.is_zero:
            raise ZeroIdealInDirection(f"zero ideal at n = {n} along {view.direction}")
        samples.append((n, _per_ideal(ideal, quantity, n)))
    for (n1, a), (n2, b) in zip(samples, samples[1:]):
        if b > a:
            raise MonotonicityError(
                f"{quantity} sample rose from {a} (n={n1}) to {b} (n={n2})"
            )
    geometric = None
    certified = False
    if with_geometry:
        try:
            body = view.limit_body()
            geometric = getattr(geometric_invariants(body), quantity)
        except (NotRegionExpressible, ZeroIdealInDirection):
            geometric = None
        if geometric is not None:
            certified = all(val >= geometric for _, val in samples)
    return InvariantBracket(quantity, view.direction, tuple(samples), geometric, certified)


@dataclass(frozen=True)
class GeometricInvariants:
    ord0: Fraction
    arn: Fraction
    mult: Fraction | None  # None when the complement is unbounded


def geometric_invariants(body: NewtonPolyhedron) -> GeometricInvariants:
    """(inf |v|, diagonal lambda, k! Vol of the complement) of a limit body."""
    ord0 = body.ord0()
    arn = body.diagonal_lambda()
    try:
        mult = factorial(body.dim) * body.covolume()
    except UnboundedComplement:
        mult = None
    return GeometricInvariants(ord0, arn, mult)


def ceiling_closed_forms(system: CeilingSystem, v) -> GeometricInvariants:
    """Exact invariants of a ceiling system at a (rational) index vector.

    With deficiency t = max(f(x) - y, 0) the invariants are t times the
    base ideal's order and Arnold multiplicity and t^k times its Samuel
    multiplicity; for the maximal ideal in two variables: (t, t/2, t^2).
    """
    t = system.deficiency(tuple(Fraction(x) for x in v))
    base = system.base
    if t == 0:
        return GeometricInvariants(Fraction(0), Fraction(0), Fraction(0))
    mult = t ** base.dim * base.multiplicity() if base.is_cofinite else None
    return GeometricInvariants(t * base.ord0(), t * base.arn(), mult)


# -- the kinked intersection construction ---------------------------------------


def thm2_ord0(r, s, n_kinks: int) -> Fraction:
    """ord0 of the kinked intersection system at direction (r, s), r, s > 0:
    the exact min of x + y over rP intersect sQ = r(P intersect (s/r)Q).

    P is the cached integer vertex chain of ``thm2_vertex_chain``, scaled
    by D; Q's one facet, scaled by s/r and D, is an integer line a.X >= c,
    and ``_chain_min`` solves the linear program in O(log N) integer steps.
    """
    r, s = Fraction(r), Fraction(s)
    if r <= 0 or s <= 0:
        raise EvaluationOutOfDomain("defined on the open first quadrant")
    den, chain = thm2_vertex_chain(n_kinks)
    ((a1, a2), c), = thm2_regions(n_kinks)[1].facets
    level = c * s * den / r
    q = level.denominator
    return r * _chain_min(chain, a1 * q, a2 * q, level.numerator) / den


def _chain_min(chain, a1: int, a2: int, c: int):
    """min of x + y over (conv(chain) + orthant) cut by a1 x + a2 y >= c,
    for an integer staircase chain (x ascending, y descending, convex) and
    a1, a2 > 0.

    Along the chain a.X and x + y are unimodal, so integer bisections find
    the argmin j of a.X, the kept vertices (a prefix left of j and a suffix
    right of it) and the min of x + y on each kept part.  The line crosses
    the boundary at most twice, each time on the edge beside a kept part
    or, with none, on the vertical or horizontal end ray; the min is one of
    these at most four candidates.
    """
    def dot(i):
        x, y = chain[i]
        return a1 * x + a2 * y

    def height(i):
        return sum(chain[i])

    def crossing(u, w):
        # the point of the edge from vertex u to vertex w on the line
        return height(u) + (height(w) - height(u)) * Fraction(dot(u) - c, dot(u) - dot(w))

    m = len(chain)
    j = _first(0, m - 1, lambda i: dot(i + 1) >= dot(i))
    left = _first(0, j, lambda i: dot(i) < c)
    right = _first(j, m, lambda i: dot(i) >= c)
    candidates = [height(_first(lo, hi - 1, lambda i: height(i + 1) >= height(i)))
                  for lo, hi in ((0, left), (right, m)) if lo < hi]
    if dot(j) < c:
        candidates.append(crossing(left - 1, left) if left
                          else height(0) + Fraction(c - dot(0), a2))
        candidates.append(crossing(right - 1, right) if right < m
                          else height(m - 1) + Fraction(c - dot(m - 1), a1))
    return min(candidates)


def _first(lo: int, hi: int, pred) -> int:
    """The least i in [lo, hi) with pred(i), or hi; pred must be false,
    then true."""
    return lo + bisect_left(range(lo, hi), True, key=pred)


def thm2_crossing(r, s, n_kinks: int) -> tuple[Fraction, Fraction] | None:
    """Crossing abscissa x of the scaled boundaries r*f(x/r) and s - x/2,
    and the closed form s + x/2 for ord0.  None when the line stays below
    the kinked boundary over its whole support (no crossing with x >= 0).

    h(x) = r f(x/r) + x/2 is read off the stored breakpoints cell by cell,
    so a call costs O(N) for N kinks.
    """
    r, s = Fraction(r), Fraction(s)
    f = build_kinked_f(n_kinks)
    if s >= r * f.value_at_zero:
        return Fraction(0), s
    if s < r / 2:
        # the line hits zero before reaching the kinked boundary
        return None
    # h strictly decreases from r f(0) to r/2 on [0, r]; cell j runs from
    # breakpoint j to the next one (the last to the intercept) with slope j
    ends = chain(((r * bx, r * (bv + bx / 2)) for bx, bv in f.breakpoints),
                 [(r * f.intercept, r * f.intercept / 2)])
    for ((x1, h1), (_, h2)), slope in zip(pairwise(ends), f.slopes):
        if h2 <= s <= h1:
            x = x1 + (s - h1) / (slope + Fraction(1, 2))
            return x, s + x / 2
    return None


def thm2_kink_locations(r, n_kinks: int, s_lo, s_hi) -> list[tuple[Fraction, Fraction]]:
    """(s0, crossing abscissa) for every kink of the scaled boundary whose
    crossing parameter s0 = r f(e) + r e / 2 lies in [s_lo, s_hi]."""
    r = Fraction(r)
    f = build_kinked_f(n_kinks)
    out = []
    for e in f.kinks:
        s0 = r * f(e) + r * e / 2
        if Fraction(s_lo) <= s0 <= Fraction(s_hi):
            out.append((s0, r * e))
    return sorted(out)


# -- exact kink tables -------------------------------------------------------------


@dataclass(frozen=True)
class KinkTable:
    """A piecewise-affine function of one variable, by its cells: slope
    ``slopes[j]`` on [cuts[j], cuts[j + 1]], cuts ascending.  The inner cuts
    are its kinks; the outer two end the cells beside the first and last
    kink."""

    cuts: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]

    def kinks(self):
        """(point, left slope, right slope) of every kink, ascending."""
        return zip(self.cuts[1:-1], self.slopes, self.slopes[1:])

    def matches(self, fn) -> bool:
        """Certify the table against fn, which shares no code with it: fn
        at both ends and at every cell midpoint, one evaluation per kink,
        equals the table's function anchored at fn(cuts[0]).

        A wrong slope is seen at its own cell's midpoint; a missing kink
        at a later midpoint or at the far end."""
        cuts = self.cuts
        if any(a >= b for a, b in pairwise(cuts)):
            return False
        value = fn(cuts[0])
        for (a, b), slope in zip(pairwise(cuts), self.slopes):
            mid = (a + b) / 2
            if fn(mid) != value + slope * (mid - a):
                return False
            value += slope * (b - a)
        return fn(cuts[-1]) == value


def thm2_kink_table(r, n_kinks: int, s_lo, s_hi) -> tuple[KinkTable, tuple[Fraction, ...]]:
    """The kinks of s -> ord0(r, s) with s_lo <= s <= s_hi, in closed form,
    and the crossing abscissa r e of each; the same kinks, in the same
    order, as ``thm2_kink_locations``.

    On the cell where the line s - x/2 crosses the piece of slope f' of
    r f(x/r), ord0 = s + x/2 has slope 1 + 1/(2 f' + 1) in s.  Raising s
    moves the crossing left, so the cells run over f's pieces right to
    left: from s = r/2 (crossing at the intercept) through s0 = r f(e) +
    r e/2 at each kink e to s = r f(0) (crossing at 0).  One O(N) walk.
    """
    r = Fraction(r)
    if r <= 0:
        raise EvaluationOutOfDomain("defined on the open first quadrant")
    f = build_kinked_f(n_kinks)
    cuts = [r * f.intercept / 2] + [r * (v + x / 2) for x, v in reversed(f.breakpoints)]
    slopes = [1 + 1 / (2 * sl + 1) for sl in reversed(f.slopes)]
    crossings = [r * x for x in reversed(f.kinks)]
    # cuts[i:j] are the kinks in the window, cuts[i - 1] and cuts[j] end their cells
    i = bisect_left(cuts, Fraction(s_lo), 1, len(cuts) - 1)
    j = max(i, bisect_right(cuts, Fraction(s_hi), 1, len(cuts) - 1))
    table = KinkTable(tuple(cuts[i - 1:j + 1]), tuple(slopes[i - 1:j]))
    return table, tuple(crossings[i - 1:j - 1])


def appendix_kink_table(body: SymmetricBody) -> KinkTable:
    """The kinks of t -> gauge((1, t)) for t >= 0, in closed form: one per
    ray through a kink vertex.

    gauge((1, t)) = u1 + u2 t for the edge that the ray crosses, and the
    ray crosses the edges ccw from (1, 0) as t grows: edge i, from
    ``vertices[i]`` to ``vertices[i + 1]``, on the cell between the rays
    through those two vertices.  The last edge ends at (0, f(0)), which no
    ray (1, t) reaches, so its cell runs on past the last kink.
    """
    n = len(body.kink_vertices)
    rays = [Fraction(0)] + [y / x for x, y in body.vertices[1:n + 1]]
    return KinkTable((*rays, rays[-1] + 1), tuple(u2 for _, u2 in body.functionals[:n + 1]))


# -- exact one-sided difference quotients ----------------------------------------


@dataclass(frozen=True, slots=True)
class DiffQuotient:
    left: Fraction
    right: Fraction
    stable: bool

    @property
    def gap(self) -> Fraction:
        return self.right - self.left


# The scan steps, largest first: 1/8 down to 1/4096.
SCAN_STEPS = tuple(Fraction(1, 2**j) for j in range(3, 13))


def diff_quotient_scan(fn, s0) -> DiffQuotient:
    """One-sided difference quotients of fn at s0, at the smallest step of
    ``SCAN_STEPS``.

    For piecewise-linear fn the quotients are exactly the one-sided slopes
    once the step drops below the nearest breakpoint gap; ``stable`` records
    that the two smallest steps agreed on both sides.
    """
    s0 = Fraction(s0)
    lefts, rights = [], []
    center = fn(s0)
    for h in SCAN_STEPS:
        lefts.append((center - fn(s0 - h)) / h)
        rights.append((fn(s0 + h) - center) / h)
    stable = lefts[-1] == lefts[-2] and rights[-1] == rights[-2]
    return DiffQuotient(lefts[-1], rights[-1], stable)
