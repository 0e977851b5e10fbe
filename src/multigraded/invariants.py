"""Asymptotic invariants of directed systems, by two independent routes.

The sequence route samples per-ideal invariants along monotone schedules
(n = 1!, 2!, ..., L! or n = 1, 2, 4, ..., 2^J) and normalizes; the
geometric route reads the same numbers off the exact limit body.  The
closed forms for the ceiling construction and the kinked intersection
construction live here too.  The kinked intersection has two exact
routes to ord0 that share only ``build_kinked_f``: ``thm2_crossing``
bisects the cached levels of h = f(x) + x/2 at f's breakpoints for the
cell that Q's line crosses, and ``thm2_ord0`` solves the 2D linear
program on the kinked region's integer vertex chain, tabled once per N
(``ChainTable``), with two integer bisections; both take O(log N) steps.
Its ord0 kink table, read off the crossing's levels, and the appendix
gauge's come in closed form as ``KinkTable``s, and ``KinkTable.matches``
certifies a table against an evaluation route at its cell midpoints.  The
exact one-sided difference quotient scanner, which finds the same slopes
with 5 evaluations per kink, stays as the reference of the tests and
perfbench.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, pairwise
from math import factorial, lcm

from .errors import (
    EvaluationOutOfDomain,
    MonotonicityError,
    UnboundedComplement,
    ZeroIdealInDirection,
)
from .newton import NewtonPolyhedron
from .regions import SymmetricBody, build_kinked_f, thm2_regions
from .regions import region_intersect  # noqa: F401  (an alias that perfbench's self-test wraps)
from .systems import CeilingSystem, SystemExpr

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
    graded system).  With geometry, the value read off the system's limit
    body along v is attached and the bracket is certified when every sample
    sits at or above it.
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
    geometric, certified = None, False
    if with_geometry:
        geometric = getattr(geometric_invariants(view.limit_body()), quantity)
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

    With deficiency t = h(v) (see ``CeilingSystem``) the invariants are t
    times the base's order and Arnold multiplicity and t^k times its Samuel
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
    """ord0 of the kinked intersection system at direction (r, s), for
    rationals (ints or Fractions) r, s > 0: the exact min of x + y over
    rP intersect sQ = r(P intersect (s/r)Q).  Q's one facet a.X >= c,
    scaled by s/r and by the D of P's cached ``ChainTable``, is the line
    a.X >= p/q: O(log N) integer steps and one ``Fraction`` on return."""
    rn, rd, sn, sd = r.numerator, r.denominator, s.numerator, s.denominator
    if rn <= 0 or sn <= 0:
        raise EvaluationOutOfDomain("defined on the open first quadrant")
    den, cn, cd, table = _thm2_chain_table(n_kinks)
    num, dd = table.min_above(cn * sn * rd, cd * sd * rn)
    return Fraction(rn * num, rd * dd * den)


@lru_cache(maxsize=64)
def _thm2_chain_table(n_kinks: int) -> tuple[int, int, int, ChainTable]:
    """(D, D c as cn / cd, the table of D P's vertices against a) for the
    (P, Q = {a.X >= c}) of ``thm2_regions``, D the lcm of the vertices'
    denominators; keyed by n_kinks, as hashing the chain costs O(N)."""
    p, q = thm2_regions(n_kinks)
    den = lcm(*(t.denominator for v in p.vertices for t in v))
    ((a1, a2), c), = q.facets
    chain = [(int(x * den), int(y * den)) for x, y in p.vertices]
    return den, c.numerator * den, c.denominator, ChainTable(chain, a1, a2)


class ChainTable:
    """min of x + y over (conv(chain) + orthant) cut by a1 x + a2 y >= p/q,
    for an integer staircase chain (x ascending, y descending, convex),
    integers a1, a2 > 0 and any level p/q.  a.X is unimodal along the chain
    with argmin j, so the cut keeps a prefix left of j and a suffix right
    of it, found by bisecting the dot products against ceil(p/q), and the
    line crosses the boundary on the edge beside a kept part or on an end
    ray: the min is one of these at most four candidates."""

    def __init__(self, chain, a1: int, a2: int):
        self.a1, self.a2 = a1, a2
        self.dots = [a1 * x + a2 * y for x, y in chain]
        self.heights = [x + y for x, y in chain]
        self.j = self.dots.index(min(self.dots))
        self.falling = [-d for d in self.dots[:self.j]]  # ascending; dots[j:] nondecreasing
        self.prefix_min = list(accumulate(self.heights, min))
        self.suffix_min = list(accumulate(reversed(self.heights), min))[::-1]

    def min_above(self, p: int, q: int) -> tuple[int, int]:
        """The min at level p/q, q > 0, as (num, den) with den > 0."""
        dots, heights, m = self.dots, self.heights, len(self.dots)
        t = -(-p // q)  # an integer dot is below p/q exactly when below t
        left = bisect_right(self.falling, -t)  # first i < j with dots[i] < t, else j
        right = bisect_left(dots, t, self.j)  # first i >= j with dots[i] >= t, else m
        best = [(self.prefix_min[left - 1], 1)] if left else []
        best += [(self.suffix_min[right], 1)] if right < m else []
        if dots[self.j] < t:
            for u, w, end, a in ((left - 1, left, 0, self.a2), (right, right - 1, m - 1, self.a1)):
                if 0 <= u < m:  # the point of the edge from vertex u to vertex w on the line
                    gap = q * (dots[u] - dots[w])
                    best.append((heights[u] * gap + (heights[w] - heights[u]) * (q * dots[u] - p),
                                 gap))
                else:  # the end ray leaving the chain's end vertex along an axis
                    best.append((heights[end] * a * q + p - q * dots[end], a * q))
        num, den = best[0]
        for n, d in best[1:]:
            if n * den < num * d:
                num, den = n, d
        return num, den


def thm2_crossing(r, s, n_kinks: int) -> tuple[Fraction, Fraction] | None:
    """Crossing abscissa x of the scaled boundaries r*f(x/r) and s - x/2,
    and the closed form s + x/2 for ord0.  None when the line stays below
    the kinked boundary over its whole support (no crossing with x >= 0).
    One bisection of h's cached levels (``_thm2_levels``) against s/r finds
    the crossed cell: O(log N) for N kinks.
    """
    r, s = Fraction(r), Fraction(s)
    if r <= 0 or s <= 0:
        raise EvaluationOutOfDomain("defined on the open first quadrant")
    levels, at, slopes = _thm2_levels(n_kinks)
    level = s / r
    if level >= levels[-1]:
        return Fraction(0), s
    if level < levels[0]:
        return None  # the line hits zero before reaching the kinked boundary
    i = bisect_right(levels, level) - 1
    x = r * (at[i] + (level - levels[i]) / (slopes[i] + Fraction(1, 2)))
    return x, s + x / 2


@lru_cache(maxsize=64)
def _thm2_levels(n_kinks: int):
    """The levels of h(x) = f(x) + x/2, f = ``build_kinked_f(n_kinks)``, at
    f's intercept and breakpoints right to left (h falls strictly, so they
    ascend), the abscissa of each, and f's slope on the cell above each."""
    f = build_kinked_f(n_kinks)
    ends = ((f.intercept, Fraction(0)), *reversed(f.breakpoints))
    return (tuple(v + x / 2 for x, v in ends), tuple(x for x, _ in ends),
            tuple(reversed(f.slopes)))


def thm2_kink_locations(r, n_kinks: int, s_lo, s_hi) -> list[tuple[Fraction, Fraction]]:
    """(s0, crossing abscissa) for every kink of the scaled boundary whose
    crossing parameter s0 = r f(e) + r e / 2 lies in [s_lo, s_hi], ascending:
    the kinks of ``thm2_kink_table``."""
    table, crossings = thm2_kink_table(r, n_kinks, s_lo, s_hi)
    return list(zip(table.cuts[1:-1], crossings))


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
    and the crossing abscissa r e of each.

    On the cell where the line s - x/2 crosses the piece of slope f' of
    r f(x/r), ord0 = s + x/2 has slope 1 + 1/(2 f' + 1) in s.  Raising s
    moves the crossing left, so the cells run over f's pieces right to
    left, from s = r/2 through s0 = r f(e) + r e/2 at each kink e to
    s = r f(0): r times the levels of ``_thm2_levels``.  Two bisections
    find the window, so a call costs O(log N) plus its kinks.
    """
    r = Fraction(r)
    if r <= 0:
        raise EvaluationOutOfDomain("defined on the open first quadrant")
    levels, at, slopes = _thm2_levels(n_kinks)
    # levels[i:j] are the kinks in the window, levels[i - 1] and levels[j] end their cells
    i = bisect_left(levels, Fraction(s_lo) / r, 1, len(levels) - 1)
    j = max(i, bisect_right(levels, Fraction(s_hi) / r, 1, len(levels) - 1))
    table = KinkTable(tuple(r * h for h in levels[i - 1:j + 1]),
                      tuple(1 + 1 / (2 * sl + 1) for sl in slopes[i - 1:j]))
    return table, tuple(r * x for x in at[i:j])


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


# The two scan steps, the larger first.
SCAN_STEPS = (Fraction(1, 2048), Fraction(1, 4096))


def diff_quotient_scan(fn, s0) -> DiffQuotient:
    """One-sided difference quotients of fn at s0, at the smaller step of
    ``SCAN_STEPS``: five evaluations of fn.

    For piecewise-linear fn the quotients are exactly the one-sided slopes
    once the step drops below the nearest breakpoint gap; ``stable`` records
    that the two steps agreed on both sides.
    """
    s0 = Fraction(s0)
    center = fn(s0)
    (left2, right2), (left, right) = (
        ((center - fn(s0 - h)) / h, (fn(s0 + h) - center) / h) for h in SCAN_STEPS
    )
    return DiffQuotient(left, right, left == left2 and right == right2)
