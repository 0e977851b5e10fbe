"""Asymptotic invariants of directed systems, by two independent routes.

The sequence route samples per-ideal invariants along monotone schedules
(n = 1!, 2!, ..., L! or n = 1, 2, 4, ..., 2^J) and normalizes; the
geometric route reads the same numbers off the exact limit body.  The
closed forms for the ceiling construction and the kinked intersection
construction live here too, together with the exact one-sided difference
quotient scanner used to certify non-differentiability.
"""

from __future__ import annotations

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
from .regions import build_kinked_f, region_intersect, thm2_regions
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
    """ord0 of the kinked intersection system at direction (r, s), r, s > 0,
    as the exact min of x + y over the vertices of rP intersect sQ."""
    r, s = Fraction(r), Fraction(s)
    if r <= 0 or s <= 0:
        raise EvaluationOutOfDomain("defined on the open first quadrant")
    p, q = thm2_regions(n_kinks)
    return region_intersect(p.scale(r), q.scale(s)).ord0()


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
