"""Sequence/geometric invariant routes, closed forms, kink scanners."""

from fractions import Fraction

import pytest

from multigraded.cones import abs_sum_cone
from multigraded.errors import EvaluationOutOfDomain, ZeroIdealInDirection
from multigraded.invariants import (
    ceiling_closed_forms,
    diff_quotient_scan,
    geometric_invariants,
    schedule_points,
    sequence_invariant,
    thm2_crossing,
    thm2_kink_locations,
    thm2_ord0,
)
from multigraded.monomial import MonomialIdeal, minimalize
from multigraded.newton import newton_polyhedron
from multigraded.regions import (
    appendix_boundary,
    build_g,
    build_kinked_f,
    epigraph_region,
    full_orthant,
    region_from_halfspaces,
    region_intersect,
)
from multigraded.systems import CeilingSystem, IdealPowers, RegionSystem

F = Fraction


def triple(inv):
    return (inv.ord0, inv.arn, inv.mult)


def ideal(*gens, k=2):
    return minimalize(gens, k)


@pytest.fixture
def wedge_system():
    return RegionSystem(region_from_halfspaces(2, [((1, 2), 2), ((2, 1), 2)]))


class TestSchedules:
    def test_points(self):
        assert schedule_points("factorial", 4) == [1, 2, 6, 24]
        assert schedule_points("doubling", 3) == [1, 2, 4, 8]

    def test_caps(self):
        with pytest.raises(ValueError):
            schedule_points("factorial", 8)
        with pytest.raises(ValueError):
            schedule_points("doubling", 13)


class TestSequenceInvariant:
    def test_trivial_system_is_constant(self):
        system = IdealPowers([ideal((2, 0), (0, 3))])
        bracket = sequence_invariant(system, (1,), "ord0", steps=4)
        assert all(val == 2 for _, val in bracket.samples)
        assert bracket.geometric == 2 and bracket.certified

    def test_wedge_ord0_descends_to_geometric(self, wedge_system):
        bracket = sequence_invariant(wedge_system, (1,), "ord0", steps=5)
        values = [val for _, val in bracket.samples]
        assert values == [2, F(3, 2), F(4, 3), F(4, 3), F(4, 3)]
        assert bracket.geometric == F(4, 3) and bracket.certified

    def test_wedge_mult(self, wedge_system):
        bracket = sequence_invariant(wedge_system, (1,), "mult", steps=5)
        assert bracket.samples[0][1] == 4
        assert bracket.samples[-1][1] == F(8, 3)
        assert bracket.geometric == F(8, 3) and bracket.certified

    def test_doubling_schedule_monotone(self, wedge_system):
        bracket = sequence_invariant(
            wedge_system, (1,), "arn", schedule="doubling", steps=6
        )
        values = [val for _, val in bracket.samples]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert bracket.samples[-1][1] >= bracket.geometric == F(2, 3)

    def test_zero_direction_detected(self):
        system = IdealPowers([MonomialIdeal.zero(2)])
        with pytest.raises(ZeroIdealInDirection):
            sequence_invariant(system, (1,), "ord0")

    def test_homogeneity_in_the_direction(self, wedge_system):
        for q in ("ord0", "arn"):
            b1 = sequence_invariant(wedge_system, (1,), q, steps=4)
            b3 = sequence_invariant(wedge_system, (3,), q, steps=4)
            assert b3.geometric == 3 * b1.geometric
        m1 = sequence_invariant(wedge_system, (1,), "mult", steps=4)
        m3 = sequence_invariant(wedge_system, (3,), "mult", steps=4)
        assert m3.geometric == 9 * m1.geometric


class TestColengthOracle:
    def test_volume_limit_approaches_mult_bracket(self, wedge_system):
        # 2! * colength(a_n) / n^2 closes in on the multiplicity bracket
        target = sequence_invariant(wedge_system, (1,), "mult", steps=4).geometric
        oracle = F(2 * wedge_system.eval((32,)).colength(), 32 * 32)
        assert abs(oracle / target - 1) <= F(1, 10)


class TestGeometricInvariants:
    def test_newton_body(self):
        body = newton_polyhedron(ideal((2, 0), (0, 3)))
        got = geometric_invariants(body)
        assert triple(got) == (2, F(6, 5), 6)

    def test_full_orthant(self):
        assert triple(geometric_invariants(full_orthant(2))) == (0, 0, 0)

    def test_kinked_meet_line(self):
        body = region_intersect(
            epigraph_region(build_kinked_f(0)), epigraph_region(build_g())
        )
        got = geometric_invariants(body)
        assert got.ord0 == F(4, 3)

    def test_unbounded_complement_flagged(self):
        body = region_from_halfspaces(2, [((1, 0), 2)])
        got = geometric_invariants(body)
        assert got.mult is None and got.ord0 == 2


class TestCeilingClosedForms:
    def test_examples(self):
        system = CeilingSystem(abs_sum_cone())
        assert triple(ceiling_closed_forms(system, (1, 2, 0))) == (3, F(3, 2), 9)
        assert triple(ceiling_closed_forms(system, (1, 1, 2))) == (0, 0, 0)
        assert triple(ceiling_closed_forms(system, (0, 0, -1))) == (1, F(1, 2), 1)

    def test_rational_indices_by_homogeneity(self):
        system = CeilingSystem(abs_sum_cone())
        whole = ceiling_closed_forms(system, (1, 2, 0))
        half = ceiling_closed_forms(system, (F(1, 2), 1, 0))
        assert (2 * half.ord0, 2 * half.arn, 4 * half.mult) == triple(whole)

    def test_sequence_matches_exactly_at_every_sample(self):
        system = CeilingSystem(abs_sum_cone())
        for v in ((1, 2, 0), (0, 0, -1), (2, 2, 1), (1, 1, 2)):
            closed = ceiling_closed_forms(system, v)
            for q in ("ord0", "arn", "mult"):
                bracket = sequence_invariant(system, v, q, steps=4)
                want = getattr(closed, q)
                assert all(val == want for _, val in bracket.samples)
                assert bracket.geometric == want

    def test_configurable_base(self):
        system = CeilingSystem(abs_sum_cone(), base=ideal((2, 0), (0, 3)))
        got = ceiling_closed_forms(system, (1, 2, 0))
        assert triple(got) == (3 * 2, 3 * F(6, 5), 9 * 6)


class TestThm2Ord0:
    def test_base_case(self):
        assert thm2_ord0(1, 1, 0) == F(4, 3)
        assert thm2_crossing(1, 1, 0) == (F(2, 3), F(4, 3))

    def test_kink_cell(self):
        assert thm2_ord0(1, F(5, 4), 1) == F(3, 2)
        assert thm2_crossing(1, F(5, 4), 1) == (F(1, 2), F(3, 2))

    def test_routes_agree_on_grid(self):
        for i in range(13):
            r = F(3, 4) + F(i, 16)
            for j in range(13):
                s = F(3, 4) + F(j, 16)
                cross = thm2_crossing(r, s, 1)
                assert cross is not None
                assert cross[1] == thm2_ord0(r, s, 1)

    @pytest.mark.parametrize("n_kinks", [8, 16])
    def test_routes_agree_at_real_sizes(self, n_kinks):
        grid = [F(3, 4) + F(3 * i, 20) for i in range(6)]
        for r in grid:
            for s in grid:
                cross = thm2_crossing(r, s, n_kinks)
                assert cross is not None
                assert thm2_ord0(r, s, n_kinks) == cross[1]

    def test_domain(self):
        with pytest.raises(EvaluationOutOfDomain):
            thm2_ord0(0, 1, 1)

    def test_subadditive_in_the_index(self):
        # convexity of ord0 as a function of the direction, at the level of
        # argument-wise subadditivity
        pts = [(1, 1), (F(3, 4), F(5, 4)), (F(5, 4), F(3, 4)), (1, F(3, 2))]
        for u in pts:
            for w in pts:
                total = thm2_ord0(u[0] + w[0], u[1] + w[1], 1)
                assert total <= thm2_ord0(*u, 1) + thm2_ord0(*w, 1)

    def test_kink_locations(self):
        got = thm2_kink_locations(1, 1, F(9, 8), F(11, 8))
        assert got == [(F(5, 4), F(1, 2))]
        got4 = thm2_kink_locations(1, 4, F(3, 4), 2)
        assert len(got4) == 4
        assert (F(7, 8), F(3, 4)) in got4
        assert len({s0 for s0, _ in got4}) == 4



def scan_value(fn, x):
    """Reference: the value of a piecewise-linear function by a linear scan
    for the last breakpoint at or left of x."""
    if x >= fn.intercept:
        return F(0)
    j = max(i for i, (bx, _) in enumerate(fn.breakpoints) if bx <= x)
    return fn.breakpoints[j][1] + fn.slopes[j] * (x - fn.breakpoints[j][0])


def scan_slope(fn, x):
    if x >= fn.intercept:
        return F(0)
    return fn.slopes[max(i for i, (bx, _) in enumerate(fn.breakpoints) if bx <= x)]


def quadratic_crossing(r, s, n_kinks):
    """Reference: the O(N^2) walk that evaluates f at every grid abscissa."""
    r, s = F(r), F(s)
    f = build_kinked_f(n_kinks)
    if s >= r * f.value_at_zero:
        return F(0), s
    if s < r / 2:
        return None
    xs = [F(0)] + [r * x for x in f.kinks] + [r * f.intercept]
    for x1, x2 in zip(xs, xs[1:]):
        h1 = r * scan_value(f, x1 / r) + x1 / 2
        h2 = r * scan_value(f, x2 / r) + x2 / 2
        if h2 <= s <= h1:
            x = x1 + (s - h1) / (scan_slope(f, x1 / r) + F(1, 2))
            return x, s + x / 2
    return None


class TestThm2Crossing:
    @pytest.mark.parametrize("n_kinks", [0, 1, 8, 32])
    def test_matches_quadratic_walk(self, n_kinks):
        f = build_kinked_f(n_kinks)
        for r in (F(3, 4), F(1), F(5, 4), F(3, 2)):
            # every cell boundary, the two cut-offs, and points between
            ss = {r * bv + r * bx / 2 for bx, bv in f.breakpoints}
            ss |= {r / 2, r * f.value_at_zero, r / 2 - F(1, 64), r * f.value_at_zero + 1}
            ss |= {F(3, 4) + F(i, 16) for i in range(13)}
            for s in sorted(ss):
                assert repr(thm2_crossing(r, s, n_kinks)) == repr(quadratic_crossing(r, s, n_kinks))

    def test_pieces_match_linear_scan(self):
        f = build_kinked_f(16)
        xs = [bx for bx, _ in f.breakpoints] + [f.intercept, F(5, 4)]
        xs += [(a + b) / 2 for a, b in zip(xs, xs[1:])] + [F(1, 3), F(7, 11)]
        for x in xs:
            assert repr(f(x)) == repr(scan_value(f, x))
        boundary, _ = appendix_boundary(16)
        for x in [bx for bx, _ in boundary.breakpoints] + [F(1), F(1, 3), F(2, 7)]:
            j = max(i for i, (bx, _) in enumerate(boundary.breakpoints) if bx <= x)
            bx, bv = boundary.breakpoints[j]
            assert boundary(x) == bv + boundary.slopes[j] * (x - bx)


class TestDiffQuotient:
    def test_absolute_value(self):
        dq = diff_quotient_scan(lambda s: abs(s - 1), 1)
        assert (dq.left, dq.right, dq.gap) == (-1, 1, 2)
        assert dq.stable

    def test_thm2_kink_slopes(self):
        # from the segment equations: ord0(s) = (2s + 2)/3 for s < 5/4 and
        # ord0(s) = (9/13) s + 33/52 for s > 5/4, so the one-sided slopes at
        # s0 = 5/4 are 2/3 and 9/13 and the gap is 9/13 - 2/3 = 1/39
        dq = diff_quotient_scan(lambda s: thm2_ord0(1, s, 1), F(5, 4))
        assert (dq.left, dq.right) == (F(2, 3), F(9, 13))
        assert dq.gap == F(1, 39)
        assert dq.stable

    def test_thm2_kink_slopes_closed_form(self):
        # ord0 = s + x/2 where f(x) + x/2 = s (r = 1), so d ord0/ds =
        # 1 + 1/(2 f' + 1); raising s moves the crossing left, so the left
        # slope in s takes f' right of the kink and the right slope f' left of it
        f = build_kinked_f(8)
        kinks = thm2_kink_locations(1, 8, 0, 10)
        assert [x0 for _, x0 in kinks] == sorted(f.kinks, reverse=True)
        for s0, x0 in kinks:
            j = f.kinks.index(x0) + 1
            f_left, f_right = f.slopes[j - 1], f.slopes[j]
            dq = diff_quotient_scan(lambda s: thm2_ord0(1, s, 8), s0)
            assert dq.stable
            assert dq.left == 1 + 1 / (2 * f_right + 1)
            assert dq.right == 1 + 1 / (2 * f_left + 1)

    def test_gauge_kink_ray(self):
        # the two first-quadrant edges of the single-term body support the
        # functionals x + y and 2y, so gauge((1, t)) = max(1 + t, 2t) kinks
        # at t = 1 with slopes 1 and 2
        _, body = appendix_boundary(1)
        dq = diff_quotient_scan(lambda t: body.gauge((1, t)), 1)
        assert (dq.left, dq.right, dq.gap) == (1, 2, 1)

    def test_smooth_point_has_no_gap(self):
        dq = diff_quotient_scan(lambda s: thm2_ord0(1, s, 1), F(11, 10))
        assert dq.gap == 0 and dq.stable
