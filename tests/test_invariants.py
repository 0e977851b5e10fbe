"""Sequence/geometric invariant routes, closed forms, kink tables and scanners."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import chain, pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigraded.cones import ConeRep, abs_sum_cone
from multigraded.errors import EvaluationOutOfDomain, ZeroIdealInDirection
from multigraded.invariants import (
    ChainTable,
    KinkTable,
    appendix_kink_table,
    ceiling_closed_forms,
    diff_quotient_scan,
    geometric_invariants,
    schedule_points,
    sequence_invariant,
    thm2_crossing,
    thm2_kink_locations,
    thm2_kink_table,
    thm2_ord0,
)
from multigraded.monomial import MonomialIdeal, minimalize
from multigraded.newton import NewtonPolyhedron, from_vertices, newton_polyhedron
from multigraded.regions import (
    appendix_boundary,
    build_g,
    build_kinked_f,
    epigraph_region,
    full_orthant,
    region_from_halfspaces,
    region_intersect,
    thm2_regions,
)
from multigraded.systems import (
    CeilingSystem,
    IdealPowers,
    Intersect,
    Product,
    Pullback,
    RegionSystem,
)

F = Fraction


def kink_abscissae(f):
    """The abscissae of a piecewise-linear function's kinks, ascending."""
    return tuple(x for x, _ in f.breakpoints[1:])


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


# k = 2 regions whose complement is bounded (every normal entry positive)
BOUNDED_FACETS2 = st.lists(
    st.tuples(st.tuples(st.integers(1, 3), st.integers(1, 3)),
              st.one_of(st.integers(1, 6), st.fractions(F(1, 2), 6, max_denominator=4))),
    min_size=1, max_size=3)
DIRECTION2 = st.tuples(st.integers(1, 3), st.integers(1, 3))


def region_trees():
    """(system, direction) for region, ceiling, intersect and product trees."""
    def pair(op, fp, fq, v):
        p, q = (RegionSystem(region_from_halfspaces(2, f)) for f in (fp, fq))
        return op(Pullback([(1, 0)], p), Pullback([(0, 1)], q)), v

    forms = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=3)
    return st.one_of(
        BOUNDED_FACETS2.map(lambda f: (RegionSystem(region_from_halfspaces(2, f)), (1,))),
        st.tuples(forms, st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2))
                  .filter(any)).map(lambda fv: (
                      CeilingSystem(ConeRep.epigraph(fv[0]), MonomialIdeal.maximal(2)), fv[1])),
        st.builds(pair, st.just(Intersect), BOUNDED_FACETS2, BOUNDED_FACETS2, DIRECTION2),
        st.builds(pair, st.just(Product), BOUNDED_FACETS2, BOUNDED_FACETS2, DIRECTION2),
    )


class TestOneQuantityGeometry:
    """``sequence_invariant`` reads only the requested quantity off the limit
    body, and it equals that field of ``geometric_invariants`` by ``repr``."""

    @settings(max_examples=40, deadline=None)
    @given(region_trees())
    def test_matches_geometric_invariants(self, tree):
        system, v = tree
        want = geometric_invariants(system.restrict(v).limit_body())
        for q in ("ord0", "arn", "mult"):
            got = sequence_invariant(system, v, q, schedule="doubling", steps=1).geometric
            assert repr(got) == repr(getattr(want, q))

    def test_ord0_computes_no_covolume(self, wedge_system, monkeypatch):
        def refuse(self):
            raise AssertionError("covolume computed for ord0")

        monkeypatch.setattr(NewtonPolyhedron, "covolume", refuse)
        monkeypatch.setattr(NewtonPolyhedron, "diagonal_lambda", refuse)
        bracket = sequence_invariant(wedge_system, (1,), "ord0", steps=3)
        assert bracket.geometric == F(4, 3) and bracket.certified


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

    @pytest.mark.parametrize("n_kinks", [0, 1, 8, 32])
    def test_matches_both_regions_scaled(self, n_kinks):
        # reference: rP intersect sQ with both regions scaled
        p, q = thm2_regions(n_kinks)
        top = build_kinked_f(n_kinks)(0)
        rng = random.Random(n_kinks)
        points = [(F(rng.randint(1, 96), 32), F(rng.randint(1, 96), 32)) for _ in range(40)]
        for r in (F(3, 4), F(1), F(7, 5)):
            # the crossing at x = 0, and no crossing at all
            points += [(r, r * top), (r, r * top + F(1, 3)), (r, r / 2 - F(1, 64)), (r, r / 5)]
        assert any(r < s for r, s in points) and any(r > s for r, s in points)
        for r, s in points:
            assert thm2_ord0(r, s, n_kinks) == region_intersect(p.scale(r), q.scale(s)).ord0()

    @pytest.mark.parametrize("n_kinks", [0, 1, 2, 8, 32, 128])
    def test_matches_the_envelope_route(self, n_kinks):
        # reference: the envelope of all facets of P intersect (s/r)Q, min of
        # x + y over its vertices, times r
        p, q = thm2_regions(n_kinks)
        ((a1, a2), c), = q.facets
        top = build_kinked_f(n_kinks)(0)
        rng = random.Random(n_kinks)
        for r in (F(3, 4), F(1), F(5, 4)):
            # s on the line through each vertex of P; the crossing at x = 0;
            # the whole chain cut off; no crossing at all (s <= r/2)
            svals = [r * (a1 * x + a2 * y) / c for x, y in p.vertices]
            svals += [r * top, r * top + F(1, 3), 10 * r * top, r / 2, r / 2 - F(1, 64), r / 5]
            svals += [F(rng.randint(1, 96), 32) for _ in range(20)]
            for s in svals:
                assert thm2_ord0(r, s, n_kinks) == r * region_intersect(p, q.scale(s / r)).ord0()

    def test_chain_min_matches_the_envelope_route(self):
        # random integer chains and lines reach the branches that the kinked
        # region never takes: an interior argmin of a.X and of x + y, a kept
        # suffix and a crossing on the edge before it; the level c/q need
        # not be an integer
        rng = random.Random(13)
        for _ in range(600):
            poly = from_vertices([(rng.randint(0, 12), rng.randint(0, 12))
                                  for _ in range(rng.randint(1, 8))])
            chain = tuple((int(x), int(y)) for x, y in poly.vertices)
            a1, a2 = rng.randint(1, 6), rng.randint(1, 6)
            dots = [a1 * x + a2 * y for x, y in chain]
            q = rng.choice([1, 1, 2, 3])
            c = rng.choice([rng.randint(1, 90), min(dots) * q, (max(dots) + rng.randint(0, 9)) * q,
                            rng.choice(dots) * q, rng.choice(dots) * q + rng.choice([-1, 1])])
            line = region_from_halfspaces(2, [((a1, a2), F(c, q))])
            num, den = ChainTable(chain, a1, a2).min_above(c, q)
            assert den > 0 and F(num, den) == region_intersect(poly, line).ord0()
        # fixed chains, each table answering every level c/q from below its
        # lowest dot to past its highest, the vertex dots among them: an edge
        # parallel to the line at the argmin j of a.X (D = 0, never the
        # crossing edge), j at the first and at the last vertex (each end
        # ray crossed), x + y lowest on either side of j, one vertex alone
        for chain, (a1, a2) in [
            (((0, 6), (2, 3), (4, 2), (8, 1)), (1, 2)),
            (((0, 8), (1, 4), (3, 3), (7, 2)), (1, 2)),
            (((0, 9), (1, 5), (3, 2), (6, 1), (10, 0)), (3, 1)),
            (((0, 9), (1, 5), (3, 2), (6, 1), (10, 0)), (1, 3)),
            (((0, 3), (2, 1), (5, 0)), (5, 1)),
            (((0, 3), (2, 1), (5, 0)), (1, 5)),
            (((0, 5), (1, 2), (4, 0)), (1, 1)),
            (((3, 2),), (2, 5)),
        ]:
            poly = from_vertices(chain)
            assert poly.vertices == tuple((F(x), F(y)) for x, y in chain)
            table = ChainTable(chain, a1, a2)
            dots = [a1 * x + a2 * y for x, y in chain]
            for q in (1, 2, 3):
                for c in range(q * (min(dots) - 2), q * (max(dots) + 3)):
                    line = region_from_halfspaces(2, [((a1, a2), F(c, q))])
                    num, den = table.min_above(c, q)
                    assert den > 0 and F(num, den) == region_intersect(poly, line).ord0()

    def test_domain(self):
        for r, s in [(0, 1), (1, F(-1, 2)), (1, 0), (-2, 1), (1, -3), (F(0), F(1, 2)),
                     (F(-1, 3), 1), (F(5, 4), F(-5, 4)), (-1, -1)]:
            with pytest.raises(EvaluationOutOfDomain):
                thm2_ord0(r, s, 1)
        with pytest.raises(ValueError, match="n_kinks must be >= 0, got -1"):
            thm2_ord0(1, 1, -1)

    @pytest.mark.parametrize("r, s", [(0.75, F(1)), (1, 1.25), (1.0, 1.0), (-1.0, 1)])
    def test_floats_are_refused(self, r, s):
        with pytest.raises(TypeError, match="ints or Fractions"):
            thm2_ord0(r, s, 8)

    @pytest.mark.parametrize("n_kinks", [0, 1, 8])
    def test_ints_equal_their_fraction_forms(self, n_kinks):
        for r in range(1, 5):
            for s in range(1, 5):
                want = thm2_ord0(F(r), F(s), n_kinks)
                assert thm2_ord0(r, s, n_kinks) == thm2_ord0(r, F(s), n_kinks) == want
                assert thm2_ord0(F(r), s, n_kinks) == want

    def test_subadditive_in_the_index(self):
        # the body at u + w contains the Minkowski sum of the bodies at u and
        # w, so ord0 is subadditive in the direction
        rng = random.Random(4)
        pts = [(1, 1), (F(3, 4), F(5, 4)), (F(5, 4), F(3, 4)), (1, F(3, 2))]
        for n_kinks in (1, 8, 32):
            window = pts + [(F(rng.randint(1, 24), 8), F(rng.randint(1, 24), 8))
                            for _ in range(12)]
            for u in window:
                for w in window:
                    total = thm2_ord0(u[0] + w[0], u[1] + w[1], n_kinks)
                    assert total <= thm2_ord0(*u, n_kinks) + thm2_ord0(*w, n_kinks)

    def test_positively_homogeneous_in_the_index(self):
        rng = random.Random(5)
        for n_kinks in (1, 8, 32):
            for _ in range(60):
                r, s = F(rng.randint(1, 24), 8), F(rng.randint(1, 24), 8)
                t = F(rng.randint(1, 40), rng.randint(1, 12))
                assert thm2_ord0(t * r, t * s, n_kinks) == t * thm2_ord0(r, s, n_kinks)

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
    if s >= r * f(0):
        return F(0), s
    if s < r / 2:
        return None
    xs = [F(0)] + [r * x for x in kink_abscissae(f)] + [r * f.intercept]
    for x1, x2 in zip(xs, xs[1:]):
        h1 = r * scan_value(f, x1 / r) + x1 / 2
        h2 = r * scan_value(f, x2 / r) + x2 / 2
        if h2 <= s <= h1:
            x = x1 + (s - h1) / (scan_slope(f, x1 / r) + F(1, 2))
            return x, s + x / 2
    return None


def walk_crossing(r, s, n_kinks):
    """Reference: the O(N) walk over f's cells, h(x) = r f(x/r) + x/2
    evaluated cell by cell from the stored breakpoints."""
    r, s = F(r), F(s)
    f = build_kinked_f(n_kinks)
    if s >= r * f(0):
        return F(0), s
    if s < r / 2:
        return None
    ends = chain(((r * bx, r * (bv + bx / 2)) for bx, bv in f.breakpoints),
                 [(r * f.intercept, r * f.intercept / 2)])
    for ((x1, h1), (_, h2)), slope in zip(pairwise(ends), f.slopes):
        if h2 <= s <= h1:
            x = x1 + (s - h1) / (slope + F(1, 2))
            return x, s + x / 2
    return None


@st.composite
def crossing_cases(draw):
    """(r, s, N): s at random, at a breakpoint level r (f(e) + e/2), at
    r f(0), at r/2 or just below it."""
    n_kinks = draw(st.sampled_from([0, 1, 2, 3, 8, 32]))
    r = draw(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=64))
    f = build_kinked_f(n_kinks)
    levels = [r * (v + x / 2) for x, v in f.breakpoints]
    s = draw(st.one_of(
        st.fractions(min_value=F(1, 64), max_value=4 * r, max_denominator=256),
        st.sampled_from(levels + [r * f(0), r / 2, r / 2 - F(1, 2**20)]),
    ))
    return r, s, n_kinks


class TestThm2Crossing:
    @settings(max_examples=300, deadline=None)
    @given(crossing_cases())
    def test_bisection_matches_the_walk(self, case):
        r, s, n_kinks = case
        got = thm2_crossing(r, s, n_kinks)
        assert repr(got) == repr(walk_crossing(r, s, n_kinks))
        if got is not None:
            assert thm2_ord0(r, s, n_kinks) == got[1]

    @pytest.mark.parametrize("r, s", [(-1, 1), (0, 1), (1, -1), (1, 0)])
    def test_domain(self, r, s):
        with pytest.raises(EvaluationOutOfDomain):
            thm2_crossing(r, s, 1)

    @pytest.mark.parametrize("n_kinks", [0, 1, 8, 32])
    def test_matches_quadratic_walk(self, n_kinks):
        f = build_kinked_f(n_kinks)
        for r in (F(3, 4), F(1), F(5, 4), F(3, 2)):
            # every cell boundary, the two cut-offs, and points between
            ss = {r * bv + r * bx / 2 for bx, bv in f.breakpoints}
            ss |= {r / 2, r * f(0), r / 2 - F(1, 64), r * f(0) + 1}
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
        assert [x0 for _, x0 in kinks] == sorted(kink_abscissae(f), reverse=True)
        for s0, x0 in kinks:
            j = kink_abscissae(f).index(x0) + 1
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

    def test_five_evaluations(self):
        calls = []
        dq = diff_quotient_scan(lambda s: calls.append(s) or abs(s - 1), 1)
        assert sorted(calls) == [1 - F(1, 2048), 1 - F(1, 4096), 1, 1 + F(1, 4096),
                                 1 + F(1, 2048)]
        assert (dq.left, dq.right, dq.stable) == (-1, 1, True)

    def test_unstable_when_a_breakpoint_lies_between_the_steps(self):
        # a breakpoint at 1 + 3/8192, between the two steps right of 1
        dq = diff_quotient_scan(lambda s: max(s - 1, 3 * (s - 1) - F(3, 4096)), 1)
        assert (dq.left, dq.right, dq.stable) == (1, 1, False)


def gauge_along(body):
    return lambda t: body.gauge((1, t))


def evaluated_kink_locations(r, n_kinks, s_lo, s_hi):
    """Reference: (s0, r e) for every kink e of f, with s0 = r f(e) + r e/2
    evaluated, kept when it lies in [s_lo, s_hi]."""
    f = build_kinked_f(n_kinks)
    s0s = [(r * f(e) + r * e / 2, r * e) for e in kink_abscissae(f)]
    return sorted((s0, x0) for s0, x0 in s0s if s_lo <= s0 <= s_hi)


class TestKinkTables:
    """The closed-form tables against the difference-quotient scan, and the
    midpoint check against tables that are wrong."""

    @pytest.mark.parametrize("r", [F(3, 4), F(1), F(5, 4)])
    @pytest.mark.parametrize("n_kinks", [1, 4, 8, 32])
    def test_thm2_table_matches_scan(self, n_kinks, r):
        table, crossings = thm2_kink_table(r, n_kinks, 0, 10)
        assert list(zip(table.cuts[1:-1], crossings)) == evaluated_kink_locations(
            r, n_kinks, 0, 10)
        assert len(crossings) == n_kinks
        for s0, left, right in table.kinks():
            dq = diff_quotient_scan(lambda s: thm2_ord0(r, s, n_kinks), s0)
            assert dq.stable and (dq.left, dq.right) == (left, right)

    def test_thm2_window(self):
        r, n_kinks = F(5, 4), 8
        full, _ = thm2_kink_table(r, n_kinks, 0, 10)
        assert (full.cuts[0], full.cuts[-1]) == (r / 2, r * build_kinked_f(n_kinks)(0))
        kinks = full.cuts[1:-1]
        tiny = F(1, 10**9)
        windows = [(kinks[2], kinks[5]), (kinks[2] + tiny, kinks[5] - tiny), (0, kinks[0]),
                   (kinks[-1], 10), (kinks[3], kinks[3]), (3, 4), (2, 1), (0, r / 2)]
        for lo, hi in windows:
            table, crossings = thm2_kink_table(r, n_kinks, lo, hi)
            got = [(s0, x0) for (s0, _, _), x0 in zip(table.kinks(), crossings)]
            assert got == thm2_kink_locations(r, n_kinks, lo, hi)
            assert got == evaluated_kink_locations(r, n_kinks, lo, hi)
            assert len(table.slopes) == len(table.cuts) - 1 == len(crossings) + 1
            # the cells beside the window's kinks end at the nearest cut outside
            if crossings:
                assert table.cuts[0] == max([r / 2] + [k for k in kinks if k < lo])
                assert table.cuts[-1] == min([full.cuts[-1]] + [k for k in kinks if k > hi])

    def test_thm2_refuses_r_outside_the_domain(self):
        with pytest.raises(EvaluationOutOfDomain):
            thm2_kink_table(0, 1, 0, 10)

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_appendix_table_matches_scan(self, n):
        _, body = appendix_boundary(n)
        table = appendix_kink_table(body)
        assert list(table.cuts[1:-1]) == sorted(y / x for x, y in body.kink_vertices)
        for t0, left, right in table.kinks():
            dq = diff_quotient_scan(gauge_along(body), t0)
            assert dq.stable and (dq.left, dq.right) == (left, right)

    def test_single_kink_values(self):
        table, crossings = thm2_kink_table(1, 1, F(9, 8), F(11, 8))
        assert list(table.kinks()) == [(F(5, 4), F(2, 3), F(9, 13))] and crossings == (F(1, 2),)
        assert list(appendix_kink_table(appendix_boundary(1)[1]).kinks()) == [(1, 1, 2)]

    def wrong_tables(self, table):
        """One cell slope perturbed, two neighbouring slopes perturbed with
        the rise over the whole table kept, one kink moved, one kink dropped
        (its two cells merged under either slope)."""
        cuts, slopes = table.cuts, table.slopes
        for j in range(len(slopes)):
            yield replace(table, slopes=slopes[:j] + (slopes[j] + F(1, 1000),) + slopes[j + 1:])
        for j in range(len(slopes) - 1):
            d = F(1, 1000)
            back = d * (cuts[j + 1] - cuts[j]) / (cuts[j + 2] - cuts[j + 1])
            yield replace(table, slopes=(*slopes[:j], slopes[j] + d, slopes[j + 1] - back,
                                         *slopes[j + 2:]))
        for j in range(1, len(cuts) - 1):
            shift = min(cuts[j] - cuts[j - 1], cuts[j + 1] - cuts[j]) / 3
            yield replace(table, cuts=cuts[:j] + (cuts[j] + shift,) + cuts[j + 1:])
            for keep in (j - 1, j):
                yield KinkTable(cuts[:j] + cuts[j + 1:],
                                slopes[:j - 1] + (slopes[keep],) + slopes[j + 1:])

    @pytest.mark.parametrize("construction", ["thm2", "appendix"])
    def test_midpoint_check_rejects_wrong_tables(self, construction):
        if construction == "thm2":
            table, fn = thm2_kink_table(1, 8, 0, 10)[0], lambda s: thm2_ord0(1, s, 8)
        else:
            _, body = appendix_boundary(5)
            table, fn = appendix_kink_table(body), gauge_along(body)
        assert table.matches(fn)
        wrong = list(self.wrong_tables(table))
        assert len(wrong) == 5 * len(table.cuts) - 9
        for bad in wrong:
            assert not bad.matches(fn)

    def test_midpoint_check_on_a_window(self):
        # the cells beside a window's kinks are whole cells of ord0
        table, _ = thm2_kink_table(1, 32, 1, F(3, 2))
        assert table.matches(lambda s: thm2_ord0(1, s, 32))
        bad = replace(table, cuts=(table.cuts[0] - F(1, 100), *table.cuts[1:]))
        assert not bad.matches(lambda s: thm2_ord0(1, s, 32))
