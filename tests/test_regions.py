"""Region builders, region algebra, lattice generators, and the gauge body."""

from fractions import Fraction
from itertools import product as iterprod
from math import ceil, factorial, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigraded import regions
from multigraded.errors import (
    DimensionMismatch,
    EmptyRegion,
    NonpositiveScale,
    WorkLimitExceeded,
)
from multigraded.monomial import MonomialIdeal, minimalize
from multigraded.newton import NewtonPolyhedron
from multigraded.regions import (
    PiecewiseLinearFn,
    _hinge_sum,
    appendix_boundary,
    build_g,
    build_kinked_f,
    dyadic_sequence,
    epigraph_region,
    full_orthant,
    lattice_generators,
    region_from_halfspaces,
    region_intersect,
    region_minkowski,
)

F = Fraction


def kink_abscissae(f):
    """The abscissae of a piecewise-linear function's kinks, ascending."""
    return tuple(x for x, _ in f.breakpoints[1:])


def contains(p, q):
    """Membership in a stored polyhedron: q >= 0 and every facet holds."""
    return min(q) >= 0 and all(sum(a * x for a, x in zip(n, q)) >= c for n, c in p.facets)


def box_scan_generators(region, m):
    """Reference for k = 3: every lattice point of the bounding box of m * region
    that meets all facets, reduced by ``minimalize`` (the scan the column scan
    replaced; the k = 3 sweep inside ``minimalize`` is checked against the
    quadratic filter in test_monomial.py)."""
    scaled = region.scale(m) if m != 1 else region
    bounds = []
    for i in range(3):
        per_axis = [ceil(F(c, a[i])) + 1 for a, c in scaled.facets if a[i] > 0]
        bounds.append(max(per_axis) if per_axis else 0)
    points = [
        p
        for p in iterprod(*(range(b + 1) for b in bounds))
        if all(sum(x * y for x, y in zip(a, p)) >= c for a, c in scaled.facets)
    ]
    if not points:
        raise EmptyRegion("no lattice points in the scan box")
    return minimalize(points, 3)


def column_points_2d(region, m):
    """Reference for k = 2: one point per column x from the wall to the last
    vertex, at the ceiling of the highest sloped facet (Fraction arithmetic),
    reduced by ``minimalize`` (the scan the direct antichain replaced)."""
    scaled = region.scale(m) if m != 1 else region
    vertical = [c for a, c in scaled.facets if a[1] == 0]
    x_start = ceil(max(vertical)) if vertical else 0
    x_stop = ceil(max(F(v[0]) for v in scaled.vertices))
    points = []
    for x in range(x_start, max(x_start, x_stop) + 1):
        y = F(0)
        for a, c in scaled.facets:
            if a[1] > 0:
                y = max(y, F(c - a[0] * x, a[1]))
        points.append((x, ceil(y)))
    return minimalize(points, 2)


def lagrange(points, x):
    """Value at x and leading coefficient of the interpolating polynomial."""
    value, lead = F(0), F(0)
    for i, (xi, yi) in enumerate(points):
        denom = 1
        num = F(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                denom *= xi - xj
                num *= x - xj
        value += num / denom
        lead += F(yi, denom)
    return value, lead


halfspaces2 = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
        st.one_of(st.integers(1, 6), st.fractions(min_value=F(1, 4), max_value=6,
                                                  max_denominator=4)),
    ),
    min_size=1,
    max_size=5,
)

halfspaces3 = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).filter(any),
        st.fractions(min_value=F(1, 3), max_value=5, max_denominator=3),
    ),
    min_size=1,
    max_size=4,
)


class TestDyadics:
    def test_enumeration_order(self):
        assert dyadic_sequence(8) == [
            F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(3, 8), F(5, 8), F(7, 8), F(1, 16),
        ]


class TestKinkedBuilder:
    def test_zero_kinks_is_the_base_line(self):
        f = build_kinked_f(0)
        assert f(0) == 2 and f.intercept == 1
        assert f.slopes == (F(-2),)

    def test_one_kink(self):
        f = build_kinked_f(1)
        assert kink_abscissae(f) == (F(1, 2),)
        assert f.slopes == (F(-17, 8), F(-2))
        assert f(0) == F(33, 16)
        assert f(F(1, 2)) == 1 and f(1) == 0

    def test_two_kinks(self):
        f = build_kinked_f(2)
        assert kink_abscissae(f) == (F(1, 4), F(1, 2))
        # extra slope 1/16 active only left of 1/4
        assert f.slopes == (F(-35, 16), F(-17, 8), F(-2))

    def test_slope_jump_at_each_kink(self):
        f = build_kinked_f(5)
        eps = dyadic_sequence(5)
        jumps = {x: b - a for x, a, b in zip(kink_abscissae(f), f.slopes, f.slopes[1:])}
        for i, e in enumerate(eps, start=1):
            assert jumps[e] == F(1, 2 ** (i + 2))

    def test_steeper_than_minus_two(self):
        f = build_kinked_f(6)
        assert all(s <= -2 for s in f.slopes)

    def test_side_condition(self):
        # total lift of f(0) stays below 1
        assert build_kinked_f(12)(0) - 2 < 1

    def test_refuses_a_negative_count(self):
        # dyadic_sequence(-1) is empty, which would build the N = 0 line
        with pytest.raises(ValueError, match="n_kinks must be >= 0, got -1"):
            build_kinked_f(-1)


class TestG:
    def test_values(self):
        g = build_g()
        assert g(0) == 1 and g(2) == 0 and g(1) == F(1, 2)


class TestEpigraphRegion:
    def test_line(self):
        q = epigraph_region(build_g())
        assert q.vertices == ((0, 1), (2, 0))
        assert q.facets == (((1, 2), 2),)

    def test_base_kink_free(self):
        p = epigraph_region(build_kinked_f(0))
        assert p.vertices == ((0, 2), (1, 0))
        assert p.facets == (((2, 1), 2),)

    def test_one_kink(self):
        p = epigraph_region(build_kinked_f(1))
        assert p.vertices == ((0, F(33, 16)), (F(1, 2), 1), (1, 0))


class TestRegionAlgebra:
    def test_scale_identity_and_inverse(self):
        p = epigraph_region(build_g())
        assert p.scale(1) == p
        assert p.scale(2).scale(F(1, 2)) == p

    def test_scale_facet(self):
        assert epigraph_region(build_g()).scale(2).facets == (((1, 2), 4),)

    def test_scale_positive_only(self):
        for body in (epigraph_region(build_g()), MonomialIdeal.maximal(3).newton()):
            for t in (0, -1, F(-1, 2)):
                with pytest.raises(NonpositiveScale):
                    body.scale(t)

    def test_k1_halfspace_divides_by_the_normal(self):
        # {x : 2x >= 3} starts at 3/2, so its lattice ideal is (x^2)
        p = region_from_halfspaces(1, [((2,), 3)])
        assert p.vertices == ((F(3, 2),),)
        assert lattice_generators(p, 1).gens == ((2,),)
        assert region_from_halfspaces(1, [((F(1, 2),), 1), ((1,), F(3, 2))]).vertices == ((2,),)

    def test_intersect_self(self):
        p = epigraph_region(build_kinked_f(1))
        assert region_intersect(p, p) == p

    def test_intersect_two_lines(self):
        p = epigraph_region(build_kinked_f(0))
        q = epigraph_region(build_g())
        meet = region_intersect(p, q)
        assert meet.vertices == ((0, 2), (F(2, 3), F(2, 3)), (2, 0))

    def test_minkowski_of_line_with_itself(self):
        q = epigraph_region(build_g())
        assert region_minkowski(q, q) == q.scale(2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            region_intersect(epigraph_region(build_g()), full_orthant(3))

    def test_absorbing_property(self):
        p = region_intersect(epigraph_region(build_kinked_f(2)), epigraph_region(build_g()))
        for q in list(p.vertices) + [(F(1, 3), 5), (7, 0)]:
            if not contains(p, q):
                continue
            for e in ((1, 0), (0, 1)):
                assert contains(p, tuple(a + b for a, b in zip(q, e)))


class TestLatticeGenerators:
    def test_maximal_halfplane(self):
        p = region_from_halfspaces(2, [((1, 1), 1)])
        assert lattice_generators(p, 1) == minimalize([(1, 0), (0, 1)], 2)

    def test_doubled_halfplane(self):
        p = region_from_halfspaces(2, [((1, 1), 1)])
        assert lattice_generators(p, 2) == minimalize([(2, 0), (1, 1), (0, 2)], 2)

    def test_line_epigraph(self):
        assert lattice_generators(epigraph_region(build_g()), 2).gens == (
            (0, 2), (2, 1), (4, 0),
        )

    def test_gradedness_of_the_generated_family(self):
        p = epigraph_region(build_kinked_f(1))
        ideals = {m: lattice_generators(p, m) for m in range(1, 13)}
        for m in range(1, 12):
            for n in range(1, 13 - m):
                assert ideals[m + n].contains_ideal(ideals[m].product(ideals[n]))

    def test_vertical_strip(self):
        p = region_from_halfspaces(2, [((1, 0), F(5, 2))])
        assert lattice_generators(p, 1).gens == ((3, 0),)

    @pytest.mark.parametrize("facets", [
        [((1,), 3)],
        [((2,), 5), ((3,), 4)],
        [((1,), F(7, 3)), ((2,), F(9, 2))],
        [((F(2, 3),), 1), ((F(1, 2),), F(5, 4))],
    ], ids=["integer-c", "two-facets", "fraction-c", "rational-normals"])
    def test_k1_scan_is_the_ceiling_of_the_largest_bound(self, facets):
        p = region_from_halfspaces(1, facets)
        for m in range(1, 9):
            want = ceil(m * max(F(c) / a[0] for a, c in facets))
            assert lattice_generators(p, m).gens == ((want,),)
        assert lattice_generators(full_orthant(1), 3).gens == ((0,),)

    @settings(max_examples=100, deadline=None)
    @given(halfspaces2, st.integers(1, 5))
    def test_2d_scan_matches_column_points(self, facets, m):
        # walls (a_y = 0), floors (a_x = 0) and Fraction right-hand sides are common
        p = region_from_halfspaces(2, facets)
        assert repr(lattice_generators(p, m)) == repr(column_points_2d(p, m))

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_2d_scan_of_kinked_epigraphs(self, n):
        p = epigraph_region(build_kinked_f(n))
        for m in (1, 4, 7, 16):
            assert repr(lattice_generators(p, m)) == repr(column_points_2d(p, m))

    def test_three_dimensional_box_scan(self):
        p = region_from_halfspaces(3, [((1, 1, 1), 2)])
        got = lattice_generators(p, 1)
        want = minimalize(
            [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)], 3
        )
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(halfspaces3, st.integers(1, 4))
    def test_column_scan_matches_box_scan(self, facets, m):
        # normals with a_z = 0 and Fraction right-hand sides are drawn often
        p = region_from_halfspaces(3, facets)
        assert repr(lattice_generators(p, m)) == repr(box_scan_generators(p, m))

    @pytest.mark.parametrize("facets", [
        [((0, 0, 1), F(5, 2))],
        [((1, 0, 0), 2), ((0, 1, 1), 3)],
        [((2, 1, 0), F(7, 3)), ((0, 0, 1), 1), ((1, 1, 1), F(9, 2))],
        [((1, 2, 3), 6), ((3, 2, 1), 6), ((2, 3, 1), 6)],
    ], ids=["single-facet", "vertical-facet", "fraction-rhs", "roadmap-probe"])
    def test_column_scan_examples(self, facets):
        p = region_from_halfspaces(3, facets)
        for m in (1, 2, 3):
            assert repr(lattice_generators(p, m)) == repr(box_scan_generators(p, m))

    def test_no_lattice_point_in_the_box(self):
        # a facet no point meets (zero normal, positive right-hand side)
        p = NewtonPolyhedron(3, ((0, 0, 0),), (((0, 0, 0), 1),))
        for m in (1, 2):
            with pytest.raises(EmptyRegion):
                lattice_generators(p, m)
            with pytest.raises(EmptyRegion):
                box_scan_generators(p, m)

    def test_roadmap_probe_at_scale_32(self):
        p = region_from_halfspaces(3, [((1, 2, 3), 6), ((3, 2, 1), 6), ((2, 3, 1), 6)])
        ideal = lattice_generators(p, 32)
        assert len(ideal.gens) == 5083 and ideal.colength() == 326976


def scale_then_scan(region, m):
    """Reference: the column scan on the Fraction polyhedron m * region
    built by ``scale``, each facet cleared of denominators by its own lcm
    (the route that reading the stored facets replaced)."""
    k = region.dim
    scaled = region.scale(m) if m != 1 else region
    pad = (0,) * (3 - k)
    bx, by, bz = pad + tuple(ceil(max(v[i] for v in scaled.vertices)) for i in range(k))
    flat, sloped = [], []
    for a, c in scaled.facets:
        q = (*pad, *a, c)
        den = lcm(*(t.denominator for t in q))
        ax, ay, az, cc = (t.numerator * (den // t.denominator) for t in q)
        (sloped if az > 0 else flat).append((ax, ay, az, cc))
    empty = bz + 1
    gens = []
    below = [empty] * (by + 1)
    for x in range(bx + 1):
        left = empty
        for y in range(by + 1):
            if any(ax * x + ay * y < cc for ax, ay, _, cc in flat):
                h = empty
            else:
                h = max([0] + [-((ax * x + ay * y - cc) // az) for ax, ay, az, cc in sloped])
            if h < left and h < below[y]:
                gens.append((x, y, h)[3 - k:])
            below[y] = left = h
    return minimalize(gens, k)


def rational_facets(k):
    """Nonnegative, nonzero normals with int or Fraction entries, int or
    Fraction c > 0, repeated facets; axis intercepts at most 8."""
    entry = st.one_of(st.integers(0, 3), st.fractions(F(1, 2), 3, max_denominator=3))
    c = st.one_of(st.integers(1, 4), st.fractions(F(1, 3), 4, max_denominator=5))
    return st.lists(st.tuples(st.tuples(*[entry] * k).filter(any), c),
                    min_size=1, max_size=4).flatmap(
        lambda fs: st.lists(st.sampled_from(fs), max_size=1).map(lambda dup: fs + dup))


class TestScanOfStoredFacets:
    """The scan read off the region's stored facets and vertices equals the
    scan of the scaled polyhedron by ``repr``, for k = 1, 2, 3 and m = 1..6."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_scale_then_scan(self, k, data):
        p = region_from_halfspaces(k, data.draw(rational_facets(k)))
        for m in range(1, 7):
            assert repr(lattice_generators(p, m)) == repr(scale_then_scan(p, m))

    @pytest.mark.parametrize("n", [0, 3, 64])
    def test_kinked_epigraphs(self, n):
        p = epigraph_region(build_kinked_f(n))
        for m in range(1, 9):
            assert repr(lattice_generators(p, m)) == repr(scale_then_scan(p, m))


def tangent_facet(point):
    """The facet of {prod x_i >= prod point_i} through point: the gradient
    prod(point) / point_i is its normal, and c = k prod(point)."""
    p = prod(point)
    return tuple(p / t for t in point), len(point) * p


def many_facets(k):
    """5 to 12 facets: 3 to 10 tangent to x y = 1 or x y z = 1 at distinct
    points with coordinates in [1/2, 2], so that they stay irredundant, and
    2 with small entries, zeros (flat facets) among them."""
    coord = st.fractions(F(1, 2), 2, max_denominator=4)
    points = st.lists(st.tuples(*[coord] * (k - 1)), min_size=3, max_size=10, unique=True)
    tangent = points.map(lambda pts: [tangent_facet((*ts, 1 / prod(ts))) for ts in pts])
    other = st.tuples(st.tuples(*[st.integers(0, 2)] * k).filter(any), st.integers(1, 3))
    return st.tuples(tangent, st.lists(other, min_size=2, max_size=2)).map(lambda p: p[0] + p[1])


# 80 tangent planes of x y z >= 1, at (p, q, 1/(p q))
TANGENT_TS = [F(n, d) for n, d in ((1, 4), (1, 3), (1, 2), (2, 3), (1, 1), (3, 2), (2, 1),
                                   (3, 1), (4, 1))]
TANGENT_FACETS = [((1 / p, 1 / q, p * q), 3) for p in TANGENT_TS for q in TANGENT_TS][:80]


class TestManyFacetScans:
    """Scans of regions with many facets, whose long rows go through the
    line envelope and whose short rows take the max column by column, equal
    the per-column scan of the scaled polyhedron by ``repr`` (the kinked
    epigraph at N = 64 is in ``TestScanOfStoredFacets``)."""

    @pytest.mark.parametrize("k", [2, 3])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_matches_scale_then_scan(self, k, data):
        p = region_from_halfspaces(k, data.draw(many_facets(k)))
        for m in range(1, 4):
            assert repr(lattice_generators(p, m)) == repr(scale_then_scan(p, m))

    def test_tangent_region(self):
        p = region_from_halfspaces(3, TANGENT_FACETS)
        assert len(p.facets) == 80
        for m in range(1, 4):
            assert repr(lattice_generators(p, m)) == repr(scale_then_scan(p, m))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6), st.integers(-60, 60)),
                    max_size=8),
           st.integers(-5, 5), st.integers(0, 30))
    def test_envelope_heights_are_the_max_of_the_lines(self, lines, lo, width):
        # lines by slope -a_y / a_z increasing, parallel ones among them,
        # then the floor z = 0, as the scan passes them
        lines = sorted(lines, key=lambda t: F(-t[0], t[1])) + [(0, 1, 0)]
        expected = [max(-((ay * y + p) // az) for ay, az, p in lines)
                    for y in range(lo, lo + width)]
        assert regions._envelope_heights(lines, lo, lo + width) == expected


class TestScanColumnCap:
    """A scan box of more than ``MAX_SCAN_COLUMNS`` columns (x, y) is refused
    before the scan; one at the cap is scanned."""

    def test_cap_is_inclusive(self, monkeypatch):
        p = region_from_halfspaces(3, [((1, 1, 1), 5)])  # a 6 x 6 box of columns
        monkeypatch.setattr(regions, "MAX_SCAN_COLUMNS", 36)
        assert len(lattice_generators(p, 1).gens) == 21
        monkeypatch.setattr(regions, "MAX_SCAN_COLUMNS", 35)
        with pytest.raises(WorkLimitExceeded, match="limit of 35$"):
            lattice_generators(p, 1)

    def test_k2_counts_one_row_of_columns(self, monkeypatch):
        p = region_from_halfspaces(2, [((1, 1), 5)])  # columns (0, y), y <= 10 at m = 2
        monkeypatch.setattr(regions, "MAX_SCAN_COLUMNS", 11)
        assert len(lattice_generators(p, 2).gens) == 11
        with pytest.raises(WorkLimitExceeded):
            lattice_generators(p, 3)

    def test_huge_region_refused_at_once(self):
        p = region_from_halfspaces(3, [((1, 1, 1), F(10) ** 400)])
        with pytest.raises(WorkLimitExceeded, match=f"limit of {regions.MAX_SCAN_COLUMNS}$"):
            lattice_generators(p, 1)


class TestEhrhartOracle:
    """n -> colength of the lattice ideal of n P is a polynomial of degree k
    for a lattice polyhedron P, with leading coefficient covol(P); so
    k! * lead is the multiplicity, through the scan and the colength, not
    the covolume."""

    @pytest.mark.parametrize("gens", [
        [(2, 0), (1, 1), (0, 3)],
        [(5, 0), (2, 1), (0, 4)],
        [(3, 0), (1, 2), (0, 7)],
        [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)],
        [(3, 0, 0), (0, 4, 0), (0, 0, 2), (1, 1, 0), (0, 2, 1)],
        [(4, 0, 0), (0, 3, 0), (0, 0, 5), (2, 1, 1), (1, 0, 2)],
    ])
    def test_interpolated_colength(self, gens):
        ideal = minimalize(gens, len(gens[0]))
        k, body = ideal.dim, ideal.newton()
        counts = [(n, lattice_generators(body, n).colength()) for n in range(1, k + 3)]
        predicted, lead = lagrange(counts[:-1], k + 2)
        assert predicted == counts[-1][1]
        assert factorial(k) * lead == ideal.multiplicity()


class TestPiecewiseLinearValidation:
    def test_rejects_nonconvex(self):
        # a concave function is a valid boundary, but it has no epigraph region
        fn = PiecewiseLinearFn(((F(0), F(2)), (F(1), F(1))), (F(-1), F(-2)))
        assert fn.intercept == F(3, 2)
        with pytest.raises(ValueError, match="strictly increasing"):
            epigraph_region(fn)

    def test_rejects_discontinuity(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFn(
                ((F(0), F(2)), (F(1), F(2))), (F(-2), F(-1))
            )

    @pytest.mark.parametrize("bps, slopes", [
        (((F(0), F(1)),), ()),  # no slope for the breakpoint
        (((F(1), F(1)),), (F(-1),)),  # first breakpoint off 0
        (((F(0), F(2)), (F(0), F(2))), (F(0), F(-1))),  # abscissae not increasing
        (((F(0), F(1)), (F(1), F(0))), (F(-1), F(-1))),  # a value of 0
        (((F(0), F(1)),), (F(0),)),  # never reaches zero
    ])
    def test_rejects_bad_shapes(self, bps, slopes):
        with pytest.raises(ValueError):
            PiecewiseLinearFn(bps, slopes)


def kinked_closed_sum(n):
    """2 - 2x + sum of w_i max(0, e_i - x), and its slope right of x."""
    eps = dyadic_sequence(n)
    ws = [F(1, 2 ** (i + 2)) for i in range(1, n + 1)]

    def value(x):
        return 2 - 2 * x + sum(w * max(F(0), e - x) for e, w in zip(eps, ws))

    def slope(x):
        return -2 - sum(w for e, w in zip(eps, ws) if e > x)

    return eps, value, slope


def appendix_closed_sum(n):
    """sum of min(e_i, e_i (1 - x)/(1 - x_i)), and its slope right of x."""
    xs = dyadic_sequence(n)
    eps = [F(1, 2**i) for i in range(1, n + 1)]

    def value(x):
        return sum(min(e, e * (1 - x) / (1 - xi)) for e, xi in zip(eps, xs))

    def slope(x):
        return -sum(e / (1 - xi) for e, xi in zip(eps, xs) if xi <= x)

    return xs, value, slope


class TestHingeSum:
    """The one-sweep builders against the literal closed sums, evaluated
    term by term at every breakpoint and at the middle of every piece."""

    def check(self, fn, abscissae, value, slope):
        xs = [F(0)] + sorted(abscissae)
        assert fn.breakpoints == tuple((x, value(x)) for x in xs)
        assert fn.slopes == tuple(slope(x) for x in xs)
        assert all(type(v) is F for _, v in fn.breakpoints) and all(type(s) is F for s in fn.slopes)
        ends = xs + [fn.intercept]
        for a, b in zip(ends, ends[1:]):
            assert fn((a + b) / 2) == value((a + b) / 2)
        assert value(fn.intercept) == 0 and fn(fn.intercept) == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 64])
    def test_kinked(self, n):
        eps, value, slope = kinked_closed_sum(n)
        self.check(build_kinked_f(n), eps, value, slope)
        assert build_kinked_f(n).intercept == 1

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_appendix(self, n):
        xs, value, slope = appendix_closed_sum(n)
        boundary, _ = appendix_boundary(n)
        self.check(boundary, xs, value, slope)
        assert boundary.intercept == 1

    def test_jumps_in_any_order(self):
        fn = _hinge_sum(3, -3, [(F(1, 2), F(1)), (F(1, 4), F(1))])
        assert fn.breakpoints == ((0, 3), (F(1, 4), F(9, 4)), (F(1, 2), F(7, 4)))
        assert fn.slopes == (-3, -2, -1) and fn.intercept == F(9, 4)


class TestAppendix:
    def test_single_term(self):
        f, _ = appendix_boundary(1)
        assert f(0) == F(1, 2) and f(F(1, 4)) == F(1, 2)
        assert f(F(3, 4)) == F(1, 4) and f(1) == 0

    def test_value_at_zero_is_sum_of_caps(self):
        for n in (1, 3, 5):
            f, _ = appendix_boundary(n)
            assert f(0) == sum(F(1, 2**i) for i in range(1, n + 1))
            assert f(1) == 0

    def test_gauge_extents(self):
        _, body = appendix_boundary(1)
        assert body.gauge((1, 0)) == 1
        assert body.gauge((0, 1)) == 2

    def test_gauge_homogeneity(self):
        _, body = appendix_boundary(2)
        p = (1, 1)
        lam = F(3, 7)
        assert body.gauge((lam * p[0], lam * p[1])) == lam * body.gauge(p)
        assert body.gauge((0, 0)) == 0

    def test_gauge_midpoint_convexity(self):
        _, body = appendix_boundary(3)
        pts = [(F(1), F(t, 5)) for t in range(-5, 6)] + [(F(-2, 3), F(1))]
        for p in pts:
            for q in pts:
                mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
                assert 2 * body.gauge(mid) <= body.gauge(p) + body.gauge(q)

    def test_kink_vertices_on_boundary(self):
        f, body = appendix_boundary(4)
        for x, y in body.kink_vertices:
            assert y == f(x)
            assert body.gauge((x, y)) == 1
