"""Newton polyhedra and exact hull/volume machinery."""

import random
from fractions import Fraction
from itertools import combinations
from itertools import product as iterprod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multigraded.errors import (
    NegativeWeight,
    UnboundedComplement,
    UnsupportedDimension,
    ZeroIdeal,
)
from multigraded.monomial import MonomialIdeal, minimalize
from multigraded.newton import (
    convex_hull,
    from_vertices,
    newton_polyhedron,
    vertices_from_halfspaces,
)
from multigraded.regions import region_from_halfspaces, region_intersect


def ideal(*gens, k=2):
    return minimalize(gens, k)


class TestConstruction:
    def test_maximal(self):
        p = newton_polyhedron(MonomialIdeal.maximal(2))
        assert p.vertices == ((0, 1), (1, 0))
        assert p.facets == (((1, 1), 1),)

    def test_two_generators(self):
        p = newton_polyhedron(ideal((2, 0), (0, 3)))
        assert p.vertices == ((0, 3), (2, 0))
        assert p.facets == (((3, 2), 6),)

    def test_interior_staircase_vertex(self):
        # (1,1) is below the chord from (0,3) to (2,0), so it is a vertex
        p = newton_polyhedron(ideal((2, 0), (1, 1), (0, 3)))
        assert p.vertices == ((0, 3), (1, 1), (2, 0))

    def test_collinear_generator_dropped(self):
        p = newton_polyhedron(ideal((2, 0), (1, 1), (0, 2)))
        assert p.vertices == ((0, 2), (2, 0))

    def test_axis_facets_when_supporting(self):
        # x^2 y, x^3: every monomial has x-degree >= 2
        p = newton_polyhedron(ideal((2, 1), (3, 0)))
        assert (((1, 0), 2)) in p.facets

    def test_unit(self):
        p = newton_polyhedron(MonomialIdeal.unit(2))
        assert p.vertices == ((0, 0),) and p.facets == ()

    def test_zero_raises(self):
        with pytest.raises(ZeroIdeal):
            newton_polyhedron(MonomialIdeal.zero(2))

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimension):
            newton_polyhedron(MonomialIdeal.maximal(4))

    def test_generators_always_inside(self):
        rng = random.Random(23)
        for _ in range(40):
            gens = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(4)]
            a = minimalize(gens, 2)
            if a.is_zero:
                continue
            p = newton_polyhedron(a)
            assert all(p.contains_point(g) for g in a.gens)


class TestContainsPoint:
    def test_examples(self):
        p = newton_polyhedron(MonomialIdeal.maximal(2))
        assert p.contains_point((Fraction(1, 2), Fraction(1, 2)))
        assert not p.contains_point((Fraction(1, 4), Fraction(1, 4)))
        assert newton_polyhedron(ideal((2, 0), (0, 3))).contains_point((2, 5))

    def test_negative_coordinates_outside(self):
        p = newton_polyhedron(MonomialIdeal.maximal(2))
        assert not p.contains_point((-1, 5))


class TestDiagonalLambda:
    def test_examples(self):
        assert newton_polyhedron(MonomialIdeal.maximal(2)).diagonal_lambda() == Fraction(1, 2)
        assert newton_polyhedron(ideal((2, 0), (0, 3))).diagonal_lambda() == Fraction(6, 5)
        assert newton_polyhedron(MonomialIdeal.unit(2)).diagonal_lambda() == 0

    def test_diagonal_point_is_inside(self):
        rng = random.Random(29)
        for _ in range(30):
            gens = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(4)]
            a = minimalize(gens, 2)
            if a.is_zero:
                continue
            p = newton_polyhedron(a)
            lam = p.diagonal_lambda()
            assert p.contains_point((lam, lam))


class TestMinWeighted:
    def test_examples(self):
        assert newton_polyhedron(ideal((2, 0), (0, 3))).min_weighted((1, 1)) == 2
        assert newton_polyhedron(ideal((2, 0), (1, 1), (0, 3))).min_weighted((1, 1)) == 2
        assert newton_polyhedron(ideal((2, 0), (0, 3))).min_weighted((0, 0)) == 0

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            newton_polyhedron(MonomialIdeal.maximal(2)).min_weighted((1, -1))

    def test_matches_grid_brute_force(self):
        rng = random.Random(31)
        for _ in range(20):
            a = minimalize(
                [(rng.randint(1, 5), 0), (0, rng.randint(1, 5)),
                 (rng.randint(1, 5), rng.randint(1, 5))], 2,
            )
            p = newton_polyhedron(a)
            w = (rng.randint(0, 3), rng.randint(0, 3))
            grid = min(
                w[0] * x + w[1] * y
                for x, y in iterprod(range(12), range(12))
                if p.contains_point((x, y))
            )
            assert p.min_weighted(w) == grid


class TestCovolume:
    def test_examples(self):
        assert newton_polyhedron(MonomialIdeal.maximal(2)).covolume() == Fraction(1, 2)
        assert newton_polyhedron(ideal((2, 0), (0, 3))).covolume() == 3
        assert newton_polyhedron(ideal((2, 0), (1, 1), (0, 3))).covolume() == Fraction(5, 2)

    def test_unbounded(self):
        with pytest.raises(UnboundedComplement):
            newton_polyhedron(ideal((1, 0))).covolume()

    def test_dilation_homogeneity(self):
        a = ideal((2, 0), (1, 1), (0, 3))
        base = newton_polyhedron(a).covolume()
        for n in range(1, 5):
            assert newton_polyhedron(a.power(n)).covolume() == n**2 * base

    def test_three_dimensional_simplex(self):
        p = newton_polyhedron(MonomialIdeal.maximal(3))
        assert p.covolume() == Fraction(1, 6)

    def test_three_dimensional_cut_corner(self):
        # complement of {x+3y+z >= 4, 3x+y+z >= 4}: by slicing,
        # 32/9 + 32/9 - int_0^4 (4-z)^2/12 dz = 64/9 - 16/9 = 16/3
        a = minimalize([(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 0)], 3)
        p = newton_polyhedron(a)
        assert set(p.facets) == {((1, 3, 1), 4), ((3, 1, 1), 4)}
        assert p.covolume() == Fraction(16, 3)

    def test_three_dimensional_vs_lattice_refinement(self):
        a = minimalize([(2, 0, 0), (0, 3, 0), (0, 0, 4), (1, 1, 1)], 3)
        p = newton_polyhedron(a)
        m, bound = 8, 4
        count = sum(
            1
            for q in iterprod(range(bound * m), repeat=3)
            if not p.contains_point(tuple(Fraction(x, m) for x in q))
        )
        approx = Fraction(count, m**3)
        assert abs(approx - p.covolume()) <= Fraction(p.covolume(), 4)


class TestMinkowskiProperty:
    def test_vertex_sums_inside_product_polyhedron(self):
        rng = random.Random(37)
        for _ in range(20):
            a = minimalize([(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)], 2)
            b = minimalize([(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)], 2)
            if a.is_zero or b.is_zero:
                continue
            pab = newton_polyhedron(a.product(b))
            for u in newton_polyhedron(a).vertices:
                for v in newton_polyhedron(b).vertices:
                    assert pab.contains_point(tuple(x + y for x, y in zip(u, v)))


class TestConvexHull:
    def test_square(self):
        h = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert set(h.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert not h.degenerate
        assert h.vertices[0] == (0, 0)

    def test_collinear(self):
        h = convex_hull([(0, 0), (2, 0), (1, 0)])
        assert h.vertices == ((0, 0), (2, 0)) and h.degenerate

    def test_triangle(self):
        h = convex_hull([(2, 0), (0, 3), (1, 1)])
        assert set(h.vertices) == {(2, 0), (0, 3), (1, 1)}

    def test_cube(self):
        pts = list(iterprod((0, 1), repeat=3))
        h = convex_hull(pts)
        assert set(h.vertices) == set(pts)
        assert len(h.facets) == 6 and not h.degenerate

    def test_coplanar_3d(self):
        h = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0)])
        assert h.degenerate
        assert set(h.vertices) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, 0)}

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimension):
            convex_hull([(0, 0, 0, 0)])


class TestFromVertices:
    def test_reconstruction_round_trip(self):
        p = newton_polyhedron(ideal((3, 0), (1, 1), (0, 2)))
        q = from_vertices(p.vertices)
        assert (q.vertices, q.facets) == (p.vertices, p.facets)


def brute_vertices_2d(facets):
    """Reference: every feasible crossing of two constraint lines (axes included)."""
    lines = [(tuple(a), Fraction(c)) for a, c in facets] + [((1, 0), 0), ((0, 1), 0)]
    found = set()
    for (a, c), (b, d) in combinations(lines, 2):
        det = a[0] * b[1] - a[1] * b[0]
        if det == 0:
            continue
        q = (Fraction(c * b[1] - d * a[1], det), Fraction(a[0] * d - b[0] * c, det))
        if min(q) >= 0 and all(u * q[0] + v * q[1] >= e for (u, v), e in facets):
            found.add(q)
    return tuple(sorted(found))


# small entries make duplicate, parallel and axis-parallel facets common;
# the appended draws repeat facets of the list verbatim
NORMALS = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda a: a != (0, 0))
FACETS = st.lists(
    st.tuples(NORMALS, st.fractions(min_value=-2, max_value=12, max_denominator=4)),
    min_size=1,
    max_size=8,
).flatmap(lambda fs: st.lists(st.sampled_from(fs), max_size=3).map(lambda dup: fs + dup))


class TestVerticesFromHalfspaces2d:
    @settings(max_examples=150, deadline=None)
    @given(FACETS)
    @example([((1, 2), 2), ((1, 2), 2), ((2, 4), 3)])  # duplicate and parallel facets
    @example([((0, 1), 3)])  # a0 = 0 only: the complement is unbounded
    @example([((1, 0), Fraction(5, 2)), ((0, 2), 3)])  # a1 = 0, a0 = 0, no sloped facet
    @example([((1, 0), Fraction(7, 3)), ((1, 1), 2), ((3, 1), 3)])  # wall right of crossings
    @example([((1, 1), 2), ((2, 1), 3), ((3, 1), 4)])  # three facets through (1, 1)
    @example([((1, 3), -1), ((2, 0), 0)])  # only vacuous facets: the origin
    def test_matches_pairwise_enumeration(self, facets):
        got = vertices_from_halfspaces(2, facets)
        assert got == brute_vertices_2d(facets)
        assert all(type(x) is Fraction for v in got for x in v)

    @settings(max_examples=60, deadline=None)
    @given(FACETS, FACETS)
    def test_region_intersection(self, fp, fq):
        p, q = region_from_halfspaces(2, fp), region_from_halfspaces(2, fq)
        meet = region_intersect(p, q)
        assert meet == region_from_halfspaces(2, p.facets + q.facets)
        assert meet == region_intersect(q, p)
