"""Newton polyhedra and exact hull/volume machinery."""

import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from itertools import product as iterprod
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multigraded.errors import (
    UnboundedComplement,
    UnsupportedDimension,
    ZeroIdeal,
)
from multigraded.monomial import MonomialIdeal, minimalize
from multigraded.newton import (
    NewtonPolyhedron,
    _covolume_3d,
    _normalize_facet,
    _rank,
    _ring,
    _shoelace,
    envelope_2d,
    from_vertices,
    newton_polyhedron,
    orthant_hull_3d,
    primitive,
    vertices_from_halfspaces,
)
from multigraded.regions import (
    full_orthant,
    region_from_halfspaces,
    region_intersect,
    thm2_regions,
)

F = Fraction


def ideal(*gens, k=2):
    return minimalize(gens, k)


def contains(p, q):
    """Membership in a stored polyhedron: q >= 0 and every facet holds."""
    return min(q) >= 0 and all(sum(a * x for a, x in zip(n, q)) >= c for n, c in p.facets)


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
        for k in (1, 2, 3):
            p = newton_polyhedron(MonomialIdeal.unit(k))
            assert p.vertices == ((0,) * k,) and p.facets == ()

    def test_k1_keeps_integer_type(self):
        p = newton_polyhedron(minimalize([(3,)], 1))
        assert repr(p) == "NewtonPolyhedron(dim=1, vertices=((3,),), facets=(((1,), 3),))"
        assert repr(from_vertices([(5,), (3,)])) == repr(p)

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
            assert all(contains(p, g) for g in a.gens)


def fraction_primitive(nums):
    """Reference: clear denominators through Fraction, divide by the gcd."""
    fracs = [Fraction(x) for x in nums]
    denom = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


class TestPrimitive:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-60, 60), max_size=4),
           st.lists(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)), max_size=3))
    def test_matches_fraction_route(self, ints, fracs):
        for nums in (ints, ints + fracs):
            got = primitive(nums)
            assert got == fraction_primitive(nums)
            assert all(type(x) is int for x in got)
            assert primitive(iter(nums)) == got

    def test_examples(self):
        assert primitive((4, -6, 0)) == (2, -3, 0)
        assert primitive((0, 0)) == (0, 0)
        assert primitive(()) == ()
        assert primitive((True, 3)) == (1, 3) and type(primitive((True,))[0]) is int
        assert primitive((Fraction(1, 2), 3)) == (1, 6)


class TestContainsPoint:
    def test_examples(self):
        p = newton_polyhedron(MonomialIdeal.maximal(2))
        assert contains(p, (Fraction(1, 2), Fraction(1, 2)))
        assert not contains(p, (Fraction(1, 4), Fraction(1, 4)))
        assert contains(newton_polyhedron(ideal((2, 0), (0, 3))), (2, 5))

    def test_negative_coordinates_outside(self):
        p = newton_polyhedron(MonomialIdeal.maximal(2))
        assert not contains(p, (-1, 5))


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
            assert contains(p, (lam, lam))


class TestMinWeighted:
    """ord0 of a polyhedron: the least coordinate sum over it."""

    def test_examples(self):
        assert newton_polyhedron(ideal((2, 0), (0, 3))).ord0() == 2
        assert newton_polyhedron(ideal((2, 0), (1, 1), (0, 3))).ord0() == 2
        assert repr(newton_polyhedron(ideal((2, 0), (0, 3))).ord0()) == "Fraction(2, 1)"
        assert newton_polyhedron(MonomialIdeal.unit(2)).ord0() == 0

    def test_matches_grid_brute_force(self):
        rng = random.Random(31)
        for _ in range(20):
            a = minimalize(
                [(rng.randint(1, 5), 0), (0, rng.randint(1, 5)),
                 (rng.randint(1, 5), rng.randint(1, 5))], 2,
            )
            p = newton_polyhedron(a)
            grid = min(x + y for x, y in iterprod(range(12), range(12)) if contains(p, (x, y)))
            assert p.ord0() == grid


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
            if not contains(p, tuple(Fraction(x, m) for x in q))
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
                    assert contains(pab, tuple(x + y for x, y in zip(u, v)))


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
        got = vertices_from_halfspaces(2, facets)[0]
        assert got == brute_vertices_2d(facets)
        assert all(type(x) is Fraction for v in got for x in v)

    @settings(max_examples=60, deadline=None)
    @given(FACETS, FACETS)
    def test_region_intersection(self, fp, fq):
        p, q = region_from_halfspaces(2, fp), region_from_halfspaces(2, fq)
        meet = region_intersect(p, q)
        assert meet == region_from_halfspaces(2, p.facets + q.facets)
        assert meet == region_intersect(q, p)



def fraction_envelope_vertices_2d(facets):
    """Reference: the envelope with Fraction slopes and intercepts that the
    integer envelope replaced."""
    wall = Fraction(0)
    best = {Fraction(0): Fraction(0)}  # slope -> intercept
    for (a0, a1), c in facets:
        if a1 == 0:
            wall = max(wall, Fraction(c) / a0)
            continue
        slope, icept = Fraction(-a0) / a1, Fraction(c) / a1
        if slope not in best or icept > best[slope]:
            best[slope] = icept
    hull = []
    for m3, b3 in sorted(best.items()):
        while len(hull) >= 2:
            (m1, b1), (m2, b2) = hull[-2], hull[-1]
            if (b1 - b3) * (m2 - m1) > (b1 - b2) * (m3 - m1):
                break
            hull.pop()
        hull.append((m3, b3))
    breaks = [(b1 - b2) / (m2 - m1) for (m1, b1), (m2, b2) in zip(hull, hull[1:])]
    first = 0
    while first < len(breaks) and breaks[first] <= wall:
        first += 1
    m, b = hull[first]
    verts = [(wall, m * wall + b)]
    verts.extend((x, m * x + b) for x, (m, b) in zip(breaks[first:], hull[first + 1:]))
    return tuple(verts)


def chain_facets_2d(verts):
    """Reference: every facet rebuilt from the difference of two consecutive
    vertices and made primitive, then the axis facets."""
    facets = []
    for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
        normal = (y1 - y2, x2 - x1)
        prim = fraction_primitive(normal)
        i = next(j for j, x in enumerate(prim) if x != 0)
        c = Fraction(normal[0] * x1 + normal[1] * y1) * Fraction(prim[i], 1) / Fraction(normal[i])
        facets.append((prim, int(c) if c.denominator == 1 else c))
    if verts[0][0] > 0:
        facets.append(((1, 0), verts[0][0]))
    if verts[-1][1] > 0:
        facets.append(((0, 1), verts[-1][1]))
    return tuple(sorted(facets))


def fraction_region_2d(facets):
    """Reference: the region of halfspaces by the Fraction route."""
    verts = fraction_envelope_vertices_2d(facets)
    return NewtonPolyhedron(2, verts, chain_facets_2d(verts))


def fraction_intersect_2d(p, q):
    return fraction_region_2d(sorted(set(p.facets) | set(q.facets)))


# facets as stored in a polyhedron: primitive normals, c > 0 an int or a
# Fraction, integral ones included
STORED = st.lists(
    st.tuples(
        NORMALS.map(primitive),
        st.one_of(st.integers(1, 12), st.fractions(min_value=F(1, 4), max_value=12,
                                                   max_denominator=4)),
    ),
    min_size=1,
    max_size=6,
)
RATIONAL_NORMALS = st.tuples(
    st.fractions(min_value=0, max_value=4, max_denominator=3),
    st.fractions(min_value=0, max_value=4, max_denominator=3),
).filter(any)


class TestEnvelope2d:
    """The integer envelope against the Fraction envelope plus the vertex
    chain facets, by ``repr`` (so c types count)."""

    @settings(max_examples=150, deadline=None)
    @given(FACETS)
    @example([((1, 2), 2), ((1, 2), 2), ((2, 4), 3)])  # duplicate and parallel facets
    @example([((0, 1), 3)])  # a0 = 0 only
    @example([((1, 0), Fraction(5, 2)), ((0, 2), 3)])  # a wall and a floor, nothing sloped
    @example([((1, 0), Fraction(7, 3)), ((1, 1), 2), ((3, 1), 3)])  # wall right of crossings
    @example([((1, 1), 2), ((2, 1), 3), ((3, 1), 4)])  # three facets through (1, 1)
    @example([((1, 3), -1), ((2, 0), 0)])  # only vacuous facets
    @example([((2, 2), 3)])  # a single non-primitive facet
    @example([((4, 2), Fraction(9, 4)), ((2, 4), Fraction(9, 4))])
    def test_matches_fraction_route(self, facets):
        verts = fraction_envelope_vertices_2d(facets)
        assert repr(envelope_2d(facets)) == repr((verts, chain_facets_2d(verts)))
        assert vertices_from_halfspaces(2, facets)[0] == verts

    @settings(max_examples=80, deadline=None)
    @given(STORED, STORED)
    def test_intersect_stored_facets(self, fp, fq):
        p, q = fraction_region_2d(fp), fraction_region_2d(fq)
        assert repr(region_intersect(p, q)) == repr(fraction_intersect_2d(p, q))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(RATIONAL_NORMALS,
                              st.fractions(min_value=-1, max_value=8, max_denominator=5)),
                    min_size=1, max_size=6))
    def test_rational_normals(self, facets):
        kept = [(a, c) for a, c in facets if c > 0]
        if not kept:
            return
        assert repr(region_from_halfspaces(2, facets)) == repr(fraction_region_2d(kept))

    @pytest.mark.parametrize("n", [1, 8, 32, 64])
    def test_scaled_thm2_pairs(self, n):
        p, q = thm2_regions(n)
        ts = [F(1, 2), F(3, 4), F(1), F(7, 6), F(3, 2), F(2), F(13, 5)]
        for r in ts:
            for s in ts:
                pr, qs = p.scale(r), q.scale(s)
                assert repr(region_intersect(pr, qs)) == repr(fraction_intersect_2d(pr, qs))
                qrs = q.scale(s / r)
                assert repr(region_intersect(p, qrs)) == repr(fraction_intersect_2d(p, qrs))


# -- 3D hull and covolume against brute-force references ---------------------


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _det(u, v, w):
    return _dot(u, _cross(v, w))


def gauss_rank(rows) -> int:
    """Reference: rank of a small matrix of rationals, by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


_entries = st.one_of(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def rank_rows(draw):
    """0-6 rows of one length 1-3: ints and Fractions, zero rows, and rows
    that are rational combinations of earlier ones."""
    width = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            rows.append((0,) * width)
        elif kind == "combination" and rows:
            coefs = [draw(_entries) for _ in rows]
            rows.append(tuple(sum(c * r[j] for c, r in zip(coefs, rows)) for j in range(width)))
        else:
            rows.append(tuple(draw(_entries) for _ in range(width)))
    return rows


class TestIntegerRank:
    @settings(max_examples=400, deadline=None)
    @given(rank_rows())
    def test_matches_gaussian_elimination(self, rows):
        assert _rank(rows) == gauss_rank(rows)

    @pytest.mark.parametrize("rows, expected", [
        ([], 0),
        ([(0, 0, 0)], 0),
        ([(2, 4, 6), (F(-1, 2), -1, F(-3, 2))], 1),
        ([(1, 0), (0, 3)], 2),
        ([(1, 1, 0), (0, 1, 1), (1, 2, 1)], 2),
        ([(0, 0, 1), (1, 1, 1), (0, 1, 0), (1, 0, 0)], 3),
        ([(F(1, 3),), (5,)], 1),
    ])
    def test_examples(self, rows, expected):
        assert _rank(rows) == gauss_rank(rows) == expected

    def test_rows_longer_than_three_raise(self):
        with pytest.raises(UnsupportedDimension):
            _rank([(1, 0, 0), (0, 1, 0, 0)])


def brute_orthant_hull_3d(points):
    """Reference: every plane through a generator triple, a generator pair and
    an axis, or one generator and two axes is a candidate normal; keep those
    whose tight set spans a 2-dimensional face (O(n^4))."""
    pts = sorted(set(map(tuple, points)))
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cands = [_cross(_sub(q, p), e) for p, q in combinations(pts, 2) for e in axes]
    cands += [_cross(_sub(q, p), _sub(r, p)) for p, q, r in combinations(pts, 3)]
    normals = set(axes)
    for n in cands:
        for cand in (n, tuple(-x for x in n)):
            if any(cand) and min(cand) >= 0:
                normals.add(primitive(cand))
    facets, tight_normals = [], {p: [] for p in pts}
    for n in sorted(normals):
        c = min(_dot(n, p) for p in pts)
        tight = [p for p in pts if _dot(n, p) == c]
        spanning = [_sub(t, tight[0]) for t in tight[1:]] + [e for e, x in zip(axes, n) if x == 0]
        if gauss_rank(spanning) != 2:
            continue
        for p in tight:
            tight_normals[p].append(n)
        if c > 0:
            facets.append((n, c))
    verts = [p for p in pts
             if gauss_rank(tight_normals[p] + [e for e, x in zip(axes, p) if x == 0]) == 3]
    return tuple(sorted(verts)), tuple(sorted(facets))


def _solve(rows, rhs):
    d = _det(*rows)
    if d == 0:
        return None
    cols = list(zip(*rows))
    out = []
    for j in range(3):
        swapped = [rhs if i == j else cols[i] for i in range(3)]
        out.append(Fraction(_det(*zip(*swapped))) / d)
    return tuple(out)


def _angular_sort(points, normal):
    """Cyclic order of coplanar points around their centroid."""
    n = len(points)
    cx = [sum(Fraction(p[i]) for p in points) / n for i in range(3)]
    vecs = [tuple(Fraction(p[i]) - cx[i] for i in range(3)) for p in points]

    def half(w):
        s = _dot(normal, _cross(vecs[0], w))
        return (0 if s > 0 else 1) if s != 0 else (0 if _dot(vecs[0], w) > 0 else 1)

    def cmp(iu, iv):
        hu, hv = half(vecs[iu]), half(vecs[iv])
        if hu != hv:
            return -1 if hu < hv else 1
        s = _dot(normal, _cross(vecs[iu], vecs[iv]))
        return -1 if s > 0 else (1 if s < 0 else 0)

    return [points[i] for i in sorted(range(n), key=cmp_to_key(cmp))]


def brute_covolume_3d(vertices, facets):
    """Reference: clip P to the box [0, B]^3 (B the largest vertex coordinate),
    enumerate the clipped polytope's vertices from plane triples, and
    subtract its volume (a centroid fan over every face) from B^3."""
    for i in range(3):
        if not any(all(v[j] == 0 for j in range(3) if j != i) for v in vertices):
            raise UnboundedComplement(f"axis {i} never enters the polyhedron")
    if (0, 0, 0) in vertices:
        return Fraction(0)
    bound = max(Fraction(x) for v in vertices for x in v)
    planes = [(a, Fraction(c)) for a, c in facets]
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        planes += [(e, Fraction(0)), (tuple(-x for x in e), -bound)]
    planes = list(dict.fromkeys(planes))
    corners = set()
    for rows in combinations(planes, 3):
        q = _solve([r[0] for r in rows], [r[1] for r in rows])
        if q is not None and all(_dot(a, q) >= c for a, c in planes):
            corners.add(q)
    corners = sorted(corners)
    centroid = tuple(sum(v[i] for v in corners) / len(corners) for i in range(3))
    inside = Fraction(0)
    for a, c in planes:
        tight = [v for v in corners if _dot(a, v) == c]
        if len(tight) < 3 or gauss_rank([_sub(t, tight[0]) for t in tight[1:]]) != 2:
            continue
        ring = [_sub(v, centroid) for v in _angular_sort(tight, a)]
        inside += sum(abs(_det(ring[0], ring[i], ring[i + 1])) for i in range(1, len(ring) - 1))
    return bound**3 - inside / 6


def _outcome(f):
    try:
        return repr(f())
    except UnboundedComplement:
        return "UnboundedComplement"


COORD = st.integers(0, 5)
POINT = st.tuples(COORD, COORD, COORD)
# raw point sets: duplicates (re-drawn from the list), dominated points,
# zero coordinates and single points are all common at this size
RAW = st.lists(POINT, min_size=1, max_size=9).flatmap(
    lambda ps: st.lists(st.sampled_from(ps), max_size=3).map(lambda dup: ps + dup))
PURES = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)).map(
    lambda d: [(d[0], 0, 0), (0, d[1], 0), (0, 0, d[2])])
# cofinite int antichains: pure powers plus extra points, minimalized
ANTICHAIN = st.tuples(PURES, st.lists(POINT, max_size=9)).map(
    lambda pe: list(minimalize(pe[0] + pe[1], 3).gens))
# ints, integral Fractions such as Fraction(3, 1), and proper fractions
MIXED_COORD = st.one_of(COORD, st.fractions(0, 5, max_denominator=3))
MIXED = st.lists(st.tuples(MIXED_COORD, MIXED_COORD, MIXED_COORD), min_size=1, max_size=8)


class TestOrthantHull3d:
    def _agree(self, points):
        got, want = orthant_hull_3d(points), brute_orthant_hull_3d(points)
        # repr, so that int vs Fraction (and which input tuple) counts
        assert repr(got) == repr(want)
        p = NewtonPolyhedron(3, *got)
        assert _outcome(p.covolume) == _outcome(lambda: brute_covolume_3d(*want))
        return p

    @settings(max_examples=150, deadline=None)
    @given(ANTICHAIN)
    @example([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    @example([(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 0)])
    # a hexagonal facet x+y+z >= 6: its ring order matters to the fan
    @example([(7, 0, 0), (0, 7, 0), (0, 0, 7), (1, 2, 3), (1, 3, 2), (2, 1, 3),
              (2, 3, 1), (3, 1, 2), (3, 2, 1)])
    @example(list(MonomialIdeal.maximal(3).power(4).gens))  # 15 coplanar generators
    @example([(3, 0, 0), (0, 5, 0), (0, 0, 2)])  # pure powers only
    def test_int_antichains(self, gens):
        p = self._agree(gens)
        assert p == newton_polyhedron(minimalize(gens, 3))
        assert all(type(c) is int for _, c in p.facets)
        shuffled = list(gens)
        random.Random(len(gens)).shuffle(shuffled)
        assert orthant_hull_3d(shuffled) == orthant_hull_3d(gens[::-1]) == (p.vertices, p.facets)

    @settings(max_examples=150, deadline=None)
    @given(RAW)
    @example([(2, 3, 1)])  # a single point: three axis facets
    @example([(0, 0, 0), (1, 2, 3)])  # the origin swallows everything
    @example([(0, 0, 2), (0, 1, 1), (0, 2, 0), (0, 1, 1)])  # collinear, duplicated
    @example([(1, 1, 1), (2, 2, 2), (1, 1, 1), (3, 0, 4)])  # dominated points
    @example([(4, 0, 0), (1, 0, 0), (0, 0, 3), (0, 2, 0), (0, 5, 0)])  # on the axes
    @example([(3, 0, 0), (0, 0, 2)])  # two axes, the third never enters
    def test_raw_point_sets(self, points):
        p = self._agree(points)
        shuffled = list(points)
        random.Random(len(points)).shuffle(shuffled)
        assert orthant_hull_3d(shuffled) == (p.vertices, p.facets)

    @settings(max_examples=150, deadline=None)
    @given(MIXED)
    @example([(Fraction(3), 0, 0), (0, 3, 0), (0, 0, Fraction(3, 2))])
    @example([(1, 2, 3), (Fraction(1), 2, 3), (0, Fraction(7, 2), 1)])  # equal tuples, mixed types
    # the blocker's points a / c of the facets (1,2,3), (3,2,1), (2,3,1) >= 6, (1,1,1) >= 3
    @example([(F(1, 6), F(1, 3), F(1, 2)), (F(1, 2), F(1, 3), F(1, 6)),
              (F(1, 3), F(1, 2), F(1, 6)), (F(1, 3), F(1, 3), F(1, 3))])
    def test_mixed_int_fraction_points(self, points):
        self._agree(points)
        # which of two equal tuples is kept follows the input order, in both routes
        assert repr(orthant_hull_3d(points[::-1])) == repr(brute_orthant_hull_3d(points[::-1]))

    @settings(max_examples=60, deadline=None)
    @given(ANTICHAIN, st.fractions(Fraction(1, 4), 4, max_denominator=4))
    def test_covolume_scales_by_t_cubed(self, gens, t):
        p = newton_polyhedron(minimalize(gens, 3))
        assert p.scale(t).covolume() == t**3 * p.covolume()

    @pytest.mark.parametrize("exps", [(1, 1, 1), (2, 3, 5), (7, 1, 4), (12, 11, 9)])
    def test_multiplicity_of_pure_powers(self, exps):
        a, b, c = exps
        ideal3 = minimalize([(a, 0, 0), (0, b, 0), (0, 0, c)], 3)
        assert ideal3.multiplicity() == a * b * c

    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    def test_multiplicity_of_maximal_power(self, d):
        assert MonomialIdeal.maximal(3).power(d).multiplicity() == d**3


# -- integer kernels against their Fraction routes ---------------------------


def fraction_shoelace(poly):
    """Reference: the shoelace sum accumulated in Fractions."""
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        total += Fraction(x1) * y2 - Fraction(x2) * y1
    return abs(total) / 2


def fraction_covolume_3d(vertices, facets):
    """Reference: the cone fan of ``_covolume_3d`` accumulated in Fractions."""
    total = Fraction(0)
    for a, c in facets:
        ring = _ring([v for v in vertices if _dot(a, v) == c])
        for i in range(1, len(ring) - 1):
            total += abs(_det(ring[0], ring[i], ring[i + 1]))
    return total / 6


def fraction_normalize_facet(normal, c):
    """Reference: rescale through Fractions; c an int exactly when integral."""
    prim = fraction_primitive(normal)
    i = next(j for j, x in enumerate(prim) if x != 0)
    cc = Fraction(c) * Fraction(prim[i]) / Fraction(normal[i])
    return prim, (int(cc) if cc.denominator == 1 else cc)


def fraction_diagonal_lambda(p):
    return max(Fraction(c) / sum(a) for a, c in p.facets) if p.facets else Fraction(0)


Q_COORD = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=5))
Q_RHS = st.one_of(st.integers(-20, 20), st.fractions(-20, 20, max_denominator=6))
K2_GENS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=8)
SCALE = st.one_of(st.just(Fraction(1)), st.fractions(Fraction(1, 5), 3, max_denominator=5))


class TestIntegerKernels:
    """The integer paths of newton equal the Fraction routes they replaced,
    by ``repr`` where the type of a result counts."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(Q_COORD, Q_COORD), min_size=1, max_size=8))
    def test_shoelace(self, poly):
        got = _shoelace(poly)
        assert got == fraction_shoelace(poly) and type(got) is Fraction

    @settings(max_examples=80, deadline=None)
    @given(ANTICHAIN, SCALE)
    def test_covolume_3d(self, gens, t):
        p = newton_polyhedron(minimalize(gens, 3)).scale(t)
        got = _covolume_3d(p.vertices, p.facets)
        assert got == fraction_covolume_3d(p.vertices, p.facets) and type(got) is Fraction

    @settings(max_examples=150, deadline=None)
    @given(st.lists(Q_COORD, min_size=2, max_size=3).filter(any), Q_RHS)
    @example([6, 4, 0], 10)  # gcd 2 divides c
    @example([6, 4, 0], 9)  # it does not
    @example([F(3, 2), 3], 6)
    def test_normalize_facet(self, normal, c):
        assert repr(_normalize_facet(normal, c)) == repr(fraction_normalize_facet(normal, c))

    @settings(max_examples=80, deadline=None)
    @given(K2_GENS, ANTICHAIN, SCALE)
    def test_integral_data_stays_int(self, gens2, gens3, t):
        # integer generators give int vertices and int c in k = 2 and 3; the
        # diagonal lambda agrees with the Fraction route before and after
        # scaling, which makes the data rational
        for ideal_ in (minimalize(gens2, 2), minimalize(gens3, 3)):
            p = newton_polyhedron(ideal_)
            assert all(type(x) is int for v in p.vertices for x in v)
            assert all(type(c) is int for _, c in p.facets)
            for q in (p, p.scale(t)):
                got = q.diagonal_lambda()
                assert got == fraction_diagonal_lambda(q) and type(got) is Fraction


# -- 3D halfspace regions against the triple enumeration ---------------------


def triple_vertices_3d(facets):
    """Reference: every triple of constraint planes (the coordinate planes
    included) whose crossing is feasible, O(m^4); the blocker hull replaced
    this enumeration."""
    planes = [(tuple(a), Fraction(c)) for a, c in facets]
    planes += [((1, 0, 0), Fraction(0)), ((0, 1, 0), Fraction(0)), ((0, 0, 1), Fraction(0))]
    found = set()
    for rows in combinations(planes, 3):
        q = _solve([r[0] for r in rows], [r[1] for r in rows])
        if q is not None and min(q) >= 0 and all(_dot(a, q) >= c for a, c in facets):
            found.add(q)
    return tuple(sorted(found))


def triple_region_3d(facets):
    """Reference region: the enumerated vertices, then their hull for the facets."""
    kept = [(a, c) for a, c in facets if c > 0]
    return from_vertices(triple_vertices_3d(kept)) if kept else full_orthant(3)


def staircase_3d(r, shift=(1, 1, 1)):
    """The minimal (x, y, z) in [0, r]^3 with (x + s0)(y + s1)(z + s2) >= r."""
    s0, s1, s2 = shift
    box = iterprod(range(r + 1), repeat=3)
    return minimalize([p for p in box if (p[0] + s0) * (p[1] + s1) * (p[2] + s2) >= r], 3)


# zero entries, rational entries and repeated facets are all common; the
# appended draws repeat facets of the list verbatim, and c <= 0 is vacuous
NORMAL_ENTRY = st.one_of(st.integers(0, 4), st.fractions(0, 3, max_denominator=3))
FACETS3 = st.lists(
    st.tuples(st.tuples(NORMAL_ENTRY, NORMAL_ENTRY, NORMAL_ENTRY).filter(any),
              st.one_of(st.integers(-1, 8), st.fractions(-1, 8, max_denominator=4))),
    min_size=1,
    max_size=6,
).flatmap(lambda fs: st.lists(st.sampled_from(fs), max_size=2).map(lambda dup: fs + dup))


class TestBlockerHull3d:
    """k = 3 halfspace regions and intersections, read off one hull of the
    blocker, against the triple enumeration plus ``from_vertices``, by
    ``repr`` (so the Fraction type of every c counts)."""

    @settings(max_examples=60, deadline=None)
    @given(FACETS3)
    @example([((1, 1, 1), 1)])  # one facet: three axis vertices
    @example([((0, 0, 2), 3), ((0, 0, 1), 1)])  # parallel, one redundant
    @example([((1, 2, 3), 6), ((3, 2, 1), 6), ((2, 3, 1), 6), ((2, 3, 1), 6)])
    @example([((1, 1, 0), 2), ((F(1, 2), F(1, 2), 0), 1), ((0, 1, 1), F(5, 2))])
    @example([((1, 1, 1), 3), ((2, 1, 1), 4), ((1, 2, 1), 4), ((1, 1, 2), 4)])  # degenerate
    @example([((1, 0, 0), -1), ((0, 1, 0), 0)])  # only vacuous facets
    def test_halfspace_region(self, facets):
        got = region_from_halfspaces(3, facets)
        assert repr(got) == repr(triple_region_3d(facets))
        if got.facets:
            assert repr(vertices_from_halfspaces(3, got.facets)) == repr(
                (got.vertices, got.facets))

    @settings(max_examples=30, deadline=None)
    @given(FACETS3, FACETS3)
    def test_intersect_both_orders(self, fp, fq):
        p, q = region_from_halfspaces(3, fp), region_from_halfspaces(3, fq)
        want = repr(triple_region_3d(p.facets + q.facets))
        assert repr(region_intersect(p, q)) == want
        assert repr(region_intersect(q, p)) == want

    def test_intersect_newton_polyhedra(self):
        # int c on one side, Fraction c on the other
        p = newton_polyhedron(minimalize([(3, 0, 0), (0, 2, 0), (0, 0, 4), (1, 1, 1)], 3))
        q = region_from_halfspaces(3, [((1, 2, 1), F(7, 2)), ((2, 0, 1), 3)])
        for a, b in ((p, q), (q, p), (p, p)):
            assert repr(region_intersect(a, b)) == repr(triple_region_3d(a.facets + b.facets))

    def test_staircase_pair(self):
        p = newton_polyhedron(staircase_3d(20))
        q = newton_polyhedron(staircase_3d(20, (2, 1, 3)))
        assert len(p.facets + q.facets) == 27
        meet = region_intersect(p, q)
        assert repr(meet) == repr(triple_region_3d(p.facets + q.facets))
        assert repr(region_intersect(q, p)) == repr(meet)

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimension):
            vertices_from_halfspaces(4, [((1, 1, 1, 1), 1)])
