"""System expression trees: node semantics, limit bodies, gradedness."""

import io
import random
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations_with_replacement, product as iterprod
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigraded import monomial, systems
from multigraded.cli import main
from multigraded.cones import ConeRep, abs_sum_cone, eff_points, lattice_window, nef_points
from multigraded.errors import (
    RankMismatch,
    WorkLimitExceeded,
    ZeroDirection,
    ZeroIdealInDirection,
)
from multigraded.invariants import geometric_invariants
from multigraded.monomial import MonomialIdeal, dominates, minimalize
from multigraded.newton import newton_polyhedron
from multigraded.regions import (
    build_g,
    build_kinked_f,
    epigraph_region,
    full_orthant,
    lattice_generators,
    region_from_halfspaces,
    region_intersect,
)
from multigraded.systems import (
    _CACHE_MAX,
    CeilingSystem,
    ColonSystem,
    IdealPowers,
    Intersect,
    Product,
    Pullback,
    RegionSystem,
    SystemExpr,
    Truncate,
    kinked_intersection_system,
    verify_gradedness,
)

F = Fraction


def contains(p, q):
    """Membership in a stored polyhedron: q >= 0 and every facet holds."""
    return min(q) >= 0 and all(sum(a * x for a, x in zip(n, q)) >= c for n, c in p.facets)


def ideal(*gens, k=2):
    return minimalize(gens, k)


@pytest.fixture
def wedge_system():
    return RegionSystem(region_from_halfspaces(2, [((1, 2), 2), ((2, 1), 2)]))


class TestEval:
    def test_ideal_powers_with_negative_index(self):
        system = IdealPowers([MonomialIdeal.maximal(2), ideal((1, 0))])
        assert system.eval((2, -1)) == ideal((2, 0), (1, 1), (0, 2))

    def test_ceiling_exponent(self):
        system = CeilingSystem(abs_sum_cone())
        assert system.eval((1, 2, 0)) == MonomialIdeal.maximal(2).power(3)
        assert system.eval((1, 1, 2)).is_unit

    def test_truncate_outside_semigroup(self):
        region_sys = RegionSystem(epigraph_region(build_g()))
        trunc = Truncate(region_sys, ConeRep.from_halfspaces(1, [(1,)]))
        assert trunc.eval((-5,)).is_zero
        assert trunc.eval((2,)) == region_sys.eval((2,))

    def test_region_system_nonpositive_is_unit(self):
        system = RegionSystem(epigraph_region(build_g()))
        assert system.eval((0,)).is_unit and system.eval((-3,)).is_unit

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            IdealPowers([MonomialIdeal.maximal(2)]).eval((1, 2))

    def test_memoization_returns_same_object(self):
        system = RegionSystem(epigraph_region(build_kinked_f(1)))
        assert system.eval((5,)) is system.eval((5,))

    def test_colon_system(self):
        inner = IdealPowers([ideal((2, 1))])
        system = ColonSystem(inner, ideal((0, 1)))
        assert system.rank == 2
        assert system.eval((1, 1)) == ideal((2, 0))
        assert system.eval((1, 0)) == ideal((2, 1))
        # graded on Z x N: zero below n = 0, where the colon would shrink
        assert system.eval((1, -3)).is_zero

    def test_non_integral_index_refused(self):
        system = CeilingSystem(abs_sum_cone())
        assert system.eval((F(2), 0, 1)) is system.eval((2, 0, 1))
        with pytest.raises(ValueError, match="index must be integral"):
            system.eval((F(3, 2), 0, 1))

    def test_product_and_intersect_nodes(self):
        a = IdealPowers([ideal((1, 0))])
        b = IdealPowers([ideal((0, 1))])
        assert Product(a, b).eval((2,)) == ideal((2, 2))
        assert Intersect(a, b).eval((2,)) == ideal((2, 2))
        assert Intersect(a, b).eval((-1,)).is_unit


# small k = 2 and k = 3 ideals other than (1), the zero ideal included, and
# exponents of every sign
SMALL_IDEALS = st.integers(2, 3).flatmap(lambda k: st.lists(
    st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any), max_size=3)
    .map(lambda gens, k=k: minimalize(gens, k)),
    min_size=1, max_size=3))


class TestNoUnitFactor:
    """``power`` and ``IdealPowers`` start from their first factor: no
    product they form has the unit ideal as a factor, and the results are
    those of repeated products starting from (1)."""

    @settings(max_examples=60, deadline=None)
    @given(SMALL_IDEALS, st.lists(st.integers(-1, 5), min_size=3, max_size=3))
    def test_counting_wrapper(self, ideals, exps):
        product = MonomialIdeal.product
        factors = []

        def counting(a, b):
            factors.extend((a, b))
            return product(a, b)

        k = ideals[0].dim
        unit = MonomialIdeal.unit(k)

        def repeated(ideal, n):
            out = unit
            for _ in range(n):
                out = product(out, ideal)
            return out

        v = tuple(exps[:len(ideals)])
        want = unit
        for i, n in zip(ideals, v):
            want = product(want, repeated(i, n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(MonomialIdeal, "product", counting)
            powers = [i.power(n) for i, n in zip(ideals, exps)]
            got = IdealPowers(ideals).eval(v)
        assert not any(f.is_unit for f in factors)
        assert powers == [repeated(i, n) for i, n in zip(ideals, exps)]
        assert got == want


C1, C2 = ideal((4, 0), (1, 2), (0, 5)), ideal((3, 0), (2, 1), (0, 4))


class TestPowersChain:
    """A powers node forms I^n as the square of its own entry at n // 2,
    times I for odd n: the same ideals, and the same refusals, as
    ``I.power(n)``."""

    @pytest.mark.parametrize("ideals", [[C1], [C1, MonomialIdeal.zero(2), C2]],
                             ids=["rank 1", "rank 3"])
    @pytest.mark.parametrize("order", [1, -1], ids=["up", "down"])
    def test_axis_powers_match_power(self, ideals, order):
        system = IdealPowers(ideals)
        for n in range(65)[::order]:
            for i, base in enumerate(ideals):
                v = tuple(n if j == i else -j - 1 for j in range(len(ideals)))
                assert repr(system.eval(v)) == repr(base.power(n))
                # a negative entry counts as 0: both indices read one entry
                assert system.eval(v) is system.eval(tuple(max(x, 0) for x in v))

    @pytest.mark.parametrize("ideals", [[C1], [C1, MonomialIdeal.zero(2), C2]],
                             ids=["rank 1", "rank 3"])
    def test_chain_ends_with_nothing_cached(self, ideals, monkeypatch):
        monkeypatch.setattr(systems, "_CACHE_MAX", 0)
        system = IdealPowers(ideals)
        for n in range(65):
            for i, base in enumerate(ideals):
                v = tuple(n if j == i else -1 for j in range(len(ideals)))
                assert repr(system.eval(v)) == repr(base.power(n))
        assert system._cache == {}

    @pytest.mark.parametrize("base, n, want", [
        (MonomialIdeal.unit(2), 10**200, MonomialIdeal.unit(2)),
        (ideal((1,), k=1), 2**600 + 5, ideal((2**600 + 5,), k=1)),
    ], ids=["unit at 10^200", "x at 2^600 + 5"])
    def test_index_of_hundreds_of_bits(self, base, n, want, monkeypatch):
        # the halving chain is a loop, not a recursion per bit: one squaring
        # per bit after the leading one and one product per further one bit,
        # as in power(n), and every power below n cached on the way
        calls = count_power_steps(monkeypatch)
        system = IdealPowers([base])
        assert repr(system.eval((n,))) == repr(want)
        assert calls == Counter(_square=n.bit_length() - 1, product=bin(n).count("1") - 1)
        assert sorted(system._cache) == sorted((n >> b,) for b in range(n.bit_length()))
        # a warm chain stops at the longest cached prefix: 2n + 1 from n
        calls.clear()
        system.eval((2 * n + 1,))
        assert calls == Counter(_square=1, product=1)

    def test_refusal_at_an_index_of_hundreds_of_bits(self):
        with pytest.raises(WorkLimitExceeded, match="^product of ideals with 2676 and 2676 "
                                                    "generators needs 7160976 generator pairs"):
            IdealPowers([MonomialIdeal.maximal(2)]).eval((10**200,))

    def test_refusal_matches_power(self, monkeypatch):
        # at 2,200 pairs C1^48 is refused at its last squaring, of C1^24
        monkeypatch.setattr(monomial, "MAX_GENERATOR_PAIRS", 2200)
        system = IdealPowers([C1])
        refused = 0
        for n in range(40, 65):
            try:
                want = repr(C1.power(n))
            except WorkLimitExceeded as exc:
                refused += 1
                with pytest.raises(WorkLimitExceeded) as got:
                    system.eval((n,))
                assert str(got.value) == str(exc)
            else:
                assert repr(system.eval((n,))) == want
        assert 0 < refused < 25
        with pytest.raises(WorkLimitExceeded, match="with 49 and 49 generators needs 2401 "):
            system.eval((48,))


def _rationals(lo, hi):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 7))


def _ceiling_case(rank):
    """Forms with denominators 1-7, an index in [-40, 40]^rank and a denominator."""
    forms = st.lists(st.tuples(*[_rationals(-20, 20)] * (rank - 1)), min_size=1, max_size=4)
    index = st.tuples(*[st.integers(-40, 40)] * rank)
    return st.tuples(forms, index, st.integers(1, 7))


class TestCeilingIntegerArithmetic:
    """deficiency in integer arithmetic, and the power at its ceiling, against
    f evaluated in Fractions."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 4]).flatmap(_ceiling_case))
    def test_matches_fraction_reference(self, case):
        forms, v, den = case
        system = CeilingSystem(ConeRep.epigraph(forms), MonomialIdeal.maximal(1))

        def f_minus_y(u):
            f = max([Fraction(0)] + [sum(a * b for a, b in zip(form, u[:-1])) for form in forms])
            return f - u[-1]

        assert ceil(system.deficiency(v)) == max(ceil(f_minus_y(v)), 0)
        assert system.deficiency(v) == max(f_minus_y(v), 0)
        q = tuple(Fraction(x, den) for x in v)
        assert system.deficiency(q) == max(f_minus_y(q), 0)
        assert type(system.deficiency(q)) is Fraction
        assert system.eval(v) == system.base.power(ceil(f_minus_y(v)))

    def test_rank_checked(self):
        system = CeilingSystem(abs_sum_cone())
        for v in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(RankMismatch):
                system.deficiency(v)
            with pytest.raises(RankMismatch):
                system.eval(v)


def count_power_steps(monkeypatch):
    """A Counter of the squarings and products of ideals run from now on."""
    calls = Counter()
    for name in ("_square", "product"):
        step = getattr(MonomialIdeal, name)
        monkeypatch.setattr(MonomialIdeal, name,
                            lambda self, *other, name=name, step=step:
                            calls.update([name]) or step(self, *other))
    return calls


class TestCeilingPowerTable:
    def test_one_power_per_distinct_exponent(self, monkeypatch):
        # both sweeps of `system cones`: 4,225 indices, more than the node
        # cache holds, but only O(radius) distinct exponents, and the powers
        # node forms base^m once, as the square of its base^(m // 2)
        calls = count_power_steps(monkeypatch)
        system = CeilingSystem(ConeRep.epigraph([(Fraction(3, 2),), (Fraction(-5, 3),)]),
                               minimalize([(1,)], 1))
        radius = 32
        nef, eff = nef_points(system, radius), eff_points(system, radius)
        window = list(iterprod(range(-radius, radius + 1), repeat=2))
        assert len(window) > _CACHE_MAX and len(eff) == len(window)
        exponents = {ceil(system.deficiency(v)) for v in window}
        assert len(nef) == sum(1 for v in window if system.deficiency(v) == 0)
        # every halving of a sampled exponent is sampled too, so the chains
        # form no power beyond them; the unit ideal at 0 and base^1 are none
        assert {m // 2 for m in exponents} <= exponents
        assert calls == {"_square": sum(1 for m in exponents if m >= 2),
                         "product": sum(1 for m in exponents if m >= 3 and m % 2)}
        assert len(exponents) < 200

    def test_colon_sweep_forms_each_power_once(self, tmp_path, monkeypatch):
        # the `system cones` sweep of a colon tree at radius 30: 3,721
        # indices, and (a_v : I^n) reads I^n from the node's powers node, so
        # each n = 2..30 is formed once, not once per index: one squaring of
        # I^(n // 2) each, and a product by I for the 14 odd n >= 3
        (tmp_path / "p2.region").write_text("k=2\nhalfspace 1 2 >= 3\nhalfspace 3 1 >= 4\n")
        (tmp_path / "i3.ideal").write_text("k=2\n2 0\n1 1\n0 3\n")
        (tmp_path / "colon2.system").write_text("colon i3.ideal\n  region p2.region\n")
        calls = count_power_steps(monkeypatch)
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["system", "cones", str(tmp_path / "colon2.system"),
                         "--radius", "30"]) == 0
        assert calls == {"_square": 29, "product": 14}
        assert out.getvalue().endswith("nef hull rays:\n  -1 0\n  2 3\n")

    def test_second_sweep_hits_what_the_first_stored(self):
        # a full cache admits nothing more and evicts nothing: the eff
        # sweep hits the first _CACHE_MAX indices of the nef sweep and
        # misses only the rest of the 67 x 67 window
        system = CeilingSystem(ConeRep.epigraph([(Fraction(3, 2),), (Fraction(-5, 3),)]),
                               minimalize([(1,)], 1))
        calls = []
        inner = system._eval
        system._eval = lambda v: calls.append(v) or inner(v)
        nef_points(system, 33)
        assert len(calls) == 67 * 67 == 4489
        calls.clear()
        eff_points(system, 33)
        assert len(calls) == 4489 - _CACHE_MAX == 393

    def test_system_cones_evaluates_each_index_once(self, tmp_path, monkeypatch):
        # one sweep records unit and nonzero together: at radius 33 each of
        # the 4,489 indices reaches _eval once, past the node cache's size
        (tmp_path / "c.cone").write_text("rank 2\nform 3/2\nform -5/3\n")
        (tmp_path / "x.ideal").write_text("k=1\n1\n")
        (tmp_path / "c.system").write_text("ceiling c.cone base x.ideal\n")
        calls = Counter()
        inner = CeilingSystem._eval
        monkeypatch.setattr(CeilingSystem, "_eval",
                            lambda self, v: calls.update([v]) or inner(self, v))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["system", "cones", str(tmp_path / "c.system"), "--radius", "33"]) == 0
        assert len(calls) == 4489 > _CACHE_MAX and set(calls.values()) == {1}
        system = CeilingSystem(ConeRep.epigraph([(F(3, 2),), (F(-5, 3),)]), minimalize([(1,)], 1))
        nef, eff = nef_points(system, 33), eff_points(system, 33)
        lines = out.getvalue().splitlines()
        assert lines[0] == f"nef points ({len(nef)}):"
        assert lines[len(nef) + 1] == f"eff points ({len(eff)}):" == "eff points (4489):"
        assert lines[1:len(nef) + 1] == ["  " + " ".join(map(str, v)) for v in nef]


class TestPullback:
    def test_functoriality(self):
        inner = IdealPowers([MonomialIdeal.maximal(2), ideal((2, 0))])
        system = Pullback([(1, 2, 0), (0, 1, -1)], inner)
        assert system.rank == 3
        rng = random.Random(41)
        for _ in range(20):
            w = tuple(rng.randint(-3, 3) for _ in range(3))
            assert system.eval(w) == inner.eval(system.apply(w))

    def test_projection_rows(self):
        inner = RegionSystem(epigraph_region(build_g()))
        pr2 = Pullback([(0, 1)], inner)
        assert pr2.eval((7, 2)) == inner.eval((2,))


class TestRestrictDirection:
    def test_zero_direction(self):
        with pytest.raises(ZeroDirection):
            IdealPowers([MonomialIdeal.maximal(2)]).restrict((0,))

    def test_at_zero_matches_eval_at_origin(self):
        system = IdealPowers([MonomialIdeal.maximal(2)])
        view = system.restrict((1,))
        assert view.eval(0) == system.eval((0,))

    def test_scaling(self):
        a = ideal((2, 0), (0, 3))
        system = IdealPowers([a])
        view = system.restrict((3,))
        assert view.eval(2) == a.power(6)

    def test_thm2_direction(self):
        system = kinked_intersection_system(1)
        view = system.restrict((1, 1))
        a2 = system.eval((2, 2))
        assert view.eval(2) == a2

    def test_non_integral_direction_refused(self):
        system = CeilingSystem(abs_sum_cone())
        assert system.restrict((F(2), 0, 1)).direction == (2, 0, 1)
        with pytest.raises(ValueError, match="direction must be integral"):
            system.restrict((F(1, 2), 0, 1))


def assert_body_shape(system, window):
    """a_v a_w inside a_(v+w) makes ord0 and arn of the limit bodies
    subadditive and positively homogeneous, and mult^(1/2) subadditive
    (Teissier) where finite, for k = 2: checked over the window, whose
    points must all have a body."""
    inv = {v: geometric_invariants(system.limit_body(v)) for v in window}
    for v in window:
        for t in (2, 3):
            scaled = geometric_invariants(system.limit_body(tuple(t * x for x in v)))
            assert (scaled.ord0, scaled.arn) == (t * inv[v].ord0, t * inv[v].arn)
    for v, w in combinations_with_replacement(window, 2):
        total = inv.get(tuple(a + b for a, b in zip(v, w)))
        if total is None:
            continue
        a, b = inv[v], inv[w]
        assert total.ord0 <= a.ord0 + b.ord0 and total.arn <= a.arn + b.arn
        if None not in (total.mult, a.mult, b.mult):
            # mult(v + w) <= (sqrt(a) + sqrt(b))^2 = a + b + 2 sqrt(ab)
            gap = total.mult - a.mult - b.mult
            assert gap <= 0 or gap * gap <= 4 * a.mult * b.mult


def _probe_colon():
    p = region_from_halfspaces(2, [((1, 2), 3), ((3, 1), 4)])
    return ColonSystem(RegionSystem(p), ideal((2, 0), (1, 1), (0, 3)))


def _colon_case(k):
    """Halfspaces of a k-dimensional region, generators of a colon ideal and
    an index (m, n) with m <= 3 and 0 <= n <= 2."""
    normals = st.tuples(*[st.integers(0, 3)] * k).filter(any)
    rhs = st.fractions(min_value=F(1, 3), max_value=5, max_denominator=3)
    facets = st.lists(st.tuples(normals, rhs), min_size=1, max_size=4)
    gens = st.lists(st.tuples(*[st.integers(0, 3)] * k), min_size=1, max_size=4)
    return st.tuples(st.just(k), facets, gens, st.integers(-1, 3), st.integers(0, 2))


class TestLimitBody:
    def test_region_system_identity(self, wedge_system):
        assert wedge_system.limit_body((1,)) == wedge_system.region

    def test_powers_body_is_the_newton_polyhedron(self):
        a = ideal((2, 0), (1, 1), (0, 3))
        system = IdealPowers([a])
        body = system.limit_body((2,))
        assert body == a.power(2).newton()

    def test_region_system_scales(self, wedge_system):
        assert wedge_system.limit_body((3,)) == wedge_system.region.scale(3)

    def test_unit_direction_gives_orthant(self, wedge_system):
        body = wedge_system.limit_body((-2,))
        assert body.vertices == ((0, 0),) and body.facets == ()

    def test_thm2_intersection(self):
        system = kinked_intersection_system(1)
        body = system.limit_body((1, 1))
        p = epigraph_region(build_kinked_f(1))
        q = epigraph_region(build_g())
        assert body == region_intersect(p, q)

    def test_ceiling(self):
        system = CeilingSystem(abs_sum_cone())
        body = system.limit_body((1, 2, 0))
        assert body == newton_polyhedron(MonomialIdeal.maximal(2)).scale(3)
        assert body.facets == (((1, 1), 3),)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(_colon_case))
    def test_colon_body_exact_for_region_inner(self, case):
        # for a region inner the colon at (m, n) is the lattice ideal of its
        # body: monomial.colon against the halfspace builder and column scan
        k, facets, gens, m, n = case
        system = ColonSystem(RegionSystem(region_from_halfspaces(k, facets)),
                             minimalize(gens, k))
        assert system.eval((m, n)) == lattice_generators(system.limit_body((m, n)), 1)

    def test_colon_probe_values(self):
        # inner facets (1,2).x >= 3 and (3,1).x >= 4, colon by (x^2, xy, y^3)
        system = _probe_colon()
        at31 = geometric_invariants(system.limit_body((3, 1)))
        assert (at31.ord0, at31.arn, at31.mult) == (F(23, 5), F(7, 3), F(183, 5))
        per_m = geometric_invariants(system.limit_body((1, F(1, 3))))
        assert (per_m.ord0, per_m.mult) == (F(23, 15), F(61, 15))
        at11 = geometric_invariants(system.limit_body((1, 1)))
        assert (at11.ord0, at11.mult) == (F(3, 5), F(3, 5))

    def test_colon_body_below_n_one_is_the_inner_body(self):
        # at n = 0 the body is the inner one; below it the ideals are zero
        system = _probe_colon()
        assert system.limit_body((2, 0)) == system.inner.limit_body((2,))
        for v in ((2, -2), (0, -1), (1, F(-1, 3))):
            with pytest.raises(ZeroIdealInDirection):
                system.limit_body(v)
        assert system.limit_body((-1, 3)) == full_orthant(2)

    def test_colon_body_shape_on_a_window(self):
        # checked on the bodies of a colon over a product, with nothing
        # shared with the Minkowski difference
        p = region_from_halfspaces(2, [((1, 2), 3), ((3, 1), 4)])
        inner = Product(RegionSystem(p), IdealPowers([ideal((1, 1), (3, 0), (0, 2))]))
        system = ColonSystem(inner, ideal((2, 0), (1, 1), (0, 3)))
        assert_body_shape(system, list(lattice_window([(-2, 3), (0, 3)])))

    @pytest.mark.parametrize("make, bounds", [
        (lambda: _tree(Intersect), [(-2, 4)] * 2),
        (lambda: Pullback([(2, -1)], RegionSystem(
            region_from_halfspaces(2, [((1, 2), 3), ((3, 1), 4)]))), [(-3, 3)] * 2),
        (lambda: Truncate(_tree(Intersect), ConeRep.from_halfspaces(2, [(-1, 2)])),
         [(-2, 4)] * 2),
        (lambda: CeilingSystem(abs_sum_cone()), [(-2, 2)] * 3),
    ], ids=["intersect", "pullback", "truncate", "ceiling"])
    def test_body_shape_on_a_window(self, make, bounds):
        system = make()
        window = [v for v in lattice_window(bounds)
                  if not isinstance(system, Truncate) or system.cone.contains(v)]
        assert_body_shape(system, window)

    def test_truncated_direction_outside(self):
        system = Truncate(
            kinked_intersection_system(0), ConeRep.from_halfspaces(2, [(-1, 8)])
        )
        with pytest.raises(ZeroIdealInDirection):
            system.limit_body((9, 1))
        inner_body = kinked_intersection_system(0).limit_body((1, 1))
        assert system.limit_body((1, 1)) == inner_body

    def test_ideal_powers(self):
        a = ideal((2, 0), (0, 3))
        system = IdealPowers([a])
        assert system.limit_body((2,)) == newton_polyhedron(a.power(2))
        assert system.limit_body((Fraction(2),)) == newton_polyhedron(a.power(2))

    def test_ideal_powers_take_a_rational_direction(self):
        # the body at 3/2 is half the body at 3, with no ideal at 3/2
        a = ideal((2, 0), (1, 1), (0, 3))
        system = IdealPowers([a])
        body = system.limit_body((Fraction(3, 2),))
        assert body == newton_polyhedron(a.power(3)).scale(Fraction(1, 2))
        assert body.vertices == ((0, F(9, 2)), (F(3, 2), F(3, 2)), (3, 0))

    def test_rational_direction_by_homogeneity(self, wedge_system):
        cone = ConeRep.from_halfspaces(2, [(-1, 2)])
        cases = [
            (kinked_intersection_system(3), (Fraction(1), Fraction(7, 6))),
            (Truncate(kinked_intersection_system(3), cone), (Fraction(2, 3), Fraction(5, 4))),
            (CeilingSystem(abs_sum_cone()), (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5))),
            (wedge_system, (Fraction(5, 3),)),
            (IdealPowers([ideal((2, 0), (1, 1), (0, 3)), ideal((3, 0), (0, 1))]),
             (Fraction(5, 4), Fraction(-1, 2))),
        ]
        for system, v in cases:
            scale = 60
            whole = system.restrict(tuple(int(x * scale) for x in v)).limit_body()
            assert system.limit_body(v) == whole.scale(Fraction(1, scale))
            assert system.limit_body(v).ord0() == whole.ord0() / scale


def _product_route(system, v):
    """The body of an integral direction read off one evaluated ideal,
    N(I_1^v_1 ... I_rho^v_rho): the reference for the Minkowski sum."""
    evaluated = system.eval(v)
    if evaluated.is_zero:
        raise ZeroIdealInDirection(f"zero ideal at {v}")
    return evaluated.newton()


def _powers_case(k):
    """1-3 ideals in k variables (the unit ideal among them) and an integral
    direction with zero and negative entries."""
    gen = st.tuples(*[st.integers(0, 3)] * k)
    one = st.one_of(st.just([(0,) * k]), st.lists(gen, min_size=1, max_size=4))
    return st.integers(1, 3).flatmap(lambda rho: st.tuples(
        st.just(k), st.lists(one, min_size=rho, max_size=rho),
        st.tuples(*[st.integers(-1, 3)] * rho)))


class TestPowersBody:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(_powers_case))
    def test_minkowski_sum_is_the_product_route(self, case):
        k, gens, v = case
        system = IdealPowers([minimalize(g, k) for g in gens])
        assert system.limit_body(v) == _product_route(system, v)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(_powers_case),
           st.fractions(min_value=F(1, 7), max_value=4, max_denominator=7))
    def test_homogeneous_in_the_direction(self, case, t):
        k, gens, v = case
        system = IdealPowers([minimalize(g, k) for g in gens])
        assert system.limit_body(tuple(t * x for x in v)) == system.limit_body(v).scale(t)

    def test_zero_ideal_in_a_positive_entry(self):
        system = IdealPowers([ideal((1, 1)), MonomialIdeal.zero(2)])
        for v in ((0, 1), (2, F(1, 3)), (-1, 1)):
            with pytest.raises(ZeroIdealInDirection):
                system.limit_body(v)
        assert system.limit_body((2, 0)) == ideal((1, 1)).power(2).newton()
        assert system.limit_body((F(1, 2), -3)).vertices == ((F(1, 2), F(1, 2)),)

    def test_ceiling_over_the_zero_ideal(self):
        # off the cone a_v is a power of (0), which has no body; on it the
        # body is the orthant
        system = CeilingSystem(ConeRep.epigraph([(F(3, 2),), (F(-5, 3),)]),
                               MonomialIdeal.zero(1))
        with pytest.raises(ZeroIdealInDirection, match=r"^zero ideal at \(5/2\)$"):
            system.limit_body((1, -1))
        assert system.limit_body((0, 1)) == full_orthant(1)
        assert system.eval((1, -1)).is_zero and system.eval((0, 1)).is_unit

    @pytest.mark.parametrize("v", [(0, 0), (-1, 0), (F(-1, 2), -3)])
    def test_nonpositive_direction_gives_the_orthant(self, v):
        system = IdealPowers([ideal((2, 0), (0, 3), k=2), ideal((1, 1))])
        assert system.limit_body(v) == full_orthant(2)

    def test_short_or_long_direction(self):
        system = IdealPowers([ideal((2, 0), (0, 3)), ideal((1, 1))])
        for v in ((1,), (1, 1, 1)):
            with pytest.raises(RankMismatch):
                system.limit_body(v)

    def test_integer_bodies_stay_integral(self):
        a = ideal((2, 0), (1, 1), (0, 3))
        body = IdealPowers([a, a]).limit_body((2, F(3)))
        assert all(type(x) is int for p in body.vertices for x in p)
        assert all(type(c) is int for _, c in body.facets)


def _raise(*args, **kwargs):
    raise AssertionError("a limit body formed an ideal")


# one small instance of each node type, with an index of its rank
NODES = [
    (lambda: IdealPowers([ideal((2, 0), (1, 1), (0, 3)), ideal((3, 0), (0, 1))]), (3, 2)),
    (lambda: RegionSystem(region_from_halfspaces(2, [((1, 2), 3), ((3, 1), 4)])), (2,)),
    (lambda: CeilingSystem(abs_sum_cone(), ideal((2, 0), (0, 1))), (1, 3, 0)),
    (lambda: Pullback([(2, -1)], IdealPowers([ideal((1, 2), (3, 0))])), (2, 1)),
    (lambda: Product(_tree(Intersect), IdealPowers([ideal((1, 0), (0, 2))] * 2)), (2, 3)),
    (lambda: _tree(Intersect), (2, 3)),
    (lambda: Truncate(_tree(Product), ConeRep.from_halfspaces(2, [(-1, 2)])), (1, 3)),
    (_probe_colon, (3, 1)),
]
NODE_IDS = ["powers", "region", "ceiling", "pullback", "product", "intersect", "truncate",
            "colon"]


class TestNoIdealInALimitBody:
    """Every node's body comes from its children's bodies: no evaluation,
    product, power, intersection, colon or lattice scan."""

    @pytest.mark.parametrize("make, v", NODES, ids=NODE_IDS)
    def test_no_ideal_is_formed(self, monkeypatch, make, v):
        system = make()
        expected = system.limit_body(v)
        monkeypatch.setattr(SystemExpr, "_at", _raise)
        for name in ("product", "power", "_square", "intersect", "colon"):
            monkeypatch.setattr(MonomialIdeal, name, _raise)
        monkeypatch.setattr(systems, "lattice_generators", _raise)
        fresh = make()
        assert fresh.limit_body(v) == expected
        assert fresh.limit_body(tuple(F(x, 2) for x in v)) == expected.scale(F(1, 2))


class TestOutsideVectors:
    """``eval``, ``limit_body`` and ``restrict`` check a vector from outside
    the tree at the root, once; the nodes below take it unchecked."""

    @pytest.mark.parametrize("make, v", NODES, ids=NODE_IDS)
    @pytest.mark.parametrize("resize", [lambda v: (), lambda v: v[:-1], lambda v: (*v, 1)],
                             ids=["empty", "short", "long"])
    def test_wrong_length_refused(self, make, v, resize):
        system, w = make(), resize(v)
        with pytest.raises(RankMismatch, match=f"^index of length {len(w)} in rank {len(v)}$"):
            system.eval(w)
        with pytest.raises(RankMismatch,
                           match=f"^direction of length {len(w)} in rank {len(v)}$"):
            system.limit_body(w)

    def test_one_check_per_root_call(self, monkeypatch):
        checked = []
        check = SystemExpr._vector
        monkeypatch.setattr(SystemExpr, "_vector",
                            lambda node, *a, **kw: checked.append(node) or check(node, *a, **kw))
        system = _tree(Intersect)  # intersect, pullbacks, regions: three levels
        system.eval((2, 3))
        assert checked == [system] and (2,) in system.left.inner._cache
        checked.clear()
        system.limit_body((2, 3))
        assert checked == [system]
        checked.clear()
        system.restrict((2, 3)).limit_body()
        assert checked == [system]


class TestContainmentProperties:
    def test_nested_powers_inside_later_ideals(self, wedge_system):
        for m, q in iterprod(range(1, 5), range(1, 5)):
            am = wedge_system.eval((m,))
            aqm = wedge_system.eval((q * m,))
            assert aqm.contains_ideal(am.power(q))

    def test_factorial_absorption(self, wedge_system):
        # generators of a_n, rescaled by L!/n, land in P(a_{L!})
        L = 4
        fact = 24
        target = newton_polyhedron(wedge_system.eval((fact,)))
        for n in range(1, L + 1):
            for g in wedge_system.eval((n,)).gens:
                scaled = tuple(F(fact, n) * x for x in g)
                assert contains(target, scaled)


class TestGradedness:
    def test_ideal_powers_window(self):
        system = IdealPowers([MonomialIdeal.maximal(2), ideal((2, 0), (0, 3))])
        report = verify_gradedness(system, [(-2, 2), (-2, 2)])
        assert report.ok and report.pairs_checked > 0

    def test_wedge_window(self, wedge_system):
        report = verify_gradedness(wedge_system, [(0, 8)])
        assert report.ok

    def test_ceiling_window(self):
        system = CeilingSystem(abs_sum_cone())
        report = verify_gradedness(system, [(-3, 3)] * 3)
        assert report.ok and report.pairs_checked > 20000

    def test_truncation_preserves_gradedness(self):
        system = Truncate(
            kinked_intersection_system(0), ConeRep.from_halfspaces(2, [(-1, 8)])
        )
        report = verify_gradedness(system, [(-2, 2), (-2, 2)])
        assert report.ok

    def test_colon_system_gradedness_on_its_semigroup(self):
        # colon systems are graded over Z x N, and zero below n = 0
        system = ColonSystem(
            IdealPowers([ideal((2, 0), (0, 3))]), MonomialIdeal.maximal(2)
        )
        report = verify_gradedness(system, [(-2, 2), (-2, 3)])
        assert report.ok

    def test_colon_probe_window(self):
        # the colon over a region and (x^2, xy, y^3) on [-3, 3]^2: at n < 0
        # a unit colon used to break 60 pairs, the first (-2, -3) + (3, 3)
        report = verify_gradedness(_probe_colon(), [(-3, 3)] * 2)
        assert report.ok and report.pairs_checked == 689

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_colon_trees_graded_below_n_zero(self, data):
        # a colon over a random region, powers, product or intersect inner,
        # by a random ideal, on a window reaching n = -2
        gens = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                        max_size=3).map(lambda g: minimalize(g, 2))
        facets = st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
                                    st.integers(1, 4)), min_size=1, max_size=3)

        def leaf():
            if data.draw(st.booleans()):
                return RegionSystem(region_from_halfspaces(2, data.draw(facets)))
            return IdealPowers([data.draw(gens)])

        inner = leaf()
        op = data.draw(st.sampled_from([None, Product, Intersect]))
        if op is not None:
            inner = op(inner, leaf())
        system = ColonSystem(inner, data.draw(gens))
        report = verify_gradedness(system, [(-2, 2), (-2, 2)])
        assert report.ok, report.violations[:3]


def pairwise_gradedness(system, window):
    """Reference: per pair, form a_v * a_w and find each of its generators
    above some generator of a_{v+w}."""
    pts = [tuple(v) for v in window]
    inside = set(pts)
    checked, violations = 0, []
    for v, w in combinations_with_replacement(pts, 2):
        s = tuple(a + b for a, b in zip(v, w))
        if s not in inside:
            continue
        checked += 1
        target = system.eval(s).gens
        prod = system.eval(v).product(system.eval(w))
        if not all(any(dominates(g, h) for h in target) for g in prod.gens):
            violations.append((v, w))
    return checked, tuple(violations)


class Pooled(SystemExpr):
    """a_v = pool[(t^2 mod 11) mod len(pool)] with t = v_1 + 3 v_2 + ...:
    the same few objects at many indices, and not graded.  The square makes
    a_{v+w} depend on more than the pool entries of a_v and a_w."""

    def __init__(self, rank, pool):
        super().__init__(rank, pool[0].dim)
        self.pool = pool

    def _eval(self, v):
        t = sum(3**i * x for i, x in enumerate(v))
        return self.pool[t * t % 11 % len(self.pool)]


POOLS = {
    1: [MonomialIdeal.unit(1), ideal((1,), k=1), ideal((3,), k=1), MonomialIdeal.zero(1),
        ideal((2,), k=1)],
    2: [MonomialIdeal.unit(2), MonomialIdeal.maximal(2), ideal((2, 0), (0, 1)),
        ideal((1, 0), (0, 3)), ideal((3, 0), (1, 1), (0, 2)), MonomialIdeal.zero(2),
        ideal((1, 2))],
    3: [MonomialIdeal.unit(3), MonomialIdeal.maximal(3), MonomialIdeal.zero(3),
        ideal((2, 0, 1), (0, 1, 1), k=3), ideal((1, 1, 0), (0, 0, 2), k=3)],
}


def _tree(op):
    p = region_from_halfspaces(2, [((1, 2), 3), ((3, 1), 4)])
    q = region_from_halfspaces(2, [((2, 1), 3), ((1, 3), 5)])
    return op(Pullback([(1, 0)], RegionSystem(p)), Pullback([(0, 1)], RegionSystem(q)))


class TestGradednessReference:
    @pytest.mark.parametrize(
        "make, bounds",
        [
            (lambda: CeilingSystem(abs_sum_cone()), [(-2, 2)] * 3),
            (lambda: _tree(Intersect), [(-1, 3)] * 2),
            (lambda: _tree(Product), [(-1, 3)] * 2),
            (lambda: Truncate(_tree(Intersect), ConeRep.from_halfspaces(2, [(-1, 2)])),
             [(-2, 2)] * 2),
            (lambda: Pooled(2, POOLS[2]), [(-2, 2)] * 2),
            (lambda: Pooled(2, POOLS[3]), [(-2, 2)] * 2),
            (lambda: Pooled(1, POOLS[1]), [(-4, 4)]),
        ],
        ids=["ceiling", "intersect-tree", "product-tree", "truncated-tree",
             "non-graded", "non-graded-k3", "non-graded-k1"],
    )
    def test_matches_pairwise_products(self, make, bounds):
        window = list(lattice_window(bounds))
        report = verify_gradedness(make(), bounds)
        checked, violations = pairwise_gradedness(make(), window)
        assert report.pairs_checked == checked
        assert report.violations == violations

    # ranks 0 to 3; lo > hi is an empty box, and a box such as (2, 3)
    # holds no pair, as 2 + 2 > 3
    BOXES = st.integers(0, 3).flatmap(lambda k: st.lists(
        st.tuples(st.integers(-4, 3), st.integers(-4, 4)), min_size=k, max_size=k))

    @settings(max_examples=200, deadline=None)
    @given(BOXES)
    def test_pair_count_matches_brute_force(self, bounds):
        window = list(lattice_window(bounds))
        inside = set(window)
        brute = sum(tuple(a + b for a, b in zip(v, w)) in inside
                    for v, w in combinations_with_replacement(window, 2))
        assert systems._gradedness_pairs(bounds) == brute

    @settings(max_examples=40, deadline=None)
    @given(BOXES.filter(lambda b: all(hi - lo <= 3 for lo, hi in b)))
    def test_random_boxes_match_pairwise_products(self, bounds):
        report = verify_gradedness(Pooled(len(bounds), POOLS[2]), bounds)
        checked, violations = pairwise_gradedness(Pooled(len(bounds), POOLS[2]),
                                                  lattice_window(bounds))
        assert (report.pairs_checked, report.violations) == (checked, violations)

    @pytest.mark.parametrize("k, bounds", [(1, [(-4, 4)]), (2, [(-2, 2)] * 2),
                                           (3, [(-2, 2)] * 2)])
    def test_non_graded_pools_pass_and_fail(self, k, bounds):
        report = verify_gradedness(Pooled(len(bounds), POOLS[k]), bounds)
        assert 0 < len(report.violations) < report.pairs_checked


class TestKinkedIntersectionSystem:
    def test_eval_is_lattice_intersection(self):
        system = kinked_intersection_system(1)
        p = epigraph_region(build_kinked_f(1))
        q = epigraph_region(build_g())
        got = system.eval((2, 3))
        want = lattice_generators(p, 2).intersect(lattice_generators(q, 3))
        assert got == want

    def test_unit_quadrant(self):
        system = kinked_intersection_system(1)
        assert system.eval((0, 0)).is_unit
        assert system.eval((-2, -5)).is_unit
        assert not system.eval((1, 0)).is_unit
