"""Monomial ideal algebra, checked against brute-force lattice scans."""

import random
from fractions import Fraction
from itertools import product as iterprod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigraded import monomial
from multigraded.errors import (
    DimensionMismatch,
    NotCofinite,
    WorkLimitExceeded,
    ZeroDivisorIdeal,
    ZeroIdeal,
)
from multigraded.monomial import MonomialIdeal, _antichain, dominates, minimalize
from multigraded.regions import lattice_generators, region_from_halfspaces


def ideal(*gens, k=2):
    return minimalize(gens, k)


def members(a, box):
    """All lattice points of [0, box)^k lying in the ideal."""
    return {
        p
        for p in iterprod(*(range(box) for _ in range(a.dim)))
        if a.contains_monomial(p)
    }


def quadratic_antichain(vecs):
    """Reference: the quadratic domination filter in degree order, lex-sorted."""
    kept = []
    for v in sorted(set(vecs), key=lambda t: (sum(t), t)):
        if not any(dominates(v, w) for w in kept):
            kept.append(v)
    return sorted(kept)


vectors3 = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)), max_size=40
)


def random_cofinite(rng, max_exp=6, extra=3):
    """m-primary ideal with generators in [0, max_exp]^2."""
    gens = [(rng.randint(1, max_exp), 0), (0, rng.randint(1, max_exp))]
    for _ in range(rng.randint(0, extra)):
        gens.append((rng.randint(1, max_exp), rng.randint(1, max_exp)))
    return minimalize(gens, 2)


class TestMinimalize:
    def test_drops_dominated(self):
        assert ideal((2, 0), (0, 3), (2, 1)).gens == ((0, 3), (2, 0))

    def test_zero_vector_gives_unit(self):
        a = ideal((0, 0), (5, 5))
        assert a.is_unit and a.gens == ((0, 0),)

    def test_empty_gives_zero(self):
        a = minimalize([], 2)
        assert a.is_zero and not a.is_unit

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_cofinite(rng)
            assert minimalize(a.gens, 2) == a

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            minimalize([(1, 2, 3)], 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            minimalize([(1, -1)], 2)


class TestAntichain3:
    """The k = 3 sweep against the quadratic filter it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(vectors3)
    def test_sweep_matches_quadratic_filter(self, vecs):
        # entries 0..4 over up to 40 draws: duplicates and zeros are common
        assert monomial._antichain(vecs, 3) == quadratic_antichain(vecs)
        if vecs:
            assert list(minimalize(vecs, 3).gens) == quadratic_antichain(vecs)

    def test_examples(self):
        vecs = [(1, 1, 1), (1, 1, 1), (0, 2, 5), (2, 0, 0), (2, 0, 1), (0, 0, 3), (1, 1, 0)]
        assert monomial._antichain(vecs, 3) == [(0, 0, 3), (1, 1, 0), (2, 0, 0)]
        assert monomial._antichain([(3, 0, 0), (0, 3, 0), (0, 0, 3)], 3) == [
            (0, 0, 3), (0, 3, 0), (3, 0, 0),
        ]


class TestValidation:
    """The public constructor checks everything; the internal routes check once."""

    @settings(max_examples=150, deadline=None)
    @given(vectors3.filter(bool))
    def test_public_constructor_rejects_bad_generators(self, vecs):
        gens = minimalize(vecs, 3).gens
        assert MonomialIdeal(3, gens) == minimalize(vecs, 3)
        g = gens[0]
        with pytest.raises(ValueError):  # dominated by g
            MonomialIdeal(3, tuple(sorted(gens + ((g[0] + 1, g[1], g[2]),))))
        with pytest.raises(ValueError):  # repeated
            MonomialIdeal(3, (g,) + gens)
        with pytest.raises(ValueError):  # negative
            MonomialIdeal(3, ((-1, g[1], g[2]),) + gens[1:])
        with pytest.raises(DimensionMismatch):
            MonomialIdeal(3, gens + ((g[0], g[1]),))
        if len(gens) > 1:
            with pytest.raises(ValueError):  # unsorted
                MonomialIdeal(3, tuple(reversed(gens)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_generators_is_the_zero_ideal(self, k):
        a = MonomialIdeal(k, ())
        assert a.is_zero and not a.is_unit
        assert a == MonomialIdeal.zero(k) == minimalize([], k)
        assert hash(a) == hash(MonomialIdeal.zero(k))
        assert repr(a) == f"MonomialIdeal.zero({k})"
        with pytest.raises(ZeroIdeal):
            a.ord0()

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            minimalize([()], 0)
        with pytest.raises(ValueError):
            MonomialIdeal(0, ((),))

    def test_antichain_once_per_result(self, monkeypatch):
        calls = []
        antichain = monomial._antichain
        monkeypatch.setattr(monomial, "_antichain",
                            lambda vecs, k: calls.append(k) or antichain(vecs, k))
        a = minimalize([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1), (2, 2, 2)], 3)
        assert calls == [3]
        a.product(a)
        a.intersect(MonomialIdeal.maximal(3))
        assert calls == [3, 3, 3, 3]  # maximal(3) is one more minimalize
        calls.clear()
        lattice_generators(region_from_halfspaces(3, [((1, 2, 3), 6)]), 4)
        assert calls == []  # the column scan emits the antichain directly


class TestGeneratorPairLimit:
    def test_product_and_intersection_refused_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(monomial, "MAX_GENERATOR_PAIRS", 3)
        a = ideal((2, 0), (0, 3))
        b = ideal((1, 0), (0, 1))
        with pytest.raises(WorkLimitExceeded, match="over the limit of 3"):
            a.product(b)
        with pytest.raises(WorkLimitExceeded, match="over the limit of 3"):
            ideal((2, 0, 0), (0, 3, 0), k=3).intersect(ideal((1, 0, 0), (0, 0, 1), k=3))
        assert a.product(ideal((1, 1))) == ideal((3, 1), (1, 4))  # 2 pairs
        # a k=2 intersection is a staircase merge, never refused
        assert a.intersect(b) == a

    def test_squaring_refused_at_the_ordered_pair_count(self, monkeypatch):
        # squaring forms only the 3 unordered pairs of 2 generators, but is
        # refused exactly where product(a, a), with 2 x 2 pairs, would be
        a = ideal((2, 0), (0, 3))
        monkeypatch.setattr(monomial, "MAX_GENERATOR_PAIRS", 4)
        assert a.power(2) == ideal((4, 0), (2, 3), (0, 6))
        monkeypatch.setattr(monomial, "MAX_GENERATOR_PAIRS", 3)
        with pytest.raises(WorkLimitExceeded, match="product of ideals with 2 and 2"):
            a.power(2)


class TestProduct:
    def test_unit_identity(self):
        a = ideal((2, 0), (0, 3))
        assert MonomialIdeal.unit(2).product(a) == a

    def test_principal(self):
        assert ideal((1, 0)).product(ideal((0, 1))) == ideal((1, 1))

    def test_square(self):
        a = ideal((2, 0), (0, 3))
        assert a.product(a) == ideal((4, 0), (2, 3), (0, 6))

    def test_zero_absorbs(self):
        a = ideal((2, 0), (0, 3))
        assert a.product(MonomialIdeal.zero(2)).is_zero

    def test_semigroup_laws(self):
        rng = random.Random(11)
        for _ in range(25):
            a, b, c = (random_cofinite(rng) for _ in range(3))
            assert a.product(b) == b.product(a)
            assert a.product(b).product(c) == a.product(b.product(c))


class TestIntersect:
    def test_unit(self):
        a = ideal((2, 0), (0, 3))
        assert a.intersect(MonomialIdeal.unit(2)) == a

    def test_principal(self):
        assert ideal((2, 0)).intersect(ideal((0, 3))) == ideal((2, 3))

    def test_example_by_scan(self):
        a, b = ideal((2, 0), (0, 1)), ideal((1, 0), (0, 2))
        meet = a.intersect(b)
        assert members(meet, 4) == members(a, 4) & members(b, 4)
        assert meet == ideal((2, 0), (1, 1), (0, 2))

    def test_zero(self):
        assert ideal((1, 0)).intersect(MonomialIdeal.zero(2)).is_zero

    def test_staircase_merge_matches_pairwise_maxes(self):
        # reference: the antichain of all n*m pairwise maxes
        rng = random.Random(19)

        def staircase(x0=0):
            pts = [(x0 + rng.randint(0, 12), rng.randint(0, 12))
                   for _ in range(rng.randint(1, 8))]
            return minimalize(pts, 2)

        cases = [(MonomialIdeal.unit(2), staircase()), (staircase(), MonomialIdeal.unit(2)),
                 (ideal((3, 0), (0, 5)), ideal((0, 2))), (ideal((2, 3)), staircase())]
        for _ in range(200):
            a = staircase()
            cases += [(a, staircase()), (a, a), (a, staircase(x0=20)), (staircase(x0=20), a)]
        for a, b in cases:
            maxes = [tuple(map(max, v, w)) for v in a.gens for w in b.gens]
            assert a.intersect(b).gens == tuple(_antichain(maxes, 2)), (a, b)

    def test_containment_chain(self):
        rng = random.Random(13)
        for _ in range(25):
            a, b = random_cofinite(rng), random_cofinite(rng)
            meet = a.intersect(b)
            assert meet.contains_ideal(a.product(b))
            assert a.contains_ideal(meet)


class TestColon:
    def test_by_unit(self):
        a = ideal((2, 0), (0, 3))
        assert a.colon(MonomialIdeal.unit(2)) == a

    def test_example_by_scan(self):
        a, b = ideal((2, 1)), ideal((0, 1))
        quot = a.colon(b)
        # oracle: m in (a : b) iff m + w in a for every generator w of b
        box = 5
        expected = {
            m
            for m in iterprod(range(box), range(box))
            if all(a.contains_monomial(tuple(x + y for x, y in zip(m, w))) for w in b.gens)
        }
        assert members(quot, box) == expected
        assert quot == ideal((2, 0))

    def test_self_colon_is_unit(self):
        m = ideal((1, 0), (0, 1))
        assert m.colon(m).is_unit

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisorIdeal):
            ideal((1, 0)).colon(MonomialIdeal.zero(2))

    def test_inverse_containment(self):
        rng = random.Random(17)
        for _ in range(25):
            a, b = random_cofinite(rng), random_cofinite(rng)
            assert a.contains_ideal(a.colon(b).product(b))


class TestPower:
    def test_nonpositive_exponent_gives_unit(self):
        a = ideal((2, 0), (0, 3))
        assert a.power(0).is_unit and a.power(-3).is_unit

    def test_square_of_maximal(self):
        assert MonomialIdeal.maximal(2).power(2) == ideal((2, 0), (1, 1), (0, 2))

    def test_cube_matches_repeated_product(self):
        a = ideal((2, 0), (0, 3))
        assert a.power(3) == ideal((6, 0), (4, 3), (2, 6), (0, 9))
        assert a.power(3) == a.product(a).product(a)

    def test_zero_ideal(self):
        z = MonomialIdeal.zero(2)
        assert z.power(2).is_zero and z.power(0).is_unit

    @settings(max_examples=100, deadline=None)
    @given(vectors3.filter(bool), st.integers(1, 6))
    def test_matches_repeated_product(self, vecs, n):
        a = minimalize(vecs, 3)
        want = MonomialIdeal.unit(3)
        for _ in range(n):
            want = want.product(a)
        assert a.power(n) == want
        assert a._square() == a.product(a)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=5),
           st.integers(1, 40))
    def test_k2_matches_repeated_product(self, vecs, n):
        a = minimalize(vecs, 2)
        want = a
        for _ in range(n - 1):
            want = want.product(a)
        assert repr(a.power(n)) == repr(want)

    @staticmethod
    def _record_chain(monkeypatch):
        """Patch _square and product to log ("square", factor) and
        ("product", right factor) in call order."""
        calls = []
        square, product = MonomialIdeal._square, MonomialIdeal.product

        def logged_square(self):
            calls.append(("square", self))
            return square(self)

        def logged_product(self, other):
            calls.append(("product", other))
            return product(self, other)

        monkeypatch.setattr(MonomialIdeal, "_square", logged_square)
        monkeypatch.setattr(MonomialIdeal, "product", logged_product)
        return calls

    def test_chain_at_48_squares_the_power_and_multiplies_by_the_base(self, monkeypatch):
        # 48 = 0b110000: square, times the base, then four more squarings
        a = ideal((4, 0), (1, 2), (0, 5))
        calls = self._record_chain(monkeypatch)
        a.power(48)
        assert [kind for kind, _ in calls] == ["square", "product"] + ["square"] * 4
        assert calls[0][1] is a and calls[1][1] is a

    @pytest.mark.parametrize("j", [1, 2, 5])
    def test_chain_at_a_power_of_two_only_squares(self, monkeypatch, j):
        a = ideal((3, 0), (2, 1), (0, 4))
        calls = self._record_chain(monkeypatch)
        a.power(2 ** j)
        assert [kind for kind, _ in calls] == ["square"] * j


class TestMembership:
    def test_examples(self):
        a = ideal((2, 0), (0, 3))
        assert a.contains_monomial((1, 3))
        assert not a.contains_monomial((1, 2))
        assert not MonomialIdeal.zero(2).contains_monomial((0, 0))
        assert MonomialIdeal.unit(2).contains_monomial((0, 0))

    def test_bisect_matches_dominance_scan(self):
        # reference: does the point dominate any generator
        rng = random.Random(23)
        ideals = [MonomialIdeal.zero(2), MonomialIdeal.unit(2), ideal((3, 0), (0, 5)),
                  ideal((2, 3))]
        ideals += [minimalize([(rng.randint(0, 12), rng.randint(0, 12))
                               for _ in range(rng.randint(1, 8))], 2) for _ in range(100)]
        for a in ideals:
            for _ in range(40):
                p = (rng.randint(0, 14), rng.randint(0, 14))
                assert a.contains_monomial(p) == any(dominates(p, g) for g in a.gens), (a, p)


class TestColength:
    def test_examples(self):
        assert ideal((1, 0), (0, 1)).colength() == 1
        assert ideal((2, 0), (0, 3)).colength() == 6
        assert ideal((2, 0), (1, 1), (0, 2)).colength() == 3

    def test_matches_box_scan(self):
        rng = random.Random(19)
        for _ in range(25):
            a = random_cofinite(rng)
            outside = {
                p for p in iterprod(range(7), range(7)) if not a.contains_monomial(p)
            }
            assert a.colength() == len(outside)

    def test_not_cofinite(self):
        with pytest.raises(NotCofinite):
            ideal((1, 0)).colength()

    def test_three_variables(self):
        # staircase [0,2)x[0,3)x[0,4) minus the 1x2x3 block above (1,1,1)
        a = minimalize([(2, 0, 0), (0, 3, 0), (0, 0, 4), (1, 1, 1)], 3)
        assert a.colength() == 24 - 6

    @settings(max_examples=150, deadline=None)
    @given(
        st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
                 max_size=10),
    )
    def test_three_variables_matches_box_scan(self, pures, extra):
        a, b, c = pures
        gens = [(a, 0, 0), (0, b, 0), (0, 0, c), *extra]
        ideal3 = minimalize(gens, 3)
        if ideal3.is_unit:
            return
        box = iterprod(*(range(e) for e in ideal3.pure_power_exponents()))
        assert ideal3.colength() == sum(1 for p in box if not ideal3.contains_monomial(p))


class TestWeightedOrder:
    """ord0, the order at the origin (the all-ones weighted order)."""

    def test_examples(self):
        assert ideal((2, 0), (0, 3)).ord0() == 2
        assert ideal((3, 0), (1, 1), (0, 3)).ord0() == 2
        assert MonomialIdeal.unit(2).ord0() == 0
        assert repr(ideal((2, 0), (0, 3)).ord0()) == "Fraction(2, 1)"
        assert repr(minimalize([(3, 1, 2), (2, 2, 2)], 3).ord0()) == "Fraction(6, 1)"

    def test_zero_ideal(self):
        with pytest.raises(ZeroIdeal):
            MonomialIdeal.zero(2).ord0()


class TestArnMult:
    def test_arn_examples(self):
        assert MonomialIdeal.maximal(2).arn() == Fraction(1, 2)
        assert ideal((2, 0), (0, 3)).arn() == Fraction(6, 5)
        assert MonomialIdeal.unit(2).arn() == 0
        assert MonomialIdeal.unit(2).lct() is None

    def test_lct_is_reciprocal(self):
        a = ideal((2, 0), (0, 3))
        assert a.lct() == Fraction(5, 6)

    def test_mult_examples(self):
        assert MonomialIdeal.maximal(2).multiplicity() == 1
        assert ideal((2, 0), (0, 3)).multiplicity() == 6
        assert ideal((2, 0), (1, 1), (0, 2)).multiplicity() == 4

    def test_mult_of_pure_power_pairs(self):
        # e((x^a, y^b)) = a*b, cross-checked by the colength limit
        for a in range(1, 7):
            for b in range(1, 7):
                i = ideal((a, 0), (0, b))
                assert i.multiplicity() == a * b
                n = 8
                oracle = Fraction(2 * i.power(n).colength(), n * n)
                assert abs(oracle / (a * b) - 1) <= Fraction(15, 100)


class TestProductSubadditivity:
    """ord, Arn and the square root of e are subadditive over products.

    The multiplicity inequality uses distinct factors on the right-hand
    side and is tested in the exact squared arrangement: with
    d = e(ab) - e(a) - e(b), the claim e(ab)^(1/2) <= e(a)^(1/2) + e(b)^(1/2)
    is d <= 0 or d^2 <= 4 e(a) e(b).
    """

    def test_seeded_pairs(self):
        rng = random.Random(2024)
        for _ in range(60):
            a, b = random_cofinite(rng), random_cofinite(rng)
            ab = a.product(b)
            assert ab.ord0() <= a.ord0() + b.ord0()
            assert ab.arn() <= a.arn() + b.arn()
            d = ab.multiplicity() - a.multiplicity() - b.multiplicity()
            assert d <= 0 or d * d <= 4 * a.multiplicity() * b.multiplicity()
