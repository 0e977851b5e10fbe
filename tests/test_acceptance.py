"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Every
expected value below is either asserted directly from exact arithmetic or
re-derived inside the test by an independent oracle (brute-force scan,
shoelace, colength limit) before being compared.
"""

import io
import random
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from math import lcm

import pytest

from multigraded.cli import main
from multigraded.cones import ConeRep, abs_sum_cone, eff_points, lattice_window, nef_points
from multigraded.invariants import (
    ceiling_closed_forms,
    diff_quotient_scan,
    geometric_invariants,
    sequence_invariant,
    thm2_crossing,
    thm2_kink_locations,
    thm2_ord0,
)
from multigraded.monomial import minimalize
from multigraded.newton import newton_polyhedron
from multigraded.regions import (
    appendix_boundary,
    build_kinked_f,
    epigraph_region,
    region_from_halfspaces,
)
from multigraded.systems import (
    CeilingSystem,
    RegionSystem,
    Truncate,
    kinked_intersection_system,
    verify_gradedness,
)

F = Fraction


def halton(index: int, base: int) -> Fraction:
    """Deterministic low-discrepancy rational sequence in (0, 1)."""
    result = Fraction(0)
    f = Fraction(1, base)
    i = index
    while i > 0:
        result += f * (i % base)
        i //= base
        f /= base
    return result


def contains(p, q):
    """Membership in a stored polyhedron: q >= 0 and every facet holds."""
    return min(q) >= 0 and all(sum(a * x for a, x in zip(n, q)) >= c for n, c in p.facets)


def triple(inv):
    return (inv.ord0, inv.arn, inv.mult)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {label}")
        raise
    print(f"[criterion {number}] PASS: {label}")


def test_criterion_1_single_ideal_suite():
    with criterion(1, "single-ideal invariants of (x^2, y^3) with colength oracle"):
        a = minimalize([(2, 0), (0, 3)], 2)
        assert a.ord0() == 2
        assert a.arn() == F(6, 5)
        assert a.multiplicity() == 6
        n = 16
        oracle = F(2 * a.power(n).colength(), n * n)
        assert abs(oracle / 6 - 1) <= F(15, 100)


def test_criterion_2_two_route_agreement():
    with criterion(2, "two-route agreement on the halfspace lattice system"):
        # independent re-derivation: the facet lines x + 2y = 2 and
        # 2x + y = 2 meet where 3x = 3y and x + 2x = 2
        x = F(2, 3)
        assert x + 2 * x == 2 and 2 * x + x == 2
        vertices = [(F(0), F(2)), (x, x), (F(2), F(0))]
        ord0_oracle = min(px + py for px, py in vertices)
        assert ord0_oracle == F(4, 3)
        # diagonal entry: the deeper of the two facet requirements at (t, t)
        arn_oracle = max(F(2, 1 + 2), F(2, 2 + 1))
        assert arn_oracle == F(2, 3)
        # shoelace of the complement polygon (0,0), (0,2), (2/3,2/3), (2,0)
        poly = [(F(0), F(0))] + vertices
        twice_area = sum(
            poly[i][0] * poly[(i + 1) % 4][1] - poly[(i + 1) % 4][0] * poly[i][1]
            for i in range(4)
        )
        mult_oracle = 2 * abs(twice_area) / 2
        assert mult_oracle == F(8, 3)

        system = RegionSystem(region_from_halfspaces(2, [((1, 2), 2), ((2, 1), 2)]))
        body = system.limit_body((1,))
        geo = geometric_invariants(body)
        assert triple(geo) == (F(4, 3), F(2, 3), F(8, 3))
        for quantity, target in (("ord0", geo.ord0), ("arn", geo.arn), ("mult", geo.mult)):
            bracket = sequence_invariant(system, (1,), quantity, steps=6)
            values = [val for _, val in bracket.samples]
            assert all(u >= v for u, v in zip(values, values[1:]))
            assert bracket.certified and bracket.geometric == target
            for n, val in bracket.samples:
                if n % 3 == 0:
                    assert val == target


def test_criterion_3_subadditivity_suite():
    with criterion(3, "subadditivity of ord0, Arn, sqrt(e) on 200 seeded ideal pairs"):
        rng = random.Random(1839)

        def random_ideal():
            gens = [(rng.randint(1, 6), 0), (0, rng.randint(1, 6))]
            gens += [
                (rng.randint(1, 6), rng.randint(1, 6))
                for _ in range(rng.randint(0, 3))
            ]
            return minimalize(gens, 2)

        for _ in range(200):
            a, b = random_ideal(), random_ideal()
            ab = a.product(b)
            assert ab.ord0() <= a.ord0() + b.ord0()
            assert ab.arn() <= a.arn() + b.arn()
            # e(ab)^(1/2) <= e(a)^(1/2) + e(b)^(1/2), squared arrangement:
            # with d = e(ab) - e(a) - e(b), require d <= 0 or d^2 <= 4 e(a) e(b)
            d = ab.multiplicity() - a.multiplicity() - b.multiplicity()
            assert d <= 0 or d * d <= 4 * a.multiplicity() * b.multiplicity()


def test_criterion_4_lattice_system_round_trip():
    with criterion(4, "lattice system of the 2-kink epigraph round-trips"):
        f = build_kinked_f(2)
        region = epigraph_region(f)
        system = RegionSystem(region)

        report = verify_gradedness(system, [(0, 10)])
        assert report.ok

        newtons = {}

        def newton_at(n):
            if n not in newtons:
                newtons[n] = newton_polyhedron(system.eval((n,)))
            return newtons[n]

        interior, exterior = [], []
        for i in range(1, 26):
            x = F(i, 27)
            interior.append((x, f(x) + F(1, 5) + F(i, 40)))
            exterior.append((x, f(x) * F(63, 64)))
        assert all(contains(region, q) for q in interior)
        assert not any(contains(region, q) for q in exterior)

        for q in interior:
            n = lcm(q[0].denominator, q[1].denominator)
            scaled = tuple(n * c for c in q)
            assert contains(newton_at(n), scaled)
        for q in exterior:
            for n in range(1, 61):
                scaled = tuple(n * c for c in q)
                assert not contains(newton_at(n), scaled)


def test_criterion_5_ceiling_nef_cone():
    with criterion(5, "ceiling system: nef cone exact, closed forms match every sample"):
        cone = abs_sum_cone()
        system = CeilingSystem(cone)
        got = nef_points(system, 5)
        want = [v for v in lattice_window([(-5, 5)] * 3) if cone.contains(v)]
        assert got == want
        assert len(list(lattice_window([(-5, 5)] * 3))) == 11**3

        window = [v for v in lattice_window([(-2, 2)] * 3) if any(x != 0 for x in v)]
        directions = window[:: max(1, len(window) // 20)][:20]
        assert len(directions) == 20
        assert any(cone.contains(v) for v in directions)
        assert any(not cone.contains(v) for v in directions)
        for v in directions:
            closed = ceiling_closed_forms(system, v)
            t = system.deficiency(v)
            assert triple(closed) == (t, t / 2, t * t)
            for quantity in ("ord0", "arn", "mult"):
                bracket = sequence_invariant(system, v, quantity, steps=4)
                target = getattr(closed, quantity)
                assert all(val == target for _, val in bracket.samples)
                assert bracket.geometric == target


def test_criterion_6_kinked_intersection():
    with criterion(6, "kinked intersection: grid routes, kink gap at s0 = 5/4, nef quadrant"):
        # grid over [3/4, 3/2] with step 1/16, both routes per cell
        values = [F(3, 4) + F(i, 16) for i in range(13)]
        for r in values:
            for s in values:
                crossing = thm2_crossing(r, s, 1)
                assert crossing is not None
                assert crossing[1] == thm2_ord0(r, s, 1)

        # one-sided slopes at (r, s0) = (1, 5/4), re-derived from the two
        # segment equations: for s <= 5/4 the crossing solves 2 - 2x = s - x/2,
        # x = (2/3)(2 - s), so ord0 = s + x/2 = (2s + 2)/3 with slope 2/3; for
        # s >= 5/4 it solves 33/16 - 17x/8 = s - x/2, x = (8/13)(33/16 - s),
        # so ord0 = (9/13)s + 33/52 with slope 9/13.  The gap right - left is
        # 9/13 - 2/3 = 1/39 (positive, as convexity of ord0 demands).
        s = F(5, 4)
        assert F(2, 3) * (2 - s) == F(1, 2)
        assert F(8, 13) * (F(33, 16) - s) == F(1, 2)
        kinks = thm2_kink_locations(1, 1, F(9, 8), F(11, 8))
        assert kinks == [(F(5, 4), F(1, 2))]
        dq = diff_quotient_scan(lambda t: thm2_ord0(1, t, 1), F(5, 4))
        assert dq.stable
        assert (dq.left, dq.right) == (F(2, 3), F(9, 13))
        assert dq.gap == F(9, 13) - F(2, 3) == F(1, 39)

        system = kinked_intersection_system(1)
        nef = nef_points(system, 6)
        assert nef == [v for v in lattice_window([(-6, 6)] * 2) if v[0] <= 0 and v[1] <= 0]

        four = thm2_kink_locations(1, 4, F(1, 2), F(5, 2))
        assert len({s0 for s0, _ in four}) >= 4
        for s0, _ in four:
            dq = diff_quotient_scan(lambda t: thm2_ord0(1, t, 4), s0)
            assert dq.stable and dq.gap != 0


def test_criterion_7_truncation():
    with criterion(7, "truncation shapes the effective cone but not the kink table"):
        base = kinked_intersection_system(1)
        cone = ConeRep.from_halfspaces(2, [(-1, 8)])  # s >= r/8
        truncated = Truncate(base, cone)

        eff = eff_points(truncated, 8)
        assert eff and all(cone.contains(v) for v in eff)
        assert eff == [v for v in lattice_window([(-8, 8)] * 2) if cone.contains(v)]

        def truncated_ord0(s):
            scale = lcm(Fraction(s).denominator, 1)
            v = (scale, int(Fraction(s) * scale))
            body = truncated.restrict(v).limit_body()
            return body.ord0() / scale

        for s0, _ in thm2_kink_locations(1, 1, F(9, 8), F(11, 8)):
            direct = diff_quotient_scan(lambda t: thm2_ord0(1, t, 1), s0)
            through = diff_quotient_scan(truncated_ord0, s0)
            assert (through.left, through.right, through.gap) == (
                direct.left, direct.right, direct.gap,
            )


def test_criterion_8_appendix_gauge():
    with criterion(8, "reflected-body gauge: extents, homogeneity, convexity, kink gaps"):
        _, body = appendix_boundary(1)
        assert body.gauge((1, 0)) == 1
        assert body.gauge((0, 1)) == 2

        samples = []
        for i in range(1, 51):
            p = (4 * halton(i, 2) - 2, 4 * halton(i, 3) - 2)
            lam = 3 * halton(i, 5) + F(1, 8)
            samples.append(p)
            assert body.gauge((lam * p[0], lam * p[1])) == lam * body.gauge(p)
        for p, q in zip(samples, samples[1:]):
            mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
            assert 2 * body.gauge(mid) <= body.gauge(p) + body.gauge(q)

        # the single kink ray passes through (1/2, 1/2); along (1, t) the
        # active functionals are x + y (slope 1) and 2y (slope 2), so the
        # gap at t = 1 is exactly 1
        dq = diff_quotient_scan(lambda t: body.gauge((1, t)), 1)
        assert dq.stable and (dq.left, dq.right, dq.gap) == (1, 2, 1)

        _, body5 = appendix_boundary(5)
        rays = [y / x for x, y in body5.kink_vertices]
        assert len(set(rays)) == 5
        for t0 in rays:
            dq = diff_quotient_scan(lambda t: body5.gauge((1, t)), t0)
            assert dq.stable and dq.gap != 0


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "repeated CLI runs are byte-identical"):
        ideal_path = tmp_path / "a.ideal"
        ideal_path.write_text("k=2\n2 0\n0 3\n")
        region_path = tmp_path / "p.region"
        region_path.write_text("k=2\nhalfspace 1 2 >= 2\nhalfspace 2 1 >= 2\n")
        system_path = tmp_path / "p.system"
        system_path.write_text("region p.region\n")
        csv_path = tmp_path / "out.csv"

        commands = [
            ["ideal", "info", str(ideal_path), "--decimals"],
            ["system", "eval", str(system_path), "--at", "3"],
            ["system", "invariants", str(system_path), "--direction", "1",
             "--max", "5", "--out", str(csv_path)],
            ["system", "cones", str(system_path), "--radius", "3"],
            ["system", "verify", str(system_path), "--window", "0:6"],
            ["repro", "thm1", "--radius", "3", "--max", "3"],
            ["repro", "thm2", "--kinks", "1", "--radius", "4",
             "--truncate", "1/8", "--out", str(csv_path)],
            ["repro", "appendix", "--kinks", "5"],
        ]
        for argv in commands:
            runs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = main(argv)
                payload = csv_path.read_bytes() if csv_path.exists() else b""
                runs.append((code, buf.getvalue(), payload))
            assert runs[0] == runs[1]
            assert runs[0][0] == 0
