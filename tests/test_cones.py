"""Cone membership, ray hulls, nef/effective estimation."""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import ceil, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multigraded.cli import build_parser, main
from multigraded.cones import (
    ConeRep,
    abs_sum_cone,
    eff_points,
    lattice_window,
    nef_points,
    ray_hull,
)
from multigraded import cli, cones, monomial, regions, systems
from multigraded.errors import RankMismatch, WorkLimitExceeded
from multigraded.monomial import MonomialIdeal
from multigraded.systems import (
    CeilingSystem,
    IdealPowers,
    Truncate,
    verify_gradedness,
)
from multigraded.textio import parse_cone

F = Fraction


class TestContains:
    def test_epigraph_examples(self):
        c = abs_sum_cone()
        assert c.contains((1, 1, 2))
        assert not c.contains((1, 1, 1))
        assert c.contains((0, 0, 0))

    def test_halfspaces(self):
        c = ConeRep.from_halfspaces(2, [(-1, 8)])
        assert c.contains((8, 1)) and not c.contains((9, 1))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            abs_sum_cone().contains((1, 1))

    def test_homogeneous_membership(self):
        c = abs_sum_cone()
        for v in ((1, 2, 3), (1, 1, 1), (-2, 0, 5)):
            for t in (F(1, 3), 2, F(7, 2)):
                scaled = tuple(t * x for x in v)
                assert c.contains(scaled) == c.contains(v)

    def test_epigraph_appends_zero_form(self):
        c = ConeRep.epigraph([(1, 0)])
        # without the zero form (0, -1, 1) would be inside
        assert not c.contains((0, 0, -1))
        assert c.contains((-5, 7, 0))


class TestRayHull2:
    def test_quarter_plane(self):
        h = ray_hull([(1, 0), (1, 1), (0, 1)], 2)
        assert h.rays == ((0, 1), (1, 0)) and h.pointed

    def test_full_space(self):
        h = ray_hull([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
        assert h.fullspace

    def test_single_ray(self):
        h = ray_hull([(2, 4), (1, 2)], 2)
        assert h.rays == ((1, 2),)
        assert h.contains((3, 6)) and not h.contains((3, 5)) and not h.contains((-1, -2))

    def test_line(self):
        h = ray_hull([(1, 2), (-1, -2)], 2)
        assert (h.pointed, h.rays, h.halfspaces) == (False, (), ((-2, 1), (2, -1)))
        assert h.contains((-2, -4)) and not h.contains((0, 1))

    def test_halfplane(self):
        h = ray_hull([(1, 0), (-1, 0), (0, 1)], 2)
        assert (h.pointed, h.rays, h.halfspaces) == (False, (), ((0, 1),))
        assert not h.fullspace
        assert h.contains((5, 3)) and h.contains((-5, 0)) and not h.contains((0, -1))

    def test_obtuse_pointed(self):
        h = ray_hull([(1, 0), (-1, 1), (0, 1), (1, 1)], 2)
        assert h.rays == ((-1, 1), (1, 0))
        assert h.contains((-2, 3)) and not h.contains((-1, 0))


class TestRayHull3:
    def test_square_cone(self):
        pts = [v for v in lattice_window([(-2, 2)] * 3) if abs_sum_cone().contains(v)]
        h = ray_hull(pts, 3)
        assert h.pointed
        assert h.rays == ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1))

    def test_full_space(self):
        h = ray_hull(list(lattice_window([(-1, 1)] * 3)), 3)
        assert h.fullspace

    def test_membership_matches_expected_cone(self):
        pts = [v for v in lattice_window([(-3, 3)] * 3) if abs_sum_cone().contains(v)]
        h = ray_hull(pts, 3)
        cone = abs_sum_cone()
        # exact both ways: each cone holds the other's generators
        assert all(map(h.contains, ray_hull(cone.halfspaces, 3).halfspaces))
        assert all(map(cone.contains, ray_hull(h.halfspaces, 3).halfspaces))

    def test_planar_rays(self):
        h = ray_hull([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3)
        assert h.contains((2, 3, 0))
        assert not h.contains((1, 1, 1)) and not h.contains((-1, 0, 0))

    def test_line_in_space(self):
        h = ray_hull([(1, 1, 1), (-1, -1, -1)], 3)
        assert (h.pointed, h.rays, len(h.halfspaces)) == (False, (), 4)
        assert h.contains((4, 4, 4)) and h.contains((-3, -3, -3))
        assert not h.contains((1, 1, 0)) and not h.contains((0, 0, 1))

    def test_halfplane_in_space(self):
        h = ray_hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0)], 3)
        assert (h.pointed, h.rays) == (False, ())
        assert h.halfspaces == ((0, 1, 0), (0, 0, 1), (0, 0, -1))

    def test_plane_in_space(self):
        h = ray_hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], 3)
        assert (h.pointed, h.rays, h.fullspace) == (False, (), False)
        assert h.halfspaces == ((0, 0, 1), (0, 0, -1))

    def test_cli_plane_prints_facet_normals(self, tmp_path, monkeypatch):
        # the nef points fill the plane x1 = 0: its normals are printed, not
        # its 8 nef directions as rays
        (tmp_path / "x.ideal").write_text("k=1\n1\n")
        (tmp_path / "plane.system").write_text(
            "truncate halfspace 1 0 0 ; halfspace -1 0 0\n"
            "  pullback 0 0 0\n"
            "    powers x.ideal\n")
        monkeypatch.chdir(tmp_path)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["system", "cones", "plane.system", "--radius", "1"])
        assert code == 0
        assert buf.getvalue().endswith("nef hull: not pointed; facet normals:\n  1 0 0\n  -1 0 0\n")



R4_CONE = ("rank 4\nray 1 0 0 1\nray 0 1 0 1\nray 0 0 1 1\nray 1 1 0 2\nray -1 1 1 2\n"
           "ray 1 -1 1 3\n")


def run_main(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestHigherRank:
    """Ray hulls, and so `repro thm1` and `system cones`, in any rank."""

    def test_repro_thm1_rank_4_cone(self, tmp_path, monkeypatch):
        # (1, 1, 0, 2) is the sum of the first two rays, so not extreme
        (tmp_path / "r4.cone").write_text(R4_CONE)
        monkeypatch.chdir(tmp_path)
        code, out = run_main(["repro", "thm1", "--cone", "r4.cone", "--radius", "3"])
        assert code == 0 and out.count("[PASS]") == 3
        assert "\nnef hull rays: -1 1 1 2; 0 0 1 1; 0 1 0 1; 1 -1 1 3; 1 0 0 1\n" in out

    def test_system_cones_of_four_powers(self, tmp_path, monkeypatch):
        # a_v = (x)^(v1 + v2 + v3 + v4) over the positive entries: the unit
        # ideal exactly on the negative orthant
        (tmp_path / "x.ideal").write_text("k=1\n1\n")
        (tmp_path / "x4.system").write_text("powers x.ideal x.ideal x.ideal x.ideal\n")
        monkeypatch.chdir(tmp_path)
        code, out = run_main(["system", "cones", "x4.system", "--radius", "1"])
        assert code == 0 and out.startswith("nef points (16):\n")
        assert out.endswith("nef hull rays:\n  -1 0 0 0\n  0 -1 0 0\n  0 0 -1 0\n  0 0 0 -1\n")


def _never_evaluated(self, v):
    raise AssertionError(f"index {v} was evaluated")


def _thm2_truncated(n_kinks):
    args = build_parser().parse_args(["repro", "thm2", "--kinks", str(n_kinks),
                                      "--truncate", "1/8"])
    return args.func(args)


SQUARE = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]

# each stated limit, the value a test sets it to (None keeps it), and work
# of one more than that value
LIMITS = [
    (monomial, "MAX_GENERATOR_PAIRS", 3,  # 2 x 2 generator pairs
     lambda: MonomialIdeal.maximal(2).product(MonomialIdeal.maximal(2))),
    (regions, "MAX_SCAN_COLUMNS", 35,  # a 6 x 6 box of columns
     lambda: regions.lattice_generators(
         regions.region_from_halfspaces(3, [((1, 1, 1), 5)]), 1)),
    (regions, "MAX_KINKS", None, lambda: regions.build_kinked_f(regions.MAX_KINKS + 1)),
    (regions, "MAX_APPENDIX_KINKS", None,
     lambda: regions.appendix_boundary(regions.MAX_APPENDIX_KINKS + 1)),
    (cli, "MAX_TRUNCATED_KINKS", None, lambda: _thm2_truncated(cli.MAX_TRUNCATED_KINKS + 1)),
    (cones, "MAX_WINDOW_INDICES", 8, lambda: lattice_window([(-1, 1)] * 2)),
    (cones, "MAX_DUAL_RAYS", 3, lambda: ray_hull(SQUARE, 3)),  # 4 dual rays at the end
    (systems, "MAX_GRADEDNESS_PAIRS", 3,  # 0 + 0, 0 + 1, 0 + 2, 1 + 1
     lambda: verify_gradedness(IdealPowers([MonomialIdeal.maximal(2)]), [(0, 2)])),
]


class TestWorkLimits:
    """Each stated limit refuses work one past it with ``WorkLimitExceeded``;
    a window, a gradedness check and a double description over their limits
    exit 2 with one line naming the limit."""

    @pytest.mark.parametrize("module, name, value, work", LIMITS,
                             ids=[name for _, name, _, _ in LIMITS])
    def test_each_limit_refused_one_past_it(self, monkeypatch, module, name, value, work):
        if value is not None:
            monkeypatch.setattr(module, name, value)
        limit = getattr(module, name)
        with pytest.raises(WorkLimitExceeded, match=rf"the limit of {limit}\b"):
            work()

    @pytest.fixture
    def ceiling(self, tmp_path, monkeypatch):
        (tmp_path / "c.cone").write_text("rank 3\nray 1 0 1\nray 0 1 1\nray -1 0 1\nray 0 -1 1\n")
        (tmp_path / "c.system").write_text("ceiling c.cone\n")
        monkeypatch.chdir(tmp_path)
        return "c.system"

    def test_window_over_the_limit_is_refused_before_any_eval(self, ceiling, monkeypatch,
                                                              capsys):
        monkeypatch.setattr(cones, "MAX_WINDOW_INDICES", 7 ** 3)
        code, out = run_main(["system", "cones", ceiling, "--radius", "3"])
        assert code == 0 and "nef hull rays:" in out
        monkeypatch.setattr(cones, "MAX_WINDOW_INDICES", 7 ** 3 - 1)
        monkeypatch.setattr(CeilingSystem, "_eval", _never_evaluated)
        code, out = run_main(["system", "cones", ceiling, "--radius", "3"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: a window of 343 indices is over the limit of 342\n")

    def test_dual_over_the_limit_is_refused(self, ceiling, monkeypatch, capsys):
        # the four rays of a square cone: the dual holds 3 rays after the
        # first three and 4 after the last
        monkeypatch.setattr(cones, "MAX_DUAL_RAYS", 4)
        assert len(ray_hull(SQUARE, 3).halfspaces) == 4
        monkeypatch.setattr(cones, "MAX_DUAL_RAYS", 3)
        with pytest.raises(WorkLimitExceeded, match="of 4 dual rays is over the limit of 3$"):
            ray_hull(SQUARE, 3)
        code, out = run_main(["system", "cones", ceiling, "--radius", "1"])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("over the limit of 3\n")

    def test_verify_over_the_pair_limit_is_refused_before_any_eval(self, ceiling, monkeypatch,
                                                                   capsys):
        # --window=-1:1 in rank 3: per coordinate 7 ordered pairs (x, y) with
        # x + y in [-1, 1] and one x = y, so (7^3 + 1) / 2 = 172 pairs
        monkeypatch.setattr(systems, "MAX_GRADEDNESS_PAIRS", 172)
        code, out = run_main(["system", "verify", ceiling, "--window=-1:1"])
        assert code == 0 and "pairs checked: 172" in out and "violations: 0" in out
        monkeypatch.setattr(systems, "MAX_GRADEDNESS_PAIRS", 171)
        monkeypatch.setattr(CeilingSystem, "_eval", _never_evaluated)
        code, out = run_main(["system", "verify", ceiling, "--window=-1:1"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: a gradedness check of 172 pairs is over the limit of 171\n")


class TestDerivedProperties:
    """Pointedness, generators and rays come from the normals, so a cone
    read from a halfspace file reports what the ray hull of its own
    generators reports."""

    @pytest.mark.parametrize("text", [
        "rank 2\nhalfspace 1 0\nhalfspace 0 1\n",
        "rank 2\nhalfspace 1 -2\n",
        "rank 2\nhalfspace 1 0\nhalfspace -1 0\nhalfspace 0 1\nhalfspace 0 -1\n",
        "rank 3\nhalfspace 1 0 0\nhalfspace 0 1 0\nhalfspace 0 0 1\nhalfspace 1 1 -1\n",
        "rank 3\nhalfspace 1 2 0\nhalfspace -1 0 3\n",
        "rank 3\nhalfspace 1/2 1 0\n",
        "rank 1\nhalfspace -3\n",
    ], ids=["quadrant", "half-plane", "origin", "pointed-3d", "wedge", "half-space", "ray"])
    def test_halfspace_file_matches_its_ray_hull(self, text):
        cone = parse_cone(text)
        hull = ray_hull(cone.generators, cone.rank)
        window = list(lattice_window([(-3, 3)] * cone.rank))
        assert [hull.contains(v) for v in window] == [cone.contains(v) for v in window]
        assert (cone.pointed, cone.rays, cone.generators) == (
            hull.pointed, hull.rays, hull.generators)

    def test_examples(self):
        quadrant = parse_cone("rank 2\nhalfspace 1 0\nhalfspace 0 1\n")
        assert (quadrant.pointed, quadrant.rays) == (True, ((0, 1), (1, 0)))
        half_plane = parse_cone("rank 2\nhalfspace 1 -2\n")
        assert (half_plane.pointed, half_plane.rays) == (False, ())
        assert half_plane.generators == ((1, 0), (2, 1), (-2, -1))
        full = ConeRep(2)
        assert (full.pointed, full.rays) == (False, ())
        assert full.generators == ((1, 0), (-1, 0), (0, 1), (0, -1))


# -- reference routes that share no code with ray_hull -------------------------


def _det(m):
    """Determinant of a small square integer matrix, by cofactor expansion."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _prim(v):
    g = gcd(*v)
    return tuple(x // g for x in v)


def _neg(v):
    return tuple(-x for x in v)


def cone_oracle(rays, rank):
    """Membership in cone(rays) by Caratheodory's theorem: x is inside iff it
    is a nonnegative combination of a linearly independent subset of the
    rays, and so of a basis of their span drawn from them (zero coefficients
    pad the subset).  Each such basis, found as the largest independent
    subsets, is solved on one nonzero minor by Cramer's rule, and the
    solution is checked on every coordinate."""
    systems = []
    for m in range(rank, 0, -1):
        if systems:
            break
        for subset in combinations(rays, m):
            for rows in combinations(range(rank), m):
                a = [[r[i] for r in subset] for i in rows]
                d = _det(a)
                if d:
                    # cof[j][i] is the (i, j) cofactor, so coefficient j is
                    # sum_i cof[j][i] x[rows[i]] / d
                    cof = [[(-1) ** (i + j) * _det([row[:j] + row[j + 1:]
                                                    for k, row in enumerate(a) if k != i])
                            for i in range(m)] for j in range(m)]
                    systems.append((subset, rows, cof, d))
                    break

    def contains(x):
        if not any(x):
            return True
        for subset, rows, cof, d in systems:
            num = [sum(c * x[i] for c, i in zip(cj, rows)) for cj in cof]
            if all(c * d >= 0 for c in num) and all(
                    sum(c * r[i] for c, r in zip(num, subset)) == d * x[i] for i in range(rank)):
                return True
        return False

    return contains


def pair_facets(rays):
    """Facet normals of a full-span rank-3 cone by pair enumeration: every
    primitive cross product of two rays, either sign, that is valid on all
    rays and tight on two independent ones; sorted."""
    def cross(u, v):
        return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])

    candidates = set()
    for p, q in combinations(rays, 2):
        n = cross(p, q)
        if any(n):
            candidates |= {_prim(n), _prim(_neg(n))}
    facets = []
    for n in sorted(candidates):
        if all(sum(a * b for a, b in zip(n, r)) >= 0 for r in rays):
            tight = [r for r in rays if sum(a * b for a, b in zip(n, r)) == 0]
            if any(any(cross(p, q)) for p, q in combinations(tight, 2)):
                facets.append(n)
    return tuple(facets)


def _random_points(rng, rank, span):
    """Points spanning a random subspace of dimension at most `span`.  Half of
    the time the sum of two points is added, so that rays on a face are not
    extreme, and half of the time the negative of one, so that lines appear."""
    while True:
        basis = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(span)]
        if any(_det([list(v[i] for i in rows) for v in basis])
               for rows in combinations(range(rank), span)):
            break
    pts = []
    for _ in range(rng.randint(1, 5)):
        c = [rng.randint(-2, 2) for _ in basis]
        pts.append(tuple(sum(ci * b[i] for ci, b in zip(c, basis)) for i in range(rank)))
    if rng.random() < 0.5:
        p, q = rng.choice(pts), rng.choice(pts)
        pts.append(tuple(a + b for a, b in zip(p, q)))
    if rng.random() < 0.5:
        pts.append(_neg(rng.choice(pts)))
    return pts


@pytest.mark.parametrize("rank,span", [(r, s) for r in (1, 2, 3, 4, 5) for s in range(r + 1)])
def test_ray_hull_matches_caratheodory_oracle(rank, span):
    rng = random.Random(97 * rank + span)
    radius = 2 if rank == 5 else 3
    window = list(lattice_window([(-radius, radius)] * rank))
    for _ in range(6):
        pts = _random_points(rng, rank, span)
        rays = sorted({_prim(p) for p in pts if any(p)})
        inside = cone_oracle(rays, rank)
        h = ray_hull(pts, rank)
        member = [inside(v) for v in window]
        assert [h.contains(v) for v in window] == member, pts
        assert h.fullspace == all(member), pts
        pointed = not any(inside(_neg(r)) for r in rays)
        assert bool(h.pointed) == pointed, pts
        if pointed:
            extreme = [r for r in rays if not cone_oracle([q for q in rays if q != r], rank)(r)]
            assert h.rays == tuple(extreme), pts
        else:
            assert h.rays == (), pts
        if rank == 3 and not h.fullspace and any(_det(list(map(list, t)))
                                                 for t in combinations(rays, 3)):
            assert h.halfspaces == pair_facets(rays), pts


def test_pair_facets_reference_on_nef_points():
    for forms in ([(1, 1), (1, -1), (-1, 1), (-1, -1)], [(1, -1)], [(2, 0), (0, 1)]):
        cone = ConeRep.epigraph(forms)
        pts = [v for v in lattice_window([(-2, 2)] * 3) if cone.contains(v)]
        assert ray_hull(pts, 3).halfspaces == pair_facets(sorted({_prim(p) for p in pts if any(p)}))


def subset_facets(rays, rank):
    """Facet normals of a cone whose rays span the space: the primitive
    cofactor normal of every rank - 1 rays that span a hyperplane, signed
    to hold every ray on its nonnegative side, and none for a hyperplane
    with rays on both sides."""
    facets = set()
    for subset in combinations(rays, rank - 1):
        n = tuple((-1) ** j * _det([list(r[:j] + r[j + 1:]) for r in subset])
                  for j in range(rank))
        if any(n):
            dots = [sum(a * b for a, b in zip(n, r)) for r in rays]
            if min(dots) >= 0:
                facets.add(_prim(n))
            elif max(dots) <= 0:
                facets.add(_prim(_neg(n)))
    return facets


@st.composite
def _spanning_rays(draw):
    """A rank of 2-5 and rank to rank + 2 rays that span the space; half of
    the time the negative of one of them joins them, so that the cone holds
    a line, where counting shared tight rays alone finds false adjacencies."""
    rank = draw(st.integers(2, 5))
    vector = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    rays = draw(st.lists(vector, min_size=rank, max_size=rank + 2))
    if draw(st.booleans()):
        rays.append(_neg(draw(st.sampled_from(rays))))
    assume(any(_det(list(map(list, t))) for t in combinations(rays, rank)))
    return rays, rank


@settings(max_examples=100, deadline=None)
@given(_spanning_rays())
# a cone with a line, where counting shared tight rays alone adds a
# redundant normal
@example(([(1, 0, 1, -1), (0, -1, 1, 0), (0, 1, -1, 0), (1, 1, 1, 1), (0, -1, 0, 1),
           (1, -1, -1, 1), (0, 0, 0, 1)], 4))
def test_double_description_finds_every_facet(case):
    """In ranks 2-5 the double description's halfspaces are exactly the
    facets found by trying every rank - 1 of the rays: empty when the rays
    positively span the space."""
    rays, rank = case
    assert ray_hull(rays, rank).halfspaces == tuple(sorted(subset_facets(rays, rank)))


class TestNefEff:
    def test_ceiling_nef_is_the_cone(self):
        system = CeilingSystem(abs_sum_cone())
        got = nef_points(system, 3)
        want = [v for v in lattice_window([(-3, 3)] * 3) if abs_sum_cone().contains(v)]
        assert got == want

    def test_ideal_powers_nef(self):
        system = IdealPowers([MonomialIdeal.maximal(2)])
        assert nef_points(system, 4) == [(n,) for n in range(-4, 1)]

    def test_truncation_restricts_eff(self):
        cone = ConeRep.from_halfspaces(1, [(1,)])
        system = Truncate(IdealPowers([MonomialIdeal.maximal(2)]), cone)
        eff = eff_points(system, 4)
        assert eff == [(n,) for n in range(0, 5)]
        assert set(nef_points(system, 4)) <= set(eff)

    def test_nef_semigroup_property(self):
        system = CeilingSystem(abs_sum_cone())
        nef = set(nef_points(system, 4))
        for v in nef:
            for w in nef:
                s = tuple(a + b for a, b in zip(v, w))
                if max(abs(x) for x in s) <= 4:
                    assert s in nef

    def test_truncated_ceiling_has_nef_cone_c_and_eff_cone_c_prime(self, tmp_path, monkeypatch):
        # Truncate(ceiling(C), C') with C = cone((2, 1), (1, 2)) inside the
        # first quadrant C': the ceiling is never zero, so eff is C'
        (tmp_path / "c.cone").write_text("rank 2\nray 2 1\nray 1 2\n")
        (tmp_path / "q.cone").write_text("rank 2\nray 1 0\nray 0 1\n")
        (tmp_path / "t.system").write_text("truncate cone q.cone\n  ceiling c.cone\n")
        monkeypatch.chdir(tmp_path)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["system", "cones", "t.system", "--radius", "3"])
        out = buf.getvalue()
        assert code == 0
        c = ray_hull([(2, 1), (1, 2)], 2)
        nef = [v for v in lattice_window([(-3, 3)] * 2) if c.contains(v)]
        eff = [v for v in lattice_window([(-3, 3)] * 2) if min(v) >= 0]
        assert (len(nef), len(eff)) == (8, 16)
        assert out.startswith("nef points (8):\n" + "".join(f"  {x} {y}\n" for x, y in nef)
                              + "eff points (16):\n"
                              + "".join(f"  {x} {y}\n" for x, y in eff))
        assert out.endswith("nef hull rays:\n  1 2\n  2 1\n")


@st.composite
def _ceiling_cones(draw):
    """A rank 2 or 3 cone from 1-3 nonzero integer normals, with their
    membership test computed from the drawn normals; or from up to four
    rays (no rays span the origin), with the Caratheodory oracle."""
    rank = draw(st.sampled_from([2, 3]))
    vec = st.tuples(*[st.integers(-3, 3)] * rank)
    if draw(st.booleans()):
        normals = draw(st.lists(vec.filter(any), min_size=1, max_size=3))

        def inside(v):
            return all(sum(a * x for a, x in zip(n, v)) >= 0 for n in normals)

        return ConeRep.from_halfspaces(rank, normals), [_prim(n) for n in normals], inside
    rays = draw(st.lists(vec, max_size=4))
    cone = ray_hull(rays, rank)
    return cone, cone.halfspaces, cone_oracle(sorted({_prim(r) for r in rays if any(r)}), rank)


@settings(max_examples=80, deadline=None)
@given(_ceiling_cones(), st.integers(1, 7))
def test_ceiling_over_any_cone(case, den):
    """nef = the cone, gradedness on [-2, 2]^rank, and the deficiency
    max(0, max_i -<a_i, v> / w_i) in Fractions, w_i = a_i's last entry if
    positive, else 1, over the primitive normals a_i."""
    cone, normals, inside = case
    system = CeilingSystem(cone, MonomialIdeal.maximal(2))
    window = list(lattice_window([(-3, 3)] * cone.rank))
    assert nef_points(system, 3) == [v for v in window if inside(v)]
    report = verify_gradedness(system, [(-2, 2)] * cone.rank)
    assert report.pairs_checked > 0 and report.ok

    def h(v):
        terms = [-sum(a * x for a, x in zip(n, v)) / F(n[-1] if n[-1] > 0 else 1)
                 for n in normals]
        return max(terms, default=F(0))

    for v in window:
        assert ceil(system.deficiency(v)) == max(ceil(h(v)), 0)
        assert system.deficiency(v) == max(h(v), 0)
        q = tuple(F(x, den) for x in v)
        assert system.deficiency(q) == max(h(q), 0)
