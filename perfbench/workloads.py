"""The three seeded workloads: inputs, queries and their correctness checks.

Each workload is a fixed list of query slots.  The seed chooses the values
inside each slot (which rationals, which lattice points) but never the
number of slots or their sizes, so every seed asks for the same mix of work
and the run-to-run spread stays small.

* ``thm2_kinks`` reproduces Theorem 2 and the appendix gauge by library
  calls.  It loads the 2D region algebra (``regions.region_intersect`` ->
  ``newton.vertices_from_halfspaces``) and rebuilds ``build_kinked_f`` on
  every call; it does almost no ``monomial`` work and no 3D hulls.
* ``ideal_invariants`` computes per-ideal invariants in bulk: ``ideal info``
  through ``cli.main`` on k=3 ideals with 16-28 minimal generators, power
  towers and sequence invariants of power/product trees.  It loads
  ``newton.orthant_hull_3d``, the box-clipped 3D covolume and ``monomial``
  products on large generator sets; the 2D region algebra is barely used.
* ``system_sweeps`` runs graded-system trees through ``cli.main`` on
  generated files: nef/eff sweeps of ceiling systems on both sides of the
  4,096-entry ``eval`` cache, gradedness checks, 3D lattice scans and
  invariants of intersect/product trees.  It loads ``systems``, ``cones``,
  ``regions.lattice_generators``, per-invocation ``textio`` parsing and
  many small ``monomial`` products and intersections.

Checks never run inside the timed interval, and each uses a route that
does not share code with the query it checks (``oracle`` or a closed form).
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import oracle

WORKLOADS = ("thm2_kinks", "ideal_invariants", "system_sweeps")


@dataclass
class Query:
    label: str                          # the query class, e.g. "ord0_N16"
    run: Callable[[], object]           # the timed call
    render: Callable[[object], str]     # canonical text of the result
    check: Callable[[object], str | None]  # None when correct, else the reason


def q_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _stratified(rng, count: int, lo: Fraction, hi: Fraction, den: int) -> list[Fraction]:
    """One rational with denominator den per equal-width stratum of [lo, hi]."""
    a, b = int(lo * den), int(hi * den)
    out = []
    for i in range(count):
        s_lo = a + (b - a) * i // count
        s_hi = a + (b - a) * (i + 1) // count
        out.append(Fraction(rng.randint(s_lo, max(s_lo, s_hi - 1)), den))
    return out


# -- input generation (pure data, no library calls) ------------------------------

THM2_ORD0 = ((8, 100), (16, 60), (32, 24))   # (kinks, queries)
THM2_SCANS = ((8, 5), (16, 2))
THM2_GAUGE = (64, 40)


def thm2_inputs(seed: int):
    rng = _rng("thm2_kinks", seed)
    specs = []
    lo, hi = Fraction(3, 4), Fraction(3, 2)
    for n, count in THM2_ORD0:
        rs = _stratified(rng, count, lo, hi, 128)
        ss = _stratified(rng, count, lo, hi, 128)
        rng.shuffle(ss)
        specs.extend(("ord0", r, s, n) for r, s in zip(rs, ss))
    for n, count in THM2_SCANS:
        for _ in range(count):
            specs.append(("scan", Fraction(rng.randint(3, 6), 4), n, rng.randrange(n)))
    n, count = THM2_GAUGE
    for _ in range(count):
        p = (0, 0)
        while p == (0, 0):
            p = (Fraction(rng.randint(-64, 64), 32), Fraction(rng.randint(-64, 64), 32))
        specs.append(("gauge", n, p))
    rng.shuffle(specs)
    return specs, {}


def _exact_antichain(rng, k, target, draw, pures):
    """Add drawn points to the pure powers until exactly target (> k) minimal
    generators remain; returns all points drawn (minimal or not)."""
    if target <= k:
        raise ValueError("target must exceed the number of pure powers")
    while True:
        points, minimal = list(pures), set(pures)
        for _ in range(40 * target):
            p = draw()
            points.append(p)
            if not any(oracle.dominates(p, g) for g in minimal):
                minimal = {g for g in minimal if not oracle.dominates(g, p)} | {p}
            if len(minimal) == target:
                return points
            if len(minimal) > target:
                break


def shell_ideal(rng, target: int) -> list[tuple[int, ...]]:
    """k=3 cofinite ideal with exactly target minimal generators, drawn from
    the shell d <= x+y+z <= d+2 plus the three pure powers."""
    d = 2
    while comb(d + 2, 2) < 3 * target // 2:
        d += 1

    def draw():
        while True:
            s = rng.randint(d, d + 2)
            x = rng.randint(0, s)
            y = rng.randint(0, s - x)
            p = (x, y, s - x - y)
            if sum(1 for c in p if c == 0) < 2:
                return p

    pures = [tuple(d + 1 if j == i else 0 for j in range(3)) for i in range(3)]
    return _exact_antichain(rng, 3, target, draw, pures)


def box_ideal(rng, k: int, target: int, side: int) -> list[tuple[int, ...]]:
    """Cofinite ideal with exactly target minimal generators in [0, side]^k."""
    def draw():
        while True:
            p = tuple(rng.randint(0, side - 1) for _ in range(k))
            if sum(1 for c in p if c == 0) < k - 1:
                return p

    pures = [tuple(side if j == i else 0 for j in range(k)) for i in range(k)]
    return _exact_antichain(rng, k, target, draw, pures)


def ideal_text(k: int, points) -> str:
    return f"k={k}\n" + "".join(" ".join(map(str, p)) + "\n" for p in points)


INFO = ((16, 2), (20, 12), (28, 3))   # (minimal generators, ideals)
MAXIMAL = ((2, 4), (2, 7), (2, 10), (2, 13), (3, 2), (3, 3), (3, 4), (3, 4))  # (k, d) of m^d
POWERS = ((2, 3, (4, 12)), (2, 5, (3, 8)), (3, 4, (2, 4)), (3, 5, (2, 3)))  # (k, gens, n)
SEQ_KINDS = (("powers1", (1,)), ("powers1", (1,)), ("powers1", (1,)), ("product", (1,)),
             ("powers2", (1, 1)), ("powers2", (2, 1)))
SEQ_QUANTITIES = ("ord0", "arn", "arn", "mult", "mult")
SEQ_SCHEDULES = (("factorial", 4), ("doubling", 4))
SEQ_REPEATS = 2


def ideal_inputs(seed: int):
    rng = _rng("ideal_invariants", seed)
    specs, files = [], {}
    for t, count in INFO:
        for i in range(count):
            name = f"shell_{t}_{i}.ideal"
            points = shell_ideal(rng, t)
            files[name] = ideal_text(3, points)
            specs.append(("info", name, points))
    for k, d in MAXIMAL:
        name = f"max_{k}_{d}.ideal"
        mons = _monomials(k, d)
        rng.shuffle(mons)
        files[name] = ideal_text(k, mons)
        specs.append(("maxinfo", name, k, d))
    for k, ngens, exps in POWERS:
        for _ in range(10):
            gens = oracle.antichain(box_ideal(rng, k, ngens, 5 if k == 2 else 3))
            specs.extend(("power", k, gens, n) for n in exps)
    for kind, direction in SEQ_KINDS * SEQ_REPEATS:
        for quantity in SEQ_QUANTITIES:
            for schedule, steps in SEQ_SCHEDULES:
                ideals = [oracle.antichain(box_ideal(rng, 2, 3, 4)) for _ in range(2)]
                specs.append(("seq", kind, ideals, direction, quantity, schedule, steps))
    rng.shuffle(specs)
    return specs, files


def _monomials(k: int, d: int):
    if k == 1:
        return [(d,)]
    return [(i,) + rest for i in range(d + 1) for rest in _monomials(k - 1, d - i)]


def _forms_text(rank: int, forms) -> str:
    return f"rank {rank}\n" + "".join("form " + " ".join(map(str, f)) + "\n" for f in forms)


def _halfspaces_text(k: int, halfspaces) -> str:
    return f"k={k}\n" + "".join(
        "halfspace " + " ".join(map(str, a)) + f" >= {c}\n" for a, c in halfspaces
    )


def _region_halfspaces(rng, k: int, count: int):
    """count halfspaces with positive integer normals a (entries <= 3) whose
    largest axis intercept c / min(a) lies in [2.5, 3]."""
    out = []
    for _ in range(count):
        a = tuple(rng.randint(1, 3) for _ in range(k))
        lo = max(max(a), (5 * min(a) + 1) // 2)
        out.append((a, rng.randint(lo, 3 * min(a))))
    return out


CONES2 = (31, 32, 16, 16)        # radii of rank-2 ceiling sweeps, base (x)
CONES3 = ((2, 12),)              # (radius, count) of rank-3 ceiling sweeps
VERIFY = (("ceiling2", 3, 10), ("ceiling3", 1, 10), ("tree", 2, 10))  # (system, half width, count)
# 3D regions: facet i has coefficient 1 on axis i and 2 or 3 elsewhere, all with
# right-hand side REGION3_C, so the lattice box scanned at n is (REGION3_C n + 1)^3
# whatever the seed draws.
REGION3_C = 3
EVAL3 = ((2, 8), (3, 8), (4, 8), (5, 8), (6, 8), (8, 12))  # (n, count) of 3D region evals
EVALTREE = 40
INV3 = ((1, 10), (2, 4))         # (doubling steps, count) on 3D regions
INVTREE = 40
INVCEIL = 30


def system_inputs(seed: int):
    rng = _rng("system_sweeps", seed)
    specs, files = [], {}
    files["x.ideal"] = "k=1\n1\n"
    files["m2.ideal"] = "k=2\n1 0\n0 1\n"

    def ceiling(rank):
        name = f"ceil{rank}_{len(files)}"
        if rank == 2:
            forms = [(rng.randint(1, 3),), (-rng.randint(1, 3),)]
            base = "x.ideal"
        else:
            forms = rng.sample([(1, 1), (1, -1), (-1, 1), (-1, -1)], 3)
            base = "m2.ideal"
        files[name + ".cone"] = _forms_text(rank, forms)
        files[name + ".system"] = f"ceiling {name}.cone base {base}\n"
        return name + ".system", forms

    def tree(op):
        name = f"tree_{len(files)}"
        parts = []
        for side in ("p", "q"):
            hs = _region_halfspaces(rng, 2, 2)
            files[f"{name}{side}.region"] = _halfspaces_text(2, hs)
            parts.append(hs)
        files[name + ".system"] = (
            f"{op}\n  pullback 1 0\n    region {name}p.region\n"
            f"  pullback 0 1\n    region {name}q.region\n"
        )
        return name + ".system", parts

    def region3():
        name = f"region3_{len(files)}"
        hs = [(tuple(1 if j == i else rng.randint(2, 3) for j in range(3)), REGION3_C)
              for i in range(3)]
        files[name + ".region"] = _halfspaces_text(3, hs)
        files[name + ".system"] = f"region {name}.region\n"
        return name + ".system", hs

    for radius in CONES2:
        path, forms = ceiling(2)
        specs.append(("cones", path, radius, forms))
    for radius, count in CONES3:
        for _ in range(count):
            path, forms = ceiling(3)
            specs.append(("cones", path, radius, forms))
    for kind, half, count in VERIFY:
        for _ in range(count):
            if kind == "tree":
                path, rank = tree(rng.choice(("intersect", "product")))[0], 2
            else:
                rank = 2 if kind == "ceiling2" else 3
                path = ceiling(rank)[0]
            specs.append(("verify", path, rank, -half, half))
    for n, count in EVAL3:
        for _ in range(count):
            path, hs = region3()
            specs.append(("eval3", path, n, hs))
    for _ in range(EVALTREE):
        path, parts = tree("intersect")
        specs.append(("evaltree", path, (rng.randint(1, 3), rng.randint(1, 3)), parts))
    for steps, count in INV3:
        for _ in range(count):
            specs.append(("inv", region3()[0], (1,), steps))
    for _ in range(INVTREE):
        path, _parts = tree(rng.choice(("intersect", "product")))
        specs.append(("inv", path, (rng.randint(1, 3), rng.randint(1, 3)), 3))
    for _ in range(INVCEIL):
        path, forms = ceiling(3)
        v = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 2))
        if v == (0, 0, 0):
            v = (0, 0, 1)
        specs.append(("invceil", path, v, forms))
    rng.shuffle(specs)
    return specs, files


INPUTS = {"thm2_kinks": thm2_inputs, "ideal_invariants": ideal_inputs,
          "system_sweeps": system_inputs}


def inputs(workload: str, seed: int):
    """(query specs, {file name: text}) for a workload; pure function of the seed."""
    return INPUTS[workload](seed)


# -- queries ------------------------------------------------------------------------


def cli_call(mg, argv):
    """cli.main in-process, stdout and stderr captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = mg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage by exiting
            rc = exc.code
    return rc, out.getvalue() + (f"stderr: {err.getvalue()}" if err.getvalue() else "")


def render_cli(result) -> str:
    rc, text = result
    return f"exit {rc}\n{text}"


def _cli_query(mg, label, argv, check) -> Query:
    def checked(result):
        rc, text = result
        return f"exit code {rc}" if rc != 0 else check(text)

    return Query(label, lambda: cli_call(mg, argv), render_cli, checked)


def _parse_lines(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def _invariant_report(text: str):
    """Sample values per quantity, and the 'name = value' lines, of a
    'system invariants' report."""
    samples: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if " samples (" in line:
            current = line.split()[0]
            samples[current] = []
        elif line.startswith("  n=") and current:
            samples[current].append(line.split("value=")[1].split()[0])
    return samples, _parse_lines(text)


def _gens(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(t) for t in line.split()) for line in text.splitlines()[1:]]


def thm2_queries(mg, specs, workdir):
    inv, regions = mg.invariants, mg.regions
    bodies = {}
    queries = []
    for spec in specs:
        if spec[0] == "ord0":
            _, r, s, n = spec

            def check(value, r=r, s=s, n=n):
                crossing = inv.thm2_crossing(r, s, n)
                if crossing is None or crossing[1] != value:
                    return f"ord0({r}, {s}, {n}) = {value}, crossing form {crossing}"
                return None

            queries.append(Query(f"ord0_N{n}", lambda r=r, s=s, n=n: inv.thm2_ord0(r, s, n),
                                 q_str, check))
        elif spec[0] == "scan":
            _, r, n, j = spec
            e = oracle.dyadic(n)[j]
            s0 = next(s0 for s0, x0 in inv.thm2_kink_locations(r, n, 0, 10) if x0 == r * e)
            want = oracle.kink_slopes(n, j)

            def check(dq, r=r, s0=s0, want=want):
                if not dq.stable or dq.gap == 0:
                    return f"scan at r={r}, s0={s0}: stable={dq.stable}, gap={dq.gap}"
                if (dq.left, dq.right) != want:
                    return f"scan at r={r}, s0={s0}: slopes {dq.left}, {dq.right} != {want}"
                return None

            def run(r=r, s0=s0, n=n):
                return inv.diff_quotient_scan(lambda s: inv.thm2_ord0(r, s, n), s0)

            queries.append(Query(f"scan_N{n}", run,
                                 lambda dq: f"{q_str(dq.left)} {q_str(dq.right)} {dq.stable}",
                                 check))
        else:
            _, n, p = spec
            if n not in bodies:
                bodies[n] = regions.appendix_boundary(n)[1]
            body = bodies[n]

            def check(g, p=p, body=body):
                q = (p[0] / g, p[1] / g)
                if g <= 0 or not oracle.on_polygon_boundary(q, body.vertices):
                    return f"gauge{p} = {g}: p/gauge is not on the body's boundary"
                return None

            queries.append(Query(f"gauge_N{n}", lambda p=p, body=body: body.gauge(p),
                                 q_str, check))
    return queries


def _info_check(points):
    gens = oracle.antichain(points)

    def check(text):
        got = _parse_lines(text)
        verts = [tuple(Fraction(x) for x in line[4:-1].split(", "))
                 for line in text.splitlines() if line.startswith("V: ")]
        facets = []
        for line in text.splitlines():
            if line.startswith("F: "):
                lhs, c = line[3:].split(" >= ")
                a = [0, 0, 0]
                for term in lhs.split(" + "):
                    coef, var = term.split(" x")
                    a[int(var) - 1] = Fraction(coef)
                facets.append((tuple(a), Fraction(c)))
        if text.splitlines()[1] != f"generators: {len(gens)}":
            return f"{text.splitlines()[1]}, expected {len(gens)} minimal generators"
        if got["ord0"] != q_str(oracle.ord0(points)):
            return f"ord0 {got['ord0']}, expected {oracle.ord0(points)}"
        if int(got["colength"]) != oracle.colength(gens, 3):
            return f"colength {got['colength']}, expected {oracle.colength(gens, 3)}"
        if any(v not in gens for v in verts):
            return "a vertex is not a minimal generator"
        for a, c in facets:
            if any(sum(x * y for x, y in zip(a, g)) < c for g in gens):
                return f"facet {a} >= {c} cuts off a generator"
        arn = max(c / sum(a) for a, c in facets)
        if got["arn"] != q_str(arn) or got["lct"] != q_str(1 / arn):
            return f"arn {got['arn']} / lct {got['lct']}, facets give {arn}"
        mult = 6 * oracle.covolume_3d(verts, facets)
        if got["mult"] != q_str(mult):
            return f"mult {got['mult']}, facet cones give {mult}"
        return None

    return check


def _maximal_check(k, d):
    want = {"ord0": q_str(d), "arn": q_str(Fraction(d, k)), "lct": q_str(Fraction(k, d)),
            "mult": q_str(d**k), "colength": str(comb(d + k - 1, k))}

    def check(text):
        got = _parse_lines(text)
        bad = [key for key in want if got.get(key) != want[key]]
        return f"m^{d} in k={k}: {bad} differ from {want}" if bad else None

    return check


def _power_check(mg, k, gens, n):
    base = mg.monomial.minimalize(gens, k)

    def check(ideal):
        if oracle.ord0(ideal.gens) != n * oracle.ord0(gens):
            return f"ord0 of the {n}-th power is not {n} ord0(I)"
        if ideal.arn() != n * base.arn():
            return f"arn of the {n}-th power is not {n} arn(I)"
        if ideal.multiplicity() != n**k * base.multiplicity():
            return f"mult of the {n}-th power is not {n}^{k} mult(I)"
        return None

    return base, check


def _seq_closed_ord0(kind, ideals, direction):
    o = [oracle.ord0(g) for g in ideals]
    if kind == "powers1":
        return o[0]
    if kind == "product":
        return o[0] + o[1]
    return direction[0] * o[0] + direction[1] * o[1]


def ideal_queries(mg, specs, workdir):
    queries = []
    systems, inv = mg.systems, mg.invariants
    for spec in specs:
        if spec[0] == "info":
            _, name, points = spec
            queries.append(_cli_query(mg, f"info_g{len(oracle.antichain(points))}",
                                      ["ideal", "info", str(workdir / name)],
                                      _info_check(points)))
        elif spec[0] == "maxinfo":
            _, name, k, d = spec
            queries.append(_cli_query(mg, f"maxinfo_k{k}", ["ideal", "info", str(workdir / name)],
                                      _maximal_check(k, d)))
        elif spec[0] == "power":
            _, k, gens, n = spec
            base, check = _power_check(mg, k, gens, n)
            queries.append(Query(f"power_k{k}", lambda base=base, n=n: base.power(n),
                                 lambda ideal: repr(ideal.gens), check))
        else:
            _, kind, gens, direction, quantity, schedule, steps = spec
            ideals = [mg.monomial.minimalize(g, 2) for g in gens]

            def run(kind=kind, ideals=ideals, direction=direction, quantity=quantity,
                    schedule=schedule, steps=steps):
                if kind == "powers1":
                    system = systems.IdealPowers(ideals[:1])
                elif kind == "product":
                    system = systems.Product(systems.IdealPowers(ideals[:1]),
                                             systems.IdealPowers(ideals[1:]))
                else:
                    system = systems.IdealPowers(ideals)
                return inv.sequence_invariant(system, direction, quantity,
                                              schedule=schedule, steps=steps,
                                              with_geometry=True)

            closed = _seq_closed_ord0(kind, gens, direction)

            def check(b, quantity=quantity, closed=closed):
                values = {v for _, v in b.samples}
                if not b.certified:
                    return f"{quantity} bracket not certified"
                if values != {b.geometric}:
                    return f"{quantity} samples {values} are not all {b.geometric}"
                if quantity == "ord0" and b.geometric != closed:
                    return f"ord0 {b.geometric}, closed form {closed}"
                return None

            queries.append(Query(
                f"seq_{kind}", run,
                lambda b: " ".join(f"{n}:{q_str(v)}" for n, v in b.samples)
                + f" geo {q_str(b.geometric)} {b.certified}",
                check))
    return queries


def _f(forms, x) -> Fraction:
    """Boundary function of the epigraph cone: max of the forms and 0."""
    return max([Fraction(0)] + [sum(Fraction(a) * b for a, b in zip(f, x)) for f in forms])


def _box(rank, lo, hi):
    """Integer vectors with every entry in [lo, hi], lexicographically."""
    pts = [()]
    for _ in range(rank):
        pts = [p + (x,) for p in pts for x in range(lo, hi + 1)]
    return pts


def _cones_check(rank, radius, forms):
    window = _box(rank, -radius, radius)
    nef = [v for v in window if v[-1] >= _f(forms, v[:-1])]

    def check(text):
        lines = text.splitlines()
        if lines[0] != f"nef points ({len(nef)}):":
            return f"{lines[0]!r}, but the cone has {len(nef)} lattice points in the window"
        eff_at = 1 + len(nef)
        got_nef = [tuple(int(t) for t in line.split()) for line in lines[1:eff_at]]
        if got_nef != nef:
            return f"nef points differ from the cone's {len(nef)} lattice points"
        got_eff = [tuple(int(t) for t in line.split())
                   for line in lines[eff_at + 1:eff_at + 1 + len(window)]]
        if lines[eff_at] != f"eff points ({len(window)}):" or got_eff != window:
            return f"eff points are not the whole window of {len(window)}"
        return None

    return check


def _pairs_in_window(rank, lo, hi) -> int:
    """Unordered pairs {v, w} (v = w allowed) with v, w, v + w in the box."""
    pts = _box(rank, lo, hi)
    inside = set(pts)
    return sum(1 for i, v in enumerate(pts) for w in pts[i:]
               if tuple(a + b for a, b in zip(v, w)) in inside)


def system_queries(mg, specs, workdir):
    queries = []
    for spec in specs:
        kind, path = spec[0], str(workdir / spec[1])
        if kind == "cones":
            _, _, radius, forms = spec
            rank = len(forms[0]) + 1
            queries.append(_cli_query(mg, f"cones_r{rank}_{radius}",
                                      ["system", "cones", path, "--radius", str(radius)],
                                      _cones_check(rank, radius, forms)))
        elif kind == "verify":
            _, _, rank, lo, hi = spec
            want = f"pairs checked: {_pairs_in_window(rank, lo, hi)}\nviolations: 0\n"

            def check(text, want=want):
                return None if text == want else f"verify printed {text!r}, expected {want!r}"

            queries.append(_cli_query(mg, f"verify_r{rank}",
                                      ["system", "verify", path, f"--window={lo}:{hi}"], check))
        elif kind in ("eval3", "evaltree"):
            _, _, at, parts = spec
            if kind == "eval3":
                k, halfspaces, index = 3, [(a, c * at) for a, c in parts], str(at)
            else:
                k, index = 2, f"{at[0]},{at[1]}"
                halfspaces = [(a, c * at[0]) for a, c in parts[0]] + \
                    [(a, c * at[1]) for a, c in parts[1]]

            def check(text, k=k, halfspaces=halfspaces):
                if text.splitlines()[0] != f"k={k}":
                    return f"eval printed {text.splitlines()[0]!r}"
                return oracle.lattice_ideal_errors(_gens(text), halfspaces, k)

            queries.append(_cli_query(mg, f"eval3_n{at}" if kind == "eval3" else kind,
                                      ["system", "eval", path, "--at", index], check))
        elif kind == "inv":
            _, _, direction, steps = spec

            def check(text):
                ok = "ord0 certified = yes" in text.splitlines()
                return None if ok else "ord0 bracket not certified"

            queries.append(_cli_query(
                mg, "inv_region3" if spec[1].startswith("region3") else "inv_tree",
                ["system", "invariants", path, "--direction=" + ",".join(map(str, direction)),
                 "--quantity", "ord0", "--schedule", "doubling", "--max", str(steps)],
                check))
        else:
            _, _, v, forms = spec
            cone = mg.cones.ConeRep.epigraph(forms)
            closed = mg.invariants.ceiling_closed_forms(
                mg.systems.CeilingSystem(cone, mg.monomial.MonomialIdeal.maximal(2)), v)

            def check(text, closed=closed):
                samples, got = _invariant_report(text)
                for q in ("ord0", "arn", "mult"):
                    want = q_str(getattr(closed, q))
                    if not samples[q] or samples[q] != [want] * len(samples[q]):
                        return f"{q} samples {samples[q]}, closed form {want}"
                    if got[f"{q} geometric"].split()[0] != want:
                        return f"{q} geometric {got[f'{q} geometric']}, closed form {want}"
                    if got[f"{q} certified"] != "yes":
                        return f"{q} not certified"
                return None

            queries.append(_cli_query(
                mg, "inv_ceiling",
                ["system", "invariants", path, "--direction=" + ",".join(map(str, v)),
                 "--quantity", "all", "--schedule", "doubling", "--max", "3"],
                check))
    return queries


QUERIES = {"thm2_kinks": thm2_queries, "ideal_invariants": ideal_queries,
           "system_sweeps": system_queries}


def build(workload: str, seed: int, mg, workdir: Path) -> list[Query]:
    """Generate the inputs, write the input files and build the queries."""
    specs, files = inputs(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (workdir / name).write_text(text)
    return QUERIES[workload](mg, specs, workdir)

