"""Command-line front end.

Commands: ideal info | system eval/invariants/cones/verify | repro
thm1/thm2/appendix.  Exit codes: 0 success, 1 verification failure,
2 input error, 141 (128 + SIGPIPE) when the reader closes stdout early.
All output is a pure function of the inputs; CSV files are written
atomically (write-then-rename).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from contextlib import nullcontext, suppress
from dataclasses import replace
from fractions import Fraction
from itertools import pairwise

from .cones import (
    ConeRep,
    abs_sum_cone,
    eff_points,
    lattice_window,
    nef_eff_points,
    nef_points,
    ray_hull,
)
from .errors import MonotonicityError, MultigradedError, NotCofinite, WorkLimitExceeded
from .invariants import (
    appendix_kink_table,
    ceiling_closed_forms,
    geometric_invariant,
    sequence_invariant,
    thm2_crossing,
    thm2_kink_table,
    thm2_ord0,
)
from .monomial import MonomialIdeal
from .regions import appendix_boundary
from .systems import (
    CeilingSystem,
    Truncate,
    kinked_intersection_system,
    verify_gradedness,
)
from .textio import (
    ParseError,
    csv_text,
    fmt_dec,
    fmt_q,
    format_ideal,
    format_polyhedron,
    load_cone,
    load_ideal,
    open_atomic,
    parse_q,
    parse_system,
    write_text_atomic,
)


def _print_rat(label: str, value, decimals: bool) -> str:
    if decimals:
        return f"{label} = {fmt_q(value)} ({fmt_dec(value)})"
    return f"{label} = {fmt_q(value)}"


# -- ideal ------------------------------------------------------------------


def cmd_ideal_info(args) -> int:
    ideal = load_ideal(args.path)
    dec = args.decimals
    out = [f"k={ideal.dim}"]
    if ideal.is_zero:
        out.append("zero ideal: all invariants undefined")
        print("\n".join(out))
        return 0
    out.append(f"generators: {len(ideal.gens)}")
    out.append(_print_rat("ord0", ideal.ord0(), dec))
    out.append(_print_rat("arn", ideal.arn(), dec))
    lct = ideal.lct()
    out.append("lct = infinite" if lct is None else _print_rat("lct", lct, dec))
    try:
        out.append(_print_rat("mult", ideal.multiplicity(), dec))
        out.append(f"colength = {ideal.colength()}")
    except NotCofinite:
        out.append("mult = infinite (not cofinite)")
        out.append("colength = infinite (not cofinite)")
    out.append(format_polyhedron(ideal.newton()).rstrip("\n"))
    print("\n".join(out))
    return 0


# -- system -----------------------------------------------------------------


def _parse_index(text: str, option: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise ParseError(f"{option} needs an index, a comma-separated list of integers, "
                         f"got {text!r}") from None


def cmd_system_eval(args) -> int:
    system = parse_system(args.path)
    ideal = system.eval(_parse_index(args.at, "--at"))
    sys.stdout.write(format_ideal(ideal))
    return 0


def cmd_system_invariants(args) -> int:
    system = parse_system(args.path)
    v = _parse_index(args.direction, "--direction")
    quantities = ("ord0", "arn", "mult") if args.quantity == "all" else (args.quantity,)
    rows = []
    lines = [f"direction: ({', '.join(str(x) for x in v)})"]
    failed = False
    for q in quantities:
        if args.method in ("sequence", "both"):
            try:
                bracket = sequence_invariant(
                    system, v, q, schedule=args.schedule, steps=args.max,
                    with_geometry=args.method == "both",
                )
            except NotCofinite:
                lines.append(f"{q} samples = unavailable (not cofinite)")
                continue
            lines.append(f"{q} samples ({args.schedule}):")
            for n, val in bracket.samples:
                lines.append(f"  n={n} value={fmt_q(val)} ({fmt_dec(val)})")
                rows.append((q, n, fmt_q(val), fmt_dec(val)))
            if args.method == "both":
                lines.append(_print_rat(f"{q} geometric", bracket.geometric, True))
                lines.append(f"{q} certified = {'yes' if bracket.certified else 'no'}")
                failed |= not bracket.certified
        else:
            body = system.restrict(v).limit_body()
            geo = geometric_invariant(body, q)
            if geo is None:
                lines.append(f"{q} geometric = unavailable (unbounded complement)")
            else:
                lines.append(_print_rat(f"{q} geometric", geo, True))
                rows.append((q, "geometric", fmt_q(geo), fmt_dec(geo)))
    print("\n".join(lines))
    if args.out:
        write_text_atomic(args.out, csv_text(("quantity", "n", "value", "decimal"), rows))
    return 1 if failed else 0


def _nef_hull_text(hull):
    """Label and vectors of a nef ray hull: none for the full space or the
    zero cone, its rays, or its facet normals when it contains a line."""
    if hull.fullspace:
        return "nef hull: full space", ()
    if not hull.pointed:
        return "nef hull: not pointed; facet normals:", hull.halfspaces
    if not hull.rays:
        return "nef hull: origin only", ()
    return "nef hull rays:", hull.rays


def cmd_system_cones(args) -> int:
    system = parse_system(args.path)
    nef, eff = nef_eff_points(system, args.radius)
    lines = [f"nef points ({len(nef)}):"]
    lines.extend("  " + " ".join(str(x) for x in v) for v in nef)
    lines.append(f"eff points ({len(eff)}):")
    lines.extend("  " + " ".join(str(x) for x in v) for v in eff)
    if nef:
        label, vecs = _nef_hull_text(ray_hull(nef, system.rank))
        lines.append(label)
        lines.extend("  " + " ".join(str(x) for x in r) for r in vecs)
    print("\n".join(lines))
    if args.out:
        rows = [("nef", *v) for v in nef] + [("eff", *v) for v in eff]
        header = ("cone", *(f"v{i + 1}" for i in range(system.rank)))
        write_text_atomic(args.out, csv_text(header, rows))
    return 0


def cmd_system_verify(args) -> int:
    try:
        lo, hi = map(int, args.window.split(":"))
    except ValueError:
        raise ParseError(f"--window needs lo:hi (--window=-2:2), got {args.window!r}") from None
    if not (2 * lo <= hi and lo <= 2 * hi):
        raise ParseError(f"--window {lo}:{hi} holds no v, w with v + w inside it: "
                         "it needs 2 lo <= hi and lo <= 2 hi")
    system = parse_system(args.path)
    report = verify_gradedness(system, [(lo, hi)] * system.rank)
    print(f"pairs checked: {report.pairs_checked}")
    print(f"violations: {len(report.violations)}")
    for v, w in report.violations:
        print(f"  {v} + {w}")
    return 0 if report.ok else 1


# -- repro ------------------------------------------------------------------


def _pass(lines, ok: bool, label: str) -> bool:
    lines.append(f"[{'PASS' if ok else 'FAIL'}] {label}")
    return ok


def _kink_lines(lines, rows, kinks, label) -> bool:
    """Add a line and a CSV row for each ((point, left, right), extra) of
    kinks, formatting each value once; a line starts with label(the point's
    text, extra).  True iff every slope gap is nonzero."""
    ok = True
    for (at, left, right), extra in kinks:
        gap = right - left
        ok &= gap != 0
        row = fmt_q(at), fmt_q(left), fmt_q(right), fmt_q(gap), fmt_dec(gap)
        rows.append(row)
        lines.append(f"{label(row[0], extra)}: left {row[1]}, right {row[2]}, gap {row[3]}")
    return ok


def _thm1_directions(rank: int, radius: int, count: int):
    window = [v for v in lattice_window([(-radius, radius)] * rank) if any(x != 0 for x in v)]
    step = max(1, len(window) // count)
    return window[::step][:count]


def _ceiling_sample(system: CeilingSystem, v, quantity: str, n: int) -> Fraction:
    """The schedule sample at n along v: a_(nv) = base^m with m =
    ceil(h(nv)) has m times the base's ord0 and arn and m^k times its mult,
    normalized by n and n^k."""
    m = math.ceil(system.deficiency(tuple(n * x for x in v)))
    base = system.base
    if quantity == "mult":
        return Fraction(m, n) ** base.dim * base.multiplicity()
    return Fraction(m, n) * getattr(base, quantity)()


def cmd_repro_thm1(args) -> int:
    if args.directions < 1:
        raise ParseError(f"--directions needs N >= 1, got {args.directions}")
    cone = load_cone(args.cone) if args.cone else abs_sum_cone()
    base = load_ideal(args.base) if args.base else MonomialIdeal.maximal(2)
    if base.is_zero or base.is_unit:
        raise ParseError(f"--base needs a nonzero proper ideal, got the "
                         f"{'zero' if base.is_zero else 'unit'} ideal")
    system = CeilingSystem(cone, base)
    cone_gens = cone.generators
    need = max((max(map(abs, g)) for g in cone_gens), default=1)
    if args.radius < need:
        raise ParseError(
            f"radius {args.radius} is too small for this cone: its extreme rays "
            f"and lineality vectors need radius {need}"
        )
    lines, rows = [], []
    ok = True

    nef = nef_points(system, args.radius)
    expected = [v for v in lattice_window([(-args.radius, args.radius)] * cone.rank)
                if cone.contains(v)]
    ok &= _pass(
        lines,
        nef == expected,
        f"nef lattice points within radius {args.radius} equal the cone's "
        f"({len(nef)} points)",
    )
    hull = ray_hull(nef, cone.rank)
    label, vecs = _nef_hull_text(hull)
    lines.append(f"{label} {'; '.join(' '.join(map(str, r)) for r in vecs)}".rstrip())
    # exact both ways: the hull holds every generator of the cone, and the
    # cone every generator of the hull
    equal = all(map(hull.contains, cone_gens)) and all(map(cone.contains, hull.generators))
    ok &= _pass(
        lines,
        equal,
        "ray hull of nef points equals the cone: each holds every generator of the other",
    )

    # a base of infinite colength has no mult off the cone: it is skipped
    cofinite = base.is_cofinite
    quantities = ("ord0", "arn", "mult") if cofinite else ("ord0", "arn")
    grid_ok = True
    directions = _thm1_directions(cone.rank, 2, args.directions)
    for v in directions:
        closed = ceiling_closed_forms(system, v)
        for q in quantities:
            bracket = sequence_invariant(system, v, q, steps=args.max)
            exact = all(val == _ceiling_sample(system, v, q, n) for n, val in bracket.samples)
            exact &= bracket.geometric == getattr(closed, q)
            grid_ok &= exact
        rows.append(
            (
                " ".join(map(str, v)),
                fmt_q(closed.ord0),
                fmt_q(closed.arn),
                fmt_q(closed.mult) if cofinite else "unavailable",
                fmt_dec(closed.ord0),
            )
        )
    ok &= _pass(
        lines,
        grid_ok,
        f"closed forms match every schedule sample exactly at {len(directions)} "
        "integral directions" + ("" if cofinite else "; mult = unavailable (not cofinite)"),
    )
    print("\n".join(lines))
    if args.out:
        write_text_atomic(
            args.out, csv_text(("direction", "ord0", "arn", "mult", "ord0_decimal"), rows)
        )
    return 0 if ok else 1


TRUNC_RADIUS = 8  # of the eff-point sweep that checks the truncated system
# Largest --kinks with --truncate, whose check builds a limit body of N + 1
# facets at each of N + 2 points: 5.7, 50 and 575 s at N = 512, 1024 and
# 2048 (Python 3.11.7, 2 shared vCPUs), so over an hour at 4096.
MAX_TRUNCATED_KINKS = 2048
# Largest --grid STEPS^2, the cells of the ord0 grid.  No cell keeps a row:
# with --out each row goes to the temp file as it is computed.  250,000
# cells (STEPS 500) take 7.7 s and 18 MB max RSS at N = 1 and 37 s and
# 68 MB at N = 2048, and with --out 9.6 s and 17 MB and 43 s and 67 MB; a
# cell takes about 2.6 ms at N = 16384, so 11 minutes (Python 3.11.7, 2
# shared vCPUs).
MAX_GRID_CELLS = 250_000


def _thm2_grid(n_kinks, r_range, s_range, steps, csv) -> bool:
    """True iff thm2_ord0 matches the crossing's closed form at each cell
    (r, s) of the steps x steps grid; each cell's row is printed to csv,
    if given.  Below s = r/2 the line misses the kinked boundary, so there
    is no crossing, and ord0 is r: rP's lowest point (r, 0) lies in sQ."""
    (rmin, rmax), (smin, smax) = r_range, s_range
    if csv:
        print("r", "s", "ord0", "ord0_decimal", "routes_agree", sep=",", file=csv)
    ok = True
    for i in range(steps):
        r = rmin + (rmax - rmin) * Fraction(i, steps - 1)
        for j in range(steps):
            s = smin + (smax - smin) * Fraction(j, steps - 1)
            vertex_route = thm2_ord0(r, s, n_kinks)
            crossing = thm2_crossing(r, s, n_kinks)
            agree = vertex_route == (r if crossing is None else crossing[1])
            ok &= agree
            if csv:
                print(fmt_q(r), fmt_q(s), fmt_q(vertex_route), fmt_dec(vertex_route),
                      "yes" if agree else "no", sep=",", file=csv)
    return ok


def cmd_repro_thm2(args) -> int:
    n_kinks = args.kinks
    r_fixed = parse_q(args.r)
    s_lo, s_hi = (parse_q(t) for t in args.scan)
    rmin, rmax, smin, smax = (parse_q(t) for t in args.grid[:4])
    try:
        steps = int(args.grid[4])
    except ValueError:
        raise ParseError(f"--grid needs an integer STEPS, got {args.grid[4]!r}") from None
    if n_kinks < 1:
        raise ParseError(f"--kinks needs N >= 1, got {n_kinks}")
    if args.truncate is not None and n_kinks > MAX_TRUNCATED_KINKS:
        raise WorkLimitExceeded(f"{n_kinks} kinks are over the limit of "
                                f"{MAX_TRUNCATED_KINKS} with --truncate")
    if r_fixed <= 0:
        raise ParseError(f"--r needs r > 0, got {fmt_q(r_fixed)}")
    if s_lo > s_hi:
        raise ParseError("--scan needs SMIN <= SMAX")
    if steps < 2 or not 0 < rmin < rmax or not 0 < smin < smax:
        raise ParseError("--grid needs 0 < rmin < rmax, 0 < smin < smax and steps >= 2")
    if steps * steps > MAX_GRID_CELLS:
        raise WorkLimitExceeded(f"a --grid of {steps}x{steps} = {steps * steps} cells is over "
                                f"the limit of {MAX_GRID_CELLS}")
    table, crossings = thm2_kink_table(r_fixed, n_kinks, s_lo, s_hi)
    if not crossings:
        raise ParseError(
            f"the scan window [{fmt_q(s_lo)}, {fmt_q(s_hi)}] holds no kink of ord0 at "
            f"r = {fmt_q(r_fixed)}"
        )
    lines, kink_rows = [], []
    # the grid's rows stream into a temp file, renamed over --out only after
    # every check has run
    with open_atomic(args.out) if args.out else nullcontext() as grid_csv:
        ok = _pass(
            lines,
            _thm2_grid(n_kinks, (rmin, rmax), (smin, smax), steps, grid_csv),
            f"ord0 grid ({steps}x{steps}): vertex route equals s + x/2 formula at every cell",
        )

        gaps_ok = _kink_lines(lines, kink_rows, zip(table.kinks(), crossings),
                              lambda s0, x0: f"kink at s0 = {s0} (crossing x = {fmt_q(x0)})")
        cells = len(crossings) + 1
        ok &= _pass(
            lines,
            gaps_ok and table.matches(lambda s: thm2_ord0(r_fixed, s, n_kinks)),
            f"kink table at r = {fmt_q(r_fixed)} over s in [{fmt_q(s_lo)}, {fmt_q(s_hi)}]: "
            f"{len(crossings)} kink(s), every gap nonzero, vertex route matches it at "
            f"{cells} cell midpoints and both ends",
        )

        system = kinked_intersection_system(n_kinks)
        nef = nef_points(system, args.radius)
        expected = list(lattice_window([(-args.radius, 0)] * 2))
        ok &= _pass(
            lines,
            nef == expected,
            f"nef points within radius {args.radius} are exactly the third quadrant",
        )

        if args.truncate is not None:
            eps = parse_q(args.truncate)
            cone = ConeRep.from_halfspaces(2, [(-eps.numerator, eps.denominator)])
            truncated = Truncate(system, cone)
            eff = eff_points(truncated, TRUNC_RADIUS)
            ok &= _pass(
                lines,
                all(cone.contains(v) for v in eff),
                f"truncated system: eff points within radius {TRUNC_RADIUS} "
                f"lie in s >= {fmt_q(eps)} r",
            )
            # the truncated system has no ideal below s = eps r: certify the part
            # of the first cell inside its cone (a kink outside it fails the check)
            inside = replace(table, cuts=(max(table.cuts[0], eps * r_fixed), *table.cuts[1:]))
            ok &= _pass(
                lines,
                inside.matches(lambda s: truncated.limit_body((r_fixed, s)).ord0()),
                f"truncation leaves the kink table unchanged: the truncated limit body "
                f"matches it at {cells} cell midpoints and both ends",
            )

        print("\n".join(lines))
    if args.kink_out:
        write_text_atomic(
            args.kink_out,
            csv_text(("s0", "left", "right", "gap", "gap_decimal"), kink_rows),
        )
    return 0 if ok else 1


def cmd_repro_appendix(args) -> int:
    if args.kinks < 1:
        raise ParseError(f"--kinks needs N >= 1, got {args.kinks}")
    boundary, body = appendix_boundary(args.kinks)
    lines, rows = [], []
    ok = True
    lines.append(f"gauge((1, 0)) = {fmt_q(body.gauge((1, 0)))}")
    lines.append(f"gauge((0, 1)) = {fmt_q(body.gauge((0, 1)))}")
    # read off the boundary alone, not the body or its gauge: a concave
    # boundary that does not rise from x = 0 reflects across both axes to a
    # symmetric convex body, whose gauge is a norm
    slopes = boundary.slopes
    ok &= _pass(
        lines,
        slopes[0] <= 0 and all(a > b for a, b in pairwise(slopes)),
        f"boundary concave, its {len(slopes)} slopes decreasing strictly from 0: "
        "the reflected body is convex and its gauge a norm",
    )

    table = appendix_kink_table(body)
    # listed by kink vertex, by increasing x: descending t
    gaps_ok = _kink_lines(lines, rows, ((kink, None) for kink in reversed(list(table.kinks()))),
                          lambda t0, _: f"kink ray t = {t0}")
    ok &= _pass(
        lines,
        gaps_ok and table.matches(lambda t: body.gauge((1, t))),
        f"{len(rows)} kink ray(s) with nonzero slope gaps; the gauge matches the "
        f"table at {len(rows) + 1} cell midpoints and both ends",
    )
    print("\n".join(lines))
    if args.out:
        write_text_atomic(
            args.out, csv_text(("t0", "left", "right", "gap", "gap_decimal"), rows)
        )
    return 0 if ok else 1


# -- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads every argument that starts with '-' and a digit as a value
    (``--scan -1/2 2``, ``--window -2:2``), not only argparse's plain
    numbers: no option here starts with '-' and a digit.  Subparsers are
    of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; every ``parse_args``
    call still returns a fresh namespace."""
    parser = _Parser(
        prog="multigraded",
        description="Exact invariants and cones of multigraded systems of monomial ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ideal = sub.add_parser("ideal", help="single-ideal commands")
    ideal_sub = p_ideal.add_subparsers(dest="subcommand", required=True)
    p_info = ideal_sub.add_parser("info", help="invariants and Newton polyhedron")
    p_info.add_argument("path")
    p_info.add_argument("--decimals", action="store_true", help="echo decimal values")
    p_info.set_defaults(func=cmd_ideal_info)

    p_system = sub.add_parser("system", help="graded-system commands")
    system_sub = p_system.add_subparsers(dest="subcommand", required=True)

    p_eval = system_sub.add_parser("eval", help="evaluate at an index vector")
    p_eval.add_argument("path")
    p_eval.add_argument("--at", required=True, help="index vector, e.g. '2,1'")
    p_eval.set_defaults(func=cmd_system_eval)

    p_inv = system_sub.add_parser("invariants", help="asymptotic invariants along a direction")
    p_inv.add_argument("path")
    p_inv.add_argument("--direction", required=True)
    p_inv.add_argument("--quantity", choices=("ord0", "arn", "mult", "all"), default="all")
    p_inv.add_argument("--method", choices=("sequence", "geometric", "both"), default="both")
    p_inv.add_argument("--schedule", choices=("factorial", "doubling"), default="factorial")
    p_inv.add_argument("--max", type=int, default=None, help="schedule length")
    p_inv.add_argument("--out", default=None, help="CSV output path")
    p_inv.set_defaults(func=cmd_system_invariants)

    p_cones = system_sub.add_parser("cones", help="nef/effective lattice points")
    p_cones.add_argument("path")
    p_cones.add_argument("--radius", type=int, required=True)
    p_cones.add_argument("--out", default=None)
    p_cones.set_defaults(func=cmd_system_cones)

    p_verify = system_sub.add_parser("verify", help="gradedness over a window")
    p_verify.add_argument("path")
    p_verify.add_argument("--window", default="-2:2", help="per-coordinate range lo:hi")
    p_verify.set_defaults(func=cmd_system_verify)

    p_repro = sub.add_parser("repro", help="reproduce the pathological constructions")
    repro_sub = p_repro.add_subparsers(dest="subcommand", required=True)

    p_t1 = repro_sub.add_parser("thm1", help="arbitrary cones as nef cones")
    p_t1.add_argument("--cone", default=None, help="cone file (default |x1|+|x2| epigraph)")
    p_t1.add_argument("--base", default=None, help="base ideal file (default maximal, k=2)")
    p_t1.add_argument("--radius", type=int, default=4)
    p_t1.add_argument("--directions", type=int, default=20)
    p_t1.add_argument("--max", type=int, default=4, help="factorial schedule length")
    p_t1.add_argument("--out", default=None)
    p_t1.set_defaults(func=cmd_repro_thm1)

    p_t2 = repro_sub.add_parser("thm2", help="non-differentiable ord0")
    p_t2.add_argument("--kinks", type=int, default=1)
    p_t2.add_argument("--r", default="1", help="fixed r > 0 for the kink table")
    p_t2.add_argument(
        "--grid", nargs=5, default=("3/4", "3/2", "3/4", "3/2", "13"),
        metavar=("RMIN", "RMAX", "SMIN", "SMAX", "STEPS"),
    )
    p_t2.add_argument("--scan", nargs=2, default=("3/4", "2"), metavar=("SMIN", "SMAX"))
    p_t2.add_argument("--radius", type=int, default=6)
    p_t2.add_argument("--truncate", default=None, metavar="EPS",
                      help="also verify truncation by s >= EPS * r")
    p_t2.add_argument("--out", default=None)
    p_t2.add_argument("--kink-out", default=None)
    p_t2.set_defaults(func=cmd_repro_thm2)

    p_ap = repro_sub.add_parser("appendix", help="nowhere-differentiable gauge")
    p_ap.add_argument("--kinks", type=int, default=1)
    p_ap.add_argument("--out", default=None)
    p_ap.set_defaults(func=cmd_repro_appendix)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MonotonicityError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit cannot raise again (a redirected stdout has no descriptor)
        with suppress(AttributeError, OSError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 141
    except (MultigradedError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
