"""Span tracing of the library from outside, and per-layer metrics from the spans.

Wrappers replace the library's public functions and methods in every
namespace that holds them (``from .x import y`` binds the name in the
importing module, so patching only the defining module would miss calls).
Each wrapped call records one span: name, start, end, parent span and a
small integer or flag describing the call's size.  Spans stay in memory
and are written out once, at the end of the traced pass.

A span's self time is its duration minus the time covered by its child
spans.  Only the innermost wrapped layer is charged for a stretch of
time, so the self times of one query add up to the query's span.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

# (module, qualified name, span name, size probe).  The probe maps the call's
# arguments and result to an integer recorded with the span, or None.
_TARGETS = (
    ("cli", "main", "cli.main", None),
    ("textio", "parse_ideal", "textio.parse", None),
    ("textio", "parse_region", "textio.parse", None),
    ("textio", "parse_cone", "textio.parse", None),
    ("textio", "parse_system", "textio.parse", None),
    ("textio", "load_ideal", "textio.parse", None),
    ("textio", "load_region", "textio.parse", None),
    ("textio", "load_cone", "textio.parse", None),
    ("textio", "format_ideal", "textio.format", None),
    ("textio", "format_polyhedron", "textio.format", None),
    ("textio", "csv_text", "textio.format", None),
    ("textio", "fmt_q", "textio.format", None),
    ("textio", "fmt_dec", "textio.format", None),
    ("invariants", "thm2_ord0", "invariants.thm2_ord0", None),
    ("invariants", "diff_quotient_scan", "invariants.diff_quotient_scan", None),
    ("invariants", "sequence_invariant", "invariants.sequence_invariant", None),
    ("invariants", "geometric_invariants", "invariants.geometric_invariants", None),
    ("systems", "verify_gradedness", "systems.verify_gradedness", None),
    ("cones", "nef_points", "cones.nef_points", None),
    ("cones", "eff_points", "cones.eff_points", None),
    ("cones", "ray_hull", "cones.ray_hull", None),
    ("regions", "region_intersect", "regions.region_intersect", None),
    ("regions", "region_minkowski", "regions.region_minkowski", None),
    ("regions", "build_kinked_f", "regions.build_kinked_f", lambda a, k, r: a[0]),
    ("regions", "lattice_generators", "regions.lattice_generators",
     lambda a, k, r: len(r.gens)),
    ("newton", "vertices_from_halfspaces", "newton.vertices_from_halfspaces",
     lambda a, k, r: len(a[1])),
    ("newton", "newton_polyhedron", "newton.newton_polyhedron",
     lambda a, k, r: hash((a[0].dim, a[0].gens))),
    ("newton", "from_vertices", "newton.from_vertices", None),
    ("newton", "orthant_hull_3d", "newton.orthant_hull_3d", None),
    ("newton", "NewtonPolyhedron.covolume", "newton.covolume", None),
    ("monomial", "minimalize", "monomial.minimalize",
     lambda a, k, r: (len(a[0]), len(r.gens))),
    ("monomial", "MonomialIdeal.product", "monomial.product", None),
    ("monomial", "MonomialIdeal.power", "monomial.power", None),
    ("monomial", "MonomialIdeal.intersect", "monomial.intersect", None),
    ("monomial", "MonomialIdeal.colon", "monomial.colon", None),
    ("monomial", "MonomialIdeal.colength", "monomial.colength", None),
)

QUERY = "query"


class Tracer:
    """In-memory span store.  Spans are tuples
    (name, start, end, parent index or -1, probe value), indexed by the
    order in which they were entered."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.eval_missed: set[int] = set()

    def span(self, name, fn, probe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if probe is not None:
                spans[idx] = (name, start, end, parent, probe(args, kwargs, result))
            return result

        return wrapper

    def miss_marker(self, fn):
        """Wraps ``_eval``: the enclosing ``eval`` span (same node) is a miss."""
        stack, missed = self.stack, self.eval_missed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                missed.add(stack[-1])
            return fn(*args, **kwargs)

        return wrapper

    def run_query(self, label, fn):
        return self.span(QUERY, fn, lambda a, k, r: label)()

    # -- installation -------------------------------------------------------

    def install(self, package):
        """Wrap every target in every loaded module of ``package``."""
        mods = {n: m for n, m in sys.modules.items()
                if n == package or n.startswith(package + ".")}
        for mod_name, qual, span_name, probe in _TARGETS:
            owner = mods[f"{package}.{mod_name}"]
            for part in qual.split(".")[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[qual.split(".")[-1]]
            _replace_everywhere(mods, package, original, self.span(span_name, original, probe))
        systems = mods[f"{package}.systems"]
        base = systems.SystemExpr
        _replace_everywhere(mods, package, base.__dict__["eval"],
                            self.span("systems.eval", base.__dict__["eval"]))
        for cls in _classes(mods, package):
            if issubclass(cls, base) or cls is systems.DirectionView:
                if "limit_body" in cls.__dict__:
                    lb = cls.__dict__["limit_body"]
                    setattr(cls, "limit_body", self.span("systems.limit_body", lb))
            if issubclass(cls, base) and cls is not base and "_eval" in cls.__dict__:
                setattr(cls, "_eval", self.miss_marker(cls.__dict__["_eval"]))

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        """One tab-separated line per span: id, parent, name, start, end, probe."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tprobe\n")
            for i, (name, start, end, parent, probe) in enumerate(self.spans):
                if isinstance(probe, tuple):
                    probe = ",".join(map(str, probe))
                fh.write(f"{i}\t{parent}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t"
                         f"{'' if probe is None else probe}\n")


def _classes(mods, package):
    found = []
    for m in mods.values():
        for obj in vars(m).values():
            if isinstance(obj, type) and obj.__module__.startswith(package) \
                    and obj not in found:
                found.append(obj)
    return found


def _replace_everywhere(mods, package, original, wrapper):
    """Rebind ``original`` to ``wrapper`` in every module and class namespace
    that holds it, aliases such as ``__mul__ = product`` included."""
    for m in mods.values():
        for name, obj in list(vars(m).items()):
            if obj is original:
                setattr(m, name, wrapper)
    for cls in _classes(mods, package):
        for name, obj in list(cls.__dict__.items()):
            if obj is original:
                setattr(cls, name, wrapper)


# -- self time and per-layer metrics -------------------------------------------


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out.append((end - start) - covered)
    return out


LAYER_METRICS = (
    "newton.vertices_from_halfspaces.calls",
    "newton.vertices_from_halfspaces.self_s",
    "newton.vertices_from_halfspaces.constraints",
    "regions.region_intersect.calls",
    "regions.region_intersect.self_s",
    "regions.build_kinked_f.calls",
    "regions.build_kinked_f.repeat_frac",
    "invariants.thm2_ord0.calls",
    "invariants.thm2_ord0.self_s",
    "invariants.diff_quotient_scan.self_s",
    "newton.newton_polyhedron.calls",
    "newton.newton_polyhedron.self_s",
    "newton.newton_polyhedron.repeat_frac",
    "newton.orthant_hull_3d.calls",
    "newton.orthant_hull_3d.self_s",
    "newton.from_vertices.self_s",
    "newton.covolume.self_s",
    "regions.region_minkowski.self_s",
    "monomial.minimalize.calls",
    "monomial.minimalize.self_s",
    "monomial.minimalize.in_vecs",
    "monomial.minimalize.keep_frac",
    "monomial.product.self_s",
    "monomial.power.self_s",
    "monomial.intersect.self_s",
    "monomial.colon.self_s",
    "monomial.colength.self_s",
    "systems.eval.calls",
    "systems.eval.self_s",
    "systems.eval.hit_frac",
    "systems.limit_body.self_s",
    "systems.verify_gradedness.self_s",
    "cones.nef_points.self_s",
    "cones.eff_points.self_s",
    "cones.ray_hull.self_s",
    "regions.lattice_generators.calls",
    "regions.lattice_generators.self_s",
    "regions.lattice_generators.out_gens",
    "textio.parse.self_s",
    "textio.format.self_s",
    "cli.main.self_s",
    "invariants.sequence_invariant.self_s",
    "invariants.geometric_invariants.self_s",
    "query.self_s",
    "trace.spans",
    "trace.overhead_frac",
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_frac") else "count"


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, float]:
    """Every LAYER_METRICS entry except trace.overhead_frac, from one traced
    pass; self times are multiplied by scale (reference over wall seconds)."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, *_), st in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st * scale

    def probes(name):
        return [s[4] for s in spans if s[0] == name]

    def repeat_frac(values):
        seen, repeats = set(), 0
        for v in values:
            repeats += v in seen
            seen.add(v)
        return repeats / len(values) if values else 0.0

    mini = probes("monomial.minimalize")
    in_vecs = sum(p[0] for p in mini)
    evals = [i for i, s in enumerate(spans) if s[0] == "systems.eval"]
    hits = sum(1 for i in evals if i not in tracer.eval_missed)
    derived = {
        "newton.vertices_from_halfspaces.constraints":
            sum(probes("newton.vertices_from_halfspaces")),
        "regions.build_kinked_f.repeat_frac": repeat_frac(probes("regions.build_kinked_f")),
        "newton.newton_polyhedron.repeat_frac":
            repeat_frac(probes("newton.newton_polyhedron")),
        "monomial.minimalize.in_vecs": in_vecs,
        "monomial.minimalize.keep_frac":
            sum(p[1] for p in mini) / in_vecs if in_vecs else 0.0,
        "systems.eval.hit_frac": hits / len(evals) if evals else 0.0,
        "regions.lattice_generators.out_gens": sum(probes("regions.lattice_generators")),
        "trace.spans": len(spans),
    }
    out = {}
    for metric in LAYER_METRICS:
        if metric in derived:
            out[metric] = derived[metric]
        elif metric.endswith(".calls"):
            out[metric] = calls.get(metric[: -len(".calls")], 0)
        elif metric.endswith(".self_s"):
            out[metric] = self_s.get(metric[: -len(".self_s")], 0.0)
    return out
