"""Benchmark of the multigraded engine: one workload per process, closed loop.

    python3 perfbench/run.py --workload thm2_kinks --seed 1 --seconds 30 --trace 0

One client issues one query at a time, with no threads.  Set-up (import
the package, generate the seeded inputs, write the input files, build the
queries) is repeated SETUP_REPEATS times and its median reported.  The
timed loop then runs whole passes over the query list while the time
allows.  run_s, the batch's time to solution, sums each query's median
latency over the passes; the percentiles are taken over those medians.
Times are in reference seconds (see RefClock).  Every query of the
first pass is checked against an independent route after the loop; later
passes must reproduce its output byte for byte.

With ``--trace 1`` the loop runs untraced passes for half the time, then
one pass with every layer wrapped (see spans.py), and reports per-layer
metrics instead of end-to-end ones.  The span file goes to
perfbench/out/spans-<workload>-<seed>.tsv.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected_sha256.json"
PACKAGE = "multigraded"
LAYERS = ("cli", "textio", "invariants", "systems", "cones", "regions", "newton", "monomial")
SETUP_REPEATS = 7


class SetupError(RuntimeError):
    pass


# -- reference time ---------------------------------------------------------------
#
# Shared machines change speed by up to 2x over tens of seconds (other
# tenants), for the library and for a fixed pure-Python loop alike.
# Every timing is therefore also reported in reference seconds: wall time
# times CAL_REF / (the calibration kernel's time measured just before).  The
# kernel is fixed code that never calls the library, so no change to the
# library can move it; it runs with the garbage collector off so that the
# library's heap cannot slow it either.

CAL_REF = 1.55e-3        # kernel time, s, on the baseline machine (2 vCPUs at 2.1 GHz, Python 3.11.7)
CAL_INTERVAL = 0.1       # recalibrate when the last calibration is older, s


def calibration_kernel():
    table = {}
    for i in range(1, 600):
        q = Fraction(i % 17, i) + Fraction(1, i % 7 + 1)
        table[(i, 2 * i, q.denominator % 5)] = [q]
    return sorted(table)[-1]


class RefClock:
    """Converts wall seconds to reference seconds."""

    def __init__(self):
        self.factor = 1.0
        self.stamp = -math.inf

    def calibrate(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self.stamp < CAL_INTERVAL:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                calibration_kernel()
                best = min(best, time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.factor = CAL_REF / best
        self.stamp = time.perf_counter()


def fresh_import():
    """Import the package from this checkout's src/, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise SetupError(f"{PACKAGE} imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS})


def setup_import_path():
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int, workdir: Path, clock: RefClock):
    """SETUP_REPEATS full set-ups; returns (median reference seconds, median
    wall seconds, the last query list)."""
    setup_import_path()
    times = []
    for _ in range(SETUP_REPEATS):
        clock.calibrate(force=True)
        start = time.perf_counter()
        mg = fresh_import()
        queries = workloads.build(workload, seed, mg, workdir)
        wall = time.perf_counter() - start
        times.append((wall * clock.factor, wall))
    return statistics.median(t[0] for t in times), statistics.median(t[1] for t in times), queries


def run_pass(queries, clock: RefClock, tracer=None):
    """One closed-loop pass: (wall seconds, per-query reference seconds,
    per-query wall seconds, results, errors)."""
    latencies, walls, results, errors = [], [], [], []
    start = time.perf_counter()
    for q in queries:
        clock.calibrate()
        t0 = time.perf_counter()
        try:
            result = q.run() if tracer is None else tracer.run_query(q.label, q.run)
            error = None
        except Exception as exc:  # a failing query is counted, never fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        walls.append(wall)
        latencies.append(wall * clock.factor)
        results.append(result)
        errors.append(error)
    return SimpleNamespace(wall=time.perf_counter() - start, latencies=latencies,
                           walls=walls, results=results, errors=errors)


def render(queries, results, errors) -> list[str]:
    return [f"{q.label}\t{q.render(r) if e is None else 'error ' + e}"
            for q, r, e in zip(queries, results, errors)]


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\x1e")
    return h.hexdigest()


def check_pass(queries, results, errors) -> list[str | None]:
    """Per query, None when correct, else why it failed."""
    out = []
    for q, r, e in zip(queries, results, errors):
        if e is not None:
            out.append(e)
            continue
        try:
            out.append(q.check(r))
        except Exception as exc:  # a malformed answer fails its check
            out.append(f"check raised {type(exc).__name__}: {exc}")
    return out


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def expected_digest(workload: str, seed: int) -> str | None:
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed))


def measure(workload, seed, seconds, traced):
    workdir = OUT / f"work-{os.getpid()}"
    clock = RefClock()
    try:
        setup_s, setup_wall, queries = setup(workload, seed, workdir, clock)
        budget = seconds / 2 if traced else seconds
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(queries, clock))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1].wall > budget:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # checks run before any layer is wrapped, so they leave no spans
        reasons = check_pass(queries, passes[0].results, passes[0].errors)
        tracer = None
        if traced:
            tracer = spans.Tracer()
            tracer.install(PACKAGE)
            passes.append(run_pass(queries, clock, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = [digest(render(queries, p.results, p.errors)) for p in passes]
    stored = expected_digest(workload, seed)
    failed = 0
    for d in digests:
        if d != digests[0] or (stored is not None and d != stored):
            failed += len(queries)
        else:
            failed += sum(1 for r in reasons if r is not None)
    untraced = passes[:-1] if traced else passes
    # Each query's time is its median over the untraced passes.
    latencies = [statistics.median(ts) for ts in zip(*(p.latencies for p in untraced))]
    walls = [statistics.median(ts) for ts in zip(*(p.walls for p in untraced))]
    return SimpleNamespace(
        queries=queries, reasons=reasons, passes=passes, untraced=untraced,
        digests=digests, stored=stored, failed=failed,
        attempted=len(queries) * len(passes), setup_s=setup_s, setup_wall=setup_wall,
        latencies=latencies, walls=walls, peak_rss_mb=peak_rss_mb, tracer=tracer,
    )


def report(workload, seed, m, traced):
    """Human-readable lines, then the metrics dict for the JSON line."""
    n = len(m.latencies)
    run_s, p50, p95 = sum(m.latencies), percentile(m.latencies, 0.50), percentile(m.latencies, 0.95)
    w50, w95 = percentile(m.walls, 0.50), percentile(m.walls, 0.95)
    beyond = sum(1 for t in m.latencies if t > p95)
    lines = [
        f"workload {workload} seed {seed}: {len(m.queries)} queries x {len(m.passes)} passes"
        f"{' (last traced)' if traced else ''}; times in reference seconds (wall in brackets)",
        f"  output_sha256 {m.digests[0]}"
        + ("" if m.stored is None else
           " (matches stored)" if m.digests[0] == m.stored else f" (STORED {m.stored})"),
        f"  setup_s       {m.setup_s:.6f} s   [{m.setup_wall:.6f}]  median of {SETUP_REPEATS}",
        f"  run_s         {run_s:.6f} s   [{sum(m.walls):.6f}]  sum of per-query medians"
        f" over {len(m.untraced)} passes",
        f"  query_p50_ms  {p50 * 1e3:.4f} ms  [{w50 * 1e3:.4f}]  {n} queries",
        f"  query_p95_ms  {p95 * 1e3:.4f} ms  [{w95 * 1e3:.4f}]  {n} queries, {beyond} beyond",
        f"  fail_frac     {m.failed / m.attempted:.6f}     {m.failed} of {m.attempted} failed",
        f"  peak_rss_mb   {m.peak_rss_mb:.3f} MB",
    ]
    for q, reason in zip(m.queries, m.reasons):
        if reason is not None:
            lines.append(f"  FAILED {q.label}: {reason}")
    if not traced:
        metrics = {
            "setup_s": (m.setup_s, "s"),
            "run_s": (run_s, "s"),
            "query_p50_ms": (p50 * 1e3, "ms"),
            "query_p95_ms": (p95 * 1e3, "ms"),
            "peak_rss_mb": (m.peak_rss_mb, "MB"),
        }
        return lines, metrics
    traced_s = sum(m.passes[-1].latencies)
    values = spans.layer_metrics(m.tracer, traced_s / m.passes[-1].wall)
    untraced_s = statistics.median(sum(p.latencies) for p in m.untraced)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    span_file = OUT / f"spans-{workload}-{seed}.tsv"
    m.tracer.write(span_file)
    lines.append(f"  per-layer metrics of the traced pass ({span_file.relative_to(ROOT)}):")
    metrics = {}
    for name in spans.LAYER_METRICS:
        unit = spans.unit(name)
        metrics[name] = (values[name], unit)
        lines.append(f"    {name:<48} {values[name]:.6g} {unit}")
    return lines, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    try:
        m = measure(args.workload, args.seed, args.seconds, traced)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    lines, metrics = report(args.workload, args.seed, m, traced)
    print("\n".join(lines))
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
