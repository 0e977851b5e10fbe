"""Self-tests of the benchmark: input determinism, span arithmetic, tracer
installation, and a clean short run of every workload.

    python3 -m pytest perfbench        (or: python3 -m unittest discover -s perfbench)
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class TestInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(workloads.inputs(w, 7), workloads.inputs(w, 7))

    def test_different_seed_different_inputs(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(workloads.inputs(w, 7), workloads.inputs(w, 8))

    def test_seed_keeps_the_query_mix(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                kinds = [sorted(s[0] for s in workloads.inputs(w, seed)[0]) for seed in (1, 2)]
                self.assertEqual(kinds[0], kinds[1])
                self.assertGreaterEqual(len(kinds[0]), 200)


class TestSelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # A [0, 10] has children B [1, 4], C [3, 6] (overlapping B) and D [8, 12]
        # (running past A's end); E [2, 3] is B's child.
        tree = [
            ("A", 0.0, 10.0, -1, None),
            ("B", 1.0, 4.0, 0, None),
            ("E", 2.0, 3.0, 1, None),
            ("C", 3.0, 6.0, 0, None),
            ("D", 8.0, 12.0, 0, None),
        ]
        self.assertEqual(spans.self_times(tree), [3.0, 2.0, 1.0, 3.0, 4.0])

    def test_tracer_nesting_and_metrics(self):
        tracer = spans.Tracer()

        def inner():
            return 1

        wrapped_inner = tracer.span("monomial.product", inner)
        outer = tracer.span("monomial.power", lambda: wrapped_inner() + wrapped_inner())
        self.assertEqual(tracer.run_query("q", outer), 2)
        names = [s[0] for s in tracer.spans]
        parents = [s[3] for s in tracer.spans]
        self.assertEqual(names, ["query", "monomial.power", "monomial.product",
                                 "monomial.product"])
        self.assertEqual(parents, [-1, 0, 1, 1])
        selfs = spans.self_times(tracer.spans)
        total = tracer.spans[0][2] - tracer.spans[0][1]
        self.assertAlmostEqual(sum(selfs), total, places=9)
        metrics = spans.layer_metrics(tracer)
        self.assertEqual(metrics["trace.spans"], 4)


class TestInstall(unittest.TestCase):
    def test_every_namespace_and_alias_is_wrapped(self):
        run.setup_import_path()
        mg = run.fresh_import()
        spans.Tracer().install(run.PACKAGE)
        ideal = mg.monomial.MonomialIdeal
        for holder in (mg.monomial, mg.regions, mg.textio):
            self.assertTrue(hasattr(holder.minimalize, "__wrapped__"), holder.__name__)
        self.assertIs(ideal.__dict__["__mul__"], ideal.__dict__["product"])
        self.assertTrue(hasattr(ideal.product, "__wrapped__"))
        self.assertTrue(hasattr(mg.invariants.region_intersect, "__wrapped__"))
        self.assertTrue(hasattr(mg.systems.Intersect.limit_body, "__wrapped__"))
        run.fresh_import()  # leave an unwrapped copy for other tests


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


class TestWorkloads(unittest.TestCase):
    """Every workload is clean at this commit, traced and untraced alike."""

    def test_traced_runs_are_clean(self):
        names = [m["name"] for m in CONTRACT["per_layer"]]
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                text, result = bench(w, 1)
                # the traced pass must reproduce the untraced output digest,
                # or all of its queries count as failed
                self.assertEqual(result["failed"], 0, text)
                self.assertTrue(result["correct"])
                self.assertEqual(sorted(result["metrics"]), sorted(names))

    def test_untraced_run_reports_end_to_end_metrics(self):
        text, result = bench("thm2_kinks", 0)
        self.assertEqual(result["failed"], 0, text)
        self.assertIn("fail_frac     0.000000", text)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in CONTRACT["end_to_end"]))
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)


if __name__ == "__main__":
    unittest.main()
