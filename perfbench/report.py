"""Run every workload, untraced and traced, each in a fresh process, and print
one table of the end-to-end metrics and one of the per-layer metrics.

    python3 perfbench/report.py --seed 1 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} (trace {trace}) exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    plain, traced = {}, {}
    for w in WORKLOADS:
        text, plain[w] = run_one(w, args.seed, args.seconds, 0)
        print("\n".join(line for line in text if not line.startswith("    ")))
        traced[w] = run_one(w, args.seed, args.seconds, 1)[1]

    def table(title, results, extra=()):
        names = list(next(iter(results.values()))["metrics"])
        print(f"\n{title:<54}" + "".join(f"{w:>20}" for w in WORKLOADS))
        for name, unit, values in extra:
            print(f"{name:<46}{unit:>8}" + "".join(f"{v:>20}" for v in values))
        for name in names:
            unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
            print(f"{name:<46}{unit:>8}"
                  + "".join(f"{results[w]['metrics'][name]['value']:>20.6g}" for w in WORKLOADS))

    fail = [("fail_frac", "ratio",
             [f"{r['failed'] / r['attempted']:.6g}" for r in plain.values()]),
            ("queries attempted", "count", [str(r["attempted"]) for r in plain.values()])]
    table("end to end (untraced)", plain, fail)
    table("per layer (traced pass)", traced)
    bad = [w for w in WORKLOADS if plain[w]["failed"] or traced[w]["failed"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
