"""Steadiness of the benchmark: run it k times per workload, each time
with another seed, and print the median, the quartiles and the spread
(interquartile distance over median) of every metric.

    python3 perfbench/steady.py [--runs 10] [--seconds 20] [--first-seed 1]
                                [workload ...]

Run from the root of a checkout.  The bounds in BENCHMARK.json are set
from this output: each end-to-end spread has to stay well inside its
bound.  The raw results go to perfbench/results/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workload", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)

    record = {}
    for workload in args.workload:
        results = []
        for k in range(args.runs):
            results.append(run_once(workload, args.first_seed + k, args.seconds))
            print(f"{workload} seed {args.first_seed + k}: "
                  + " ".join(f"{n}={m['value']:.5g}" for n, m in results[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        summary = summarize(results)
        shares = {r["failed"] / r["attempted"] for r in results}
        record[workload] = {"runs": results, "summary": summary,
                            "correct": all(r["correct"] for r in results),
                            "failed_shares": sorted(shares)}
        print(f"\n{workload}: correct {record[workload]['correct']}, "
              f"failed/attempted {sorted(shares)}")
        for name, s in summary.items():
            print(f"  {name:40s} median {s['median']:12.5g} {s['unit']:6s} "
                  f"q1 {s['q1']:12.5g} q3 {s['q3']:12.5g} spread {s['spread']:.3f}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"\nwritten to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
