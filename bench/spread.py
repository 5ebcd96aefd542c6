#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's median and spread.

    python3 bench/spread.py --workload dense_scale --seeds 1-10 --seconds 20

The spread is the distance between the first and third quartile of the
per-seed values, as a share of their median.  Runs are sequential, one
process each, so every run has the machine to itself.  With --json the
last line is the summary as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run_bench.py")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0,
            "values": values,
        }
    return summary


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                   help="inclusive range such as 1-10 (at least two seeds)")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", action="store_true")
    args = p.parse_args()
    if len(args.seeds) < 2:
        p.error("need at least two seeds")

    results = []
    for seed in args.seeds:
        cmd = [sys.executable, RUN_BENCH, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}", flush=True)

    summary = summarize(results)
    for name, s in summary.items():
        print(f"{name:45s} median {s['median']:.6g} {s['unit']}"
              f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.2%}")
    if args.json:
        print(json.dumps({
            "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summary,
        }))


if __name__ == "__main__":
    main()
