#!/usr/bin/env python3
"""Check that the benchmark repeats: run sets of seeds and compare.

Usage (from the repository root):

    python3 perfbench/steady.py                 # 2 sets x 10 seeds, every workload
    python3 perfbench/steady.py --sets 1 --seeds 5 --workloads detailed_steady

For every workload and set, runs `perfbench/run.py` once per seed and,
for each end-to-end metric of BENCHMARK.json, prints the spread of the
values (first-to-third quartile distance over the median, quartiles as
`statistics.quantiles(values, n=4)` gives them) against the metric's
bound, and, from the second set on, how far the median moved from the
first set's. It also checks that the share of failed operations is the
same in every run, and prints every run's value. Exits 1 if a spread or
a median shift exceeds its bound, or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(lines[-1])


def worse(metric, first, second):
    """Relative change of the median in the metric's bad direction."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    ok = True
    for workload in args.workloads:
        medians = {}
        shares = set()
        for s in range(args.sets):
            seeds = range(1000 * (s + 1), 1000 * (s + 1) + args.seeds)
            results = [run_once(workload, seed, args.seconds) for seed in seeds]
            for r in results:
                ok &= r["correct"]
                shares.add((r["failed"], r["attempted"]) if r["failed"] else 0)
            print(f"{workload} set {s + 1} (seeds {seeds.start}..{seeds.stop - 1}):")
            for metric in bench["end_to_end"]:
                name = metric["name"]
                vals = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                line = f"  {name:<16} median {med:<14.6g} spread {spread:7.2%} bound {metric['bound']:.0%}"
                if spread > metric["bound"]:
                    ok = False
                    line += "  SPREAD OVER BOUND"
                elif spread > metric["bound"] / 3:
                    line += "  (over a third of the bound)"
                if name in medians:
                    shift = worse(metric, medians[name], med)
                    line += f"  median worse by {shift:+.2%}"
                    if shift > metric["bound"]:
                        ok = False
                        line += "  SHIFT OVER BOUND"
                else:
                    medians[name] = med
                print(line)
                print("    values: " + " ".join(f"{v:.6g}" for v in vals))
        if len({x if x == 0 else x[0] / x[1] for x in shares}) > 1:
            ok = False
            print(f"  failed share differs between runs: {sorted(shares, key=str)}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
