#!/usr/bin/env python3
"""Steadiness mode: run the same build repeatedly and report noise.

Runs the command in BENCHMARK.json on each workload with consecutive
seeds and prints, for every (workload, end-to-end metric), the median,
the quartiles (statistics.quantiles(values, n=4)) and the quartile
spread (q3 - q1) / median against the metric's bound. A spread under a
third of the bound is "steady", under the bound "noisy", else "FAILS";
setup_s is held to the same rule. With --sets 2 it repeats the whole
set (fresh seeds) and marks every metric whose median moved from the
first set by more than its bound, in either direction ("DRIFT").

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --workload scan-heavy
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--out", default=".perfbench/steady.json")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]

    results = {}  # (set, workload) -> {metric: [values]}
    problems = 0
    for s in range(args.sets):
        for workload in workloads:
            values = {m["name"]: [] for m in metrics}
            for r in range(args.runs):
                seed = args.seed + s * args.runs + r
                result, wall = run_once(bench["command"], workload, seed, seconds)
                flags = []
                if not result["correct"]:
                    flags.append("INCORRECT")
                    problems += 1
                if result["failed"]:
                    flags.append(f"failed={result['failed']}")
                print(f"set {s} {workload} seed {seed}: {wall:.1f}s wall "
                      f"attempted={result['attempted']} {' '.join(flags)}", flush=True)
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
            results[(s, workload)] = values

    summary = []
    print()
    print(f"{'set':>3} {'workload':<14} {'metric':<24} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for (s, workload), values in results.items():
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "noisy"
            else:
                verdict = "FAILS"
                problems += 1
            if s > 0:
                drift = worse_by(m, statistics.median(results[(0, workload)][m["name"]]), med)
                if abs(drift) > bound:
                    verdict += f" DRIFT {drift:+.3f}"
                    problems += 1
                else:
                    verdict += f" drift {drift:+.3f}"
            print(f"{s:>3} {workload:<14} {m['name']:<24} {med:>12.5g} {q1:>12.5g} "
                  f"{q3:>12.5g} {spread:>8.4f} {bound:>6}  {verdict}")
            summary.append({"set": s, "workload": workload, "metric": m["name"],
                            "median": med, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bound, "values": vals})
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"\n{problems} problem(s); values written to {args.out}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
