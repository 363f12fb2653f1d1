#!/usr/bin/env python3
"""Steadiness mode: repeat each workload with different seeds and print the
median and interquartile spread of every end-to-end metric.

    python3 perfbench/steady.py                       # every workload, 10 seeds
    python3 perfbench/steady.py --workloads dag_random --runs 5
    python3 perfbench/steady.py --sets 2              # two sets, compare medians

Seeds run from 1 upwards, one per run, and every run measures for
BENCHMARK.json's run_seconds.  Spread is (Q3 - Q1) / median over the
runs of one set, with the quartiles of Python's
statistics.quantiles(values, n=4).  Each spread is checked against the
metric's bound in BENCHMARK.json, and with --sets 2 or more, each later
set's median against the first set's: it may be worse by at most the
bound.  This is how the bounds were chosen: every
spread should sit below a third of its bound.  Exits 1 when a run fails or
a check does not hold.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result["correct"] and result["failed"] == 0 else None


def worse_share(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                result = run_once(workload, seed, seconds)
                if result is None:
                    print(f"{workload} seed {seed}: run failed")
                    ok = False
                    continue
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
            sets.append(values)

        print(f"\n{workload}: {args.sets} set(s) x {args.runs} runs, "
              f"{seconds} s each")
        print(f"  {'metric':<16} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'drift':>8}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s, values in enumerate(sets):
                v = values[name]
                if len(v) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                if first_median is None:
                    first_median = med
                drift = worse_share(first_median, med, m["better"]) if first_median else 0.0
                flags = []
                if spread > bound:
                    flags.append("SPREAD>BOUND")
                elif spread > bound / 3:
                    flags.append("spread>bound/3")
                if drift > bound:
                    flags.append("DRIFT>BOUND")
                if any(f.isupper() for f in flags):
                    ok = False
                print(f"  {name:<16} {s:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {bound:>6.3f} {drift:>8.4f} {' '.join(flags)}")
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
