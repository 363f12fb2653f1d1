#!/usr/bin/env python3
"""Diff two Google Benchmark JSON files and print per-benchmark deltas.

The CI tier-1 job uploads a `bench-json` artifact (BENCH_*.json) per
run; this tool turns two of those into a perf-trajectory table:

    tools/bench_compare.py old/BENCH_micro_ablation.json \\
                           new/BENCH_micro_ablation.json

For each benchmark name present in both files it prints the old and new
primary metric (items_per_second when the bench reports it, real_time
otherwise) and the relative delta.  Positive deltas mean the NEW run is
better: items/sec counts up, time counts down.  Under
--benchmark_repetitions a benchmark appears as several same-named
iteration rows plus mean/median/stddev aggregates; the tool takes the
median of the iteration rows per name, so no single noisy repetition
decides a delta (a mean follows one outlier; on a 4-core host single
rows swing by up to 70%) and aggregates never double-count.

Absolute numbers only compare within one host class, so the tool exits
2 without comparing anything when the two files' `context.num_cpus`
differ (a 1-core baseline says nothing about a 4-core run).

Exit status is 1 when a baseline benchmark is missing from the new
run: a deleted or renamed gated bench would otherwise drop out of the
gate unnoticed.  With --fail-below, any benchmark whose delta falls
below the threshold (percent, e.g. -10) also fails the run.

Stdlib only; no third-party deps.
"""

import argparse
import json
import statistics
import sys


def load_benchmarks(path):
    """(num_cpus, {name: (metric_value, metric_kind)}) for the real rows.

    num_cpus comes from the file's context block (None when absent).
    Same-named iteration rows (one per --benchmark_repetitions run) are
    reduced to their median; aggregate rows are skipped so they cannot
    double-count.
    """
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    rows = {}
    for bench in data.get("benchmarks", []):
        # Aggregates carry run_type == "aggregate"; plain runs either say
        # "iteration" or (older libbenchmark) omit the field.
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name = bench.get("name")
        if name is None:
            continue
        if "items_per_second" in bench:
            value, kind = float(bench["items_per_second"]), "items/s"
        elif "real_time" in bench:
            value, kind = float(bench["real_time"]), bench.get("time_unit", "ns")
        else:
            continue
        values, prev_kind = rows.setdefault(name, ([], kind))
        if prev_kind != kind:
            continue  # metric kind changed mid-file; keep the first kind
        values.append(value)
    return data.get("context", {}).get("num_cpus"), {
        name: (statistics.median(values), kind)
        for name, (values, kind) in rows.items()
    }


def delta_pct(old, new, kind):
    """Relative improvement in percent; sign normalized so + is better."""
    if old == 0:
        return 0.0
    raw = (new - old) / old * 100.0
    return raw if kind == "items/s" else -raw


def format_value(value, kind):
    if kind == "items/s":
        return f"{value:,.0f} {kind}"
    return f"{value:,.2f} {kind}"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("old", help="baseline benchmark JSON")
    parser.add_argument("new", help="candidate benchmark JSON")
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="PCT",
        help="exit 1 if any benchmark's delta is below PCT percent "
        "(e.g. -10 tolerates up to a 10%% regression)",
    )
    args = parser.parse_args(argv)

    old_cpus, old = load_benchmarks(args.old)
    new_cpus, new = load_benchmarks(args.new)
    if old_cpus != new_cpus:
        print(
            f"host classes differ: {args.old} has num_cpus={old_cpus}, "
            f"{args.new} has num_cpus={new_cpus}; re-capture the baseline "
            "on the host class that runs it",
            file=sys.stderr,
        )
        return 2

    common = [name for name in old if name in new]
    if not common:
        print("no common benchmarks between the two files", file=sys.stderr)
        return 2

    width = max(len(name) for name in common)
    print(f"{'benchmark':<{width}}  {'old':>18}  {'new':>18}  {'delta':>8}")
    failed = []
    for name in common:
        old_value, old_kind = old[name]
        new_value, new_kind = new[name]
        if old_kind != new_kind:
            print(f"{name:<{width}}  metric kind changed "
                  f"({old_kind} -> {new_kind}); not comparable")
            continue
        pct = delta_pct(old_value, new_value, old_kind)
        print(
            f"{name:<{width}}  {format_value(old_value, old_kind):>18}  "
            f"{format_value(new_value, new_kind):>18}  {pct:>+7.1f}%"
        )
        if args.fail_below is not None and pct < args.fail_below:
            failed.append((name, pct))

    missing = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    if only_new:
        print(f"\nonly in {args.new}: " + ", ".join(only_new))

    status = 0
    if missing:
        print(
            f"\nFAIL: {len(missing)} baseline benchmark(s) missing from "
            f"{args.new}:",
            file=sys.stderr,
        )
        for name in missing:
            print(f"  {name}", file=sys.stderr)
        status = 1
    if failed:
        print(
            f"\nFAIL: {len(failed)} benchmark(s) regressed past "
            f"{args.fail_below}%:",
            file=sys.stderr,
        )
        for name, pct in failed:
            print(f"  {name}: {pct:+.1f}%", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
