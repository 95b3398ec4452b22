#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and warn on regressions.

Usage:
    compare_results.py BASELINE.json CURRENT.json [--threshold 0.20]

Matches benchmarks by name and compares real_time: the wall clock of the
timed loop. cpu_time counts the main thread only, so for an OpenMP
benchmark it misses the work of every other thread in the team. With
--benchmark_repetitions, each benchmark is summarised by the median of
its repetitions and their interquartile range (IQR); a single run is its
own median with an IQR of 0. Prints a table of ratios and emits a GitHub
Actions `::warning` line per benchmark whose median real_time grew by
more than the threshold.

A baseline row may carry a "host" object (nproc, cpu_model) naming the
machine that recorded it; rows without one fall back to the file's
context. The table prints both hosts, since a ratio across different
machines says little.

Always exits 0: the perf-smoke job is advisory, never blocking — CI
hardware varies too much for a hard gate, but a >20% jump on the same
runner family is worth a human look. Standard library only.
"""

import argparse
import json
import statistics
import sys


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def file_host(doc):
    ctx = doc.get("context", {})
    return {"nproc": ctx.get("num_cpus"), "cpu_model": None}


def load_benchmarks(path):
    """name -> {median, iqr, unit, host} over the file's repetitions."""
    with open(path) as f:
        doc = json.load(f)
    default_host = file_host(doc)
    times, meta, aggregate_medians = {}, {}, {}
    for b in doc.get("benchmarks", []):
        name = b.get("run_name", b["name"])
        if b.get("run_type") == "aggregate":
            # Files written with --benchmark_report_aggregates_only keep
            # only the summary rows; their median row stands in.
            if b.get("aggregate_name") == "median":
                aggregate_medians[name] = b["real_time"]
                meta.setdefault(name, b)
            continue
        times.setdefault(name, []).append(b["real_time"])
        meta.setdefault(name, b)
    for name, median in aggregate_medians.items():
        times.setdefault(name, [median])
    out = {}
    for name, values in times.items():
        q1, median, q3 = quartiles(sorted(values))
        out[name] = {"median": median, "iqr": q3 - q1,
                     "unit": meta[name].get("time_unit", "ns"),
                     "host": meta[name].get("host", default_host)}
    return out


def describe(host):
    model = host.get("cpu_model") or "cpu model not recorded"
    return f"{host.get('nproc')} cpus, {model}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="warn when median real_time grows by more than "
                         "this fraction (default 0.20)")
    args = ap.parse_args()

    base = load_benchmarks(args.baseline)
    curr = load_benchmarks(args.current)

    shared = sorted(set(base) & set(curr))
    if not shared:
        print("no overlapping benchmarks between "
              f"{args.baseline} and {args.current}")
        return 0

    regressions = []
    hosts = set()
    print(f"{'benchmark':<44} {'base real':>12} {'curr real':>12} "
          f"{'curr IQR':>10} {'ratio':>7}")
    for name in shared:
        b, c = base[name], curr[name]
        if b["median"] <= 0.0:
            continue
        hosts.add(describe(b["host"]))
        ratio = c["median"] / b["median"]
        unit = c["unit"]
        flag = ""
        if ratio > 1.0 + args.threshold:
            flag = "  << REGRESSION"
            regressions.append((name, ratio))
        print(f"{name:<44} {b['median']:>10.0f}{unit} "
              f"{c['median']:>10.0f}{unit} {c['iqr']:>8.0f}{unit} "
              f"{ratio:>6.2f}x{flag}")

    print("\nbaseline host(s): " + "; ".join(sorted(hosts)))
    current_hosts = {describe(c["host"]) for c in curr.values()}
    print("current host(s): " + "; ".join(sorted(current_hosts)))

    missing = sorted(set(base) - set(curr))
    if missing:
        print(f"\n{len(missing)} baseline benchmark(s) not in current run "
              "(filtered?): " + ", ".join(missing[:5]) +
              ("..." if len(missing) > 5 else ""))

    if regressions:
        for name, ratio in regressions:
            print(f"::warning title=perf regression::{name} real_time "
                  f"{ratio:.2f}x of committed baseline "
                  f"(threshold {1.0 + args.threshold:.2f}x)")
        print(f"\n{len(regressions)} benchmark(s) regressed beyond "
              f"{args.threshold:.0%} — advisory only, not failing the job")
    else:
        print(f"\nno regressions beyond {args.threshold:.0%} across "
              f"{len(shared)} benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
