#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and metric.

    python3 servebench/compare.py BASE.jsonl HEAD.jsonl [--trace 0|1]

Each file holds run records, one JSON object per line, as run.py appends
them to .bench_build/results.jsonl (copy that file aside after each side's
runs).  For every workload and metric the two sides share, it prints each
side's median and quartiles, the change of the medians, the spread (the
wider side's interquartile range over its median) and a verdict:

  regressed   worse by more than the metric's bound
  improved    better by more than the bound
  unresolved  the spread is wider than the bound, so a move inside it
              cannot be told from noise -- unless every run of one side is
              better than every run of the other
  unchanged   within the bound
  info        the metric has no bound (counts, per-layer figures)

Bounds and directions come from BENCHMARK.json's end_to_end list; the
metrics it does not gate use EXTRA_BOUNDS below.
Exits 1 when any metric regressed, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Metrics the runs print that BENCHMARK.json does not gate -- the tails,
# too noisy on a shared 4-vCPU host, and the metrics only some workloads
# have (a gated metric must be measured on every workload):
# (better, bound).
EXTRA_BOUNDS = {
    "query_p99_ms": ("lower", 0.25),
    "query_p95_ms": ("lower", 0.25),
    "query_max_rps": ("higher", 0.25),
    "fit_p90_ms": ("lower", 0.25),
    "fits_per_s": ("higher", 0.2),
    "revisit_p50_ms": ("lower", 0.25),
}


def load_runs(path, trace):
    """{workload: [metrics dict per run]} for the runs with this trace flag."""
    runs = {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise SystemExit("%s:%d: not a JSON record" % (path, number))
            if int(record.get("trace", 0)) != trace:
                continue
            values = {name: m["value"] for name, m in record["metrics"].items()}
            runs.setdefault(record["workload"], []).append(values)
    return runs


def load_bounds(bench_path):
    bounds = dict(EXTRA_BOUNDS)
    if bench_path and os.path.exists(bench_path):
        with open(bench_path) as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]] = (m["better"], m["bound"])
    return bounds


def summary(values):
    """(median, q1, q3) with statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def relative(delta, base):
    return delta / abs(base) if base != 0 else (0.0 if delta == 0 else
                                                float("inf"))


def verdict(base, head, better, bound):
    """Returns (verdict, change, spread).  `change` is signed so that a
    positive value is an improvement."""
    bm, bq1, bq3 = summary(base)
    hm, hq1, hq3 = summary(head)
    sign = 1.0 if better == "higher" else -1.0
    change = sign * relative(hm - bm, bm)
    spread = max(relative(bq3 - bq1, bm), relative(hq3 - hq1, hm))
    if bound is None:
        return "info", change, spread
    if better == "higher":
        head_all_better = min(head) > max(base)
        head_all_worse = max(head) < min(base)
    else:
        head_all_better = max(head) < min(base)
        head_all_worse = min(head) > max(base)
    if spread > bound and not (head_all_better or head_all_worse):
        return "unresolved", change, spread
    if change < -bound:
        return "regressed", change, spread
    if change > bound:
        return "improved", change, spread
    return "unchanged", change, spread


def compare(base_runs, head_runs, bounds):
    """Rows of (workload, metric, base summary, head summary, change,
    spread, bound, verdict) for every metric both sides measured."""
    rows = []
    for workload in sorted(set(base_runs) & set(head_runs)):
        names = sorted(set.intersection(
            *[set(r) for r in base_runs[workload] + head_runs[workload]]))
        for name in names:
            base = [r[name] for r in base_runs[workload]]
            head = [r[name] for r in head_runs[workload]]
            better, bound = bounds.get(name, ("lower", None))
            v, change, spread = verdict(base, head, better, bound)
            rows.append((workload, name, summary(base), summary(head),
                         change, spread, bound, v, len(base), len(head)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bench",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.base, args.trace),
                   load_runs(args.head, args.trace), load_bounds(args.bench))
    if not rows:
        print("no workload and metric in common")
        return 2
    print("%-12s %-28s %-31s %-31s %8s %7s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]",
        "head median [q1, q3]", "change", "spread", "bound", "verdict"))
    regressed = False
    for (workload, name, b, h, change, spread, bound, v, nb, nh) in rows:
        print("%-12s %-28s %10.4g [%8.4g, %8.4g] %10.4g [%8.4g, %8.4g] "
              "%+7.1f%% %6.1f%% %6s  %s (n=%d/%d)" % (
                  workload, name, b[0], b[1], b[2], h[0], h[1], h[2],
                  100 * change, 100 * spread,
                  "-" if bound is None else "%.0f%%" % (100 * bound), v,
                  nb, nh))
        regressed |= v == "regressed"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
