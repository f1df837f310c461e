#!/usr/bin/env python3
"""Measures the benchmark and records the results in perfbench/metrics.json.

    python3 perfbench/record.py baseline [--runs 10] [--workload NAME ...]
    python3 perfbench/record.py layers

baseline  Runs each workload untraced once per seed 1..--runs and records,
          for every end-to-end metric, the median and the spread: the
          distance between the first and third quartile
          (statistics.quantiles, n=4) as a share of the median. Measure
          the parent commit this way before claiming a change.
layers    Runs every workload traced twice on the default seed and records
          each per-layer metric's total per workload. A metric is exact
          when both runs read the same on every workload and it is not
          one of INEXACT; "most" and "least" name the workloads with its
          highest and lowest total (both empty when every workload reads
          the same).

Run lengths come from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRIC_MAP = os.path.join(HERE, "metrics.json")

# Counters that may repeat in two runs but are not exact by construction.
INEXACT = {
    "table.selection_conversions":
        "process-wide Selection conversion counters: an upper bound "
        "under concurrency (ROADMAP 1(c))",
    "storage.sessions_delta_refreshed":
        "counted by the engine's concurrent service workers",
    "storage.tail_rows_scanned":
        "counted by the engine's concurrent service workers",
    "service.shed": "counted by the engine's concurrent service workers",
    "service.deadline_expired":
        "counted by the engine's concurrent service workers",
}


def load(path):
    with open(path) as f:
        return json.load(f)


def run(workload, seed, trace, seconds):
    """One run: its result line and the notes it printed before it."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("record: %s seed %d trace %d failed:\n%s" %
                 (workload, seed, trace, done.stderr[-2000:]))
    prefix = workload + ": "
    notes = [line[len(prefix):] for line in lines[:-1]
             if line.startswith(prefix)]
    return json.loads(lines[-1]), notes


def rounded(value):
    return float("%.4g" % value)


def baseline(doc, seconds, workloads, runs):
    for workload in workloads:
        values = {}
        for seed in range(1, runs + 1):
            result, notes = run(workload, seed, 0, seconds)
            print(workload, "seed", seed, "attempted", result["attempted"],
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            doc["tail_percentiles"][workload] = notes[0]
        row = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            row[name] = [rounded(median), round(spread, 3)]
            print("  %-22s median %-11.4g spread %.3f" %
                  (name, median, spread), flush=True)
        doc["baseline"][workload] = row


def layers(doc, seconds, workloads):
    runs = {}  # workload -> per-layer values of its two traced runs
    for workload in workloads:
        runs[workload] = []
        for attempt in range(2):
            result, notes = run(workload, doc["default_seed"], 1, seconds)
            runs[workload].append({name: metric["value"] for name, metric
                                   in result["metrics"].items()})
            if attempt == 0:  # the run the totals come from
                doc["traced"][workload] = notes[-1]
        print(workload, "traced twice", flush=True)
    for name, entry in doc["per_layer"].items():
        totals = {w: rounded(pair[0][name]) for w, pair in runs.items()}
        high, low = max(totals.values()), min(totals.values())
        flat = high == low
        entry["most"] = [] if flat else [w for w, v in totals.items()
                                         if v == high]
        entry["least"] = [] if flat else [w for w, v in totals.items()
                                          if v == low]
        entry["exact"] = name not in INEXACT and all(
            pair[0][name] == pair[1][name] for pair in runs.values())
        if name in INEXACT:
            entry["inexact"] = INEXACT[name]
        entry["totals"] = totals
        print("%-34s exact %-5s %s" % (name, entry["exact"], totals))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("baseline", "layers"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="baseline only (default: every workload)")
    args = parser.parse_args()
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    doc = load(METRIC_MAP)
    if args.mode == "baseline":
        baseline(doc, bench["run_seconds"], args.workload or workloads,
                 args.runs)
    else:
        layers(doc, bench["run_seconds"], workloads)
    with open(METRIC_MAP, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
