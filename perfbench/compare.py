#!/usr/bin/env python3
"""Run the benchmark as two sets and compare them.

    python3 perfbench/compare.py [--a DIR] [--b DIR] [--workloads W,...]
                                 [--seeds 1,2,3,...] [--no-trace]

A and B are checkouts (default: both the current directory, which
measures the benchmark's own run-to-run agreement; give the parent
commit's checkout as A and the change's as B to evaluate a change).
For every workload and seed the helper runs A and B back to back,
alternating which goes first, and prints for each end-to-end metric:
each set's median, its spread (interquartile distance over the median,
from statistics.quantiles(values, n=4)), the metric's bound from
BENCHMARK.json, and the change of B's median against A's in the
metric's worse direction. Simulated outcomes and modelled counters must
repeat exactly for a seed; any difference between A and B is listed.

Unless --no-trace is given it then makes one traced run per set and
workload (the first seed) and prints the per-module host shares, span
self times and every other per-layer metric side by side, so a change
can show where its saving appears. Runs must be started from the
directory that holds BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Metrics that are functions of the seed alone: any difference between
# two runs of one seed means the simulated model changed.
EXACT_PREFIXES = ("sim_", "cache.", "mem.", "noc.", "acc.", "sim.", "esp.",
                  "costmodel.heldout_mape", "experiment.screened_cells",
                  "experiment.escalated_cells")


def load(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run(checkout, bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} failed "
                 f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        print(f"  ! {checkout}: {workload} seed {seed}: "
              f"{res['failed']} of {res['attempted']} operations failed")
    return res


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse(a, b, better):
    """B's change against A, positive when B is worse."""
    if a == 0:
        return 0.0
    d = (b - a) / abs(a)
    return d if better == "lower" else -d


def exact_diffs(label, ra, rb):
    out = []
    for name, m in ra["metrics"].items():
        if name.startswith(EXACT_PREFIXES) and name in rb["metrics"]:
            if m["value"] != rb["metrics"][name]["value"]:
                out.append(f"{label} {name}: {m['value']!r} vs "
                           f"{rb['metrics'][name]['value']!r}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", default=".")
    ap.add_argument("--b", default=".")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args()
    ba, bb = load(args.a), load(args.b)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bb["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 2:
        sys.exit("need at least two seeds")
    failed = False
    for w in workloads:
        print(f"== {w}: seeds {seeds}")
        sets = {"A": [], "B": []}
        diffs = []
        for i, seed in enumerate(seeds):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            got = {}
            for side in order:
                checkout, bench = (args.a, ba) if side == "A" else (args.b, bb)
                got[side] = run(checkout, bench, w, seed, 0)
                sets[side].append(got[side])
            diffs += exact_diffs(f"seed {seed}", got["A"], got["B"])
        print(f"  {'metric':<24} {'A median':>12} {'A spread':>9} "
              f"{'B median':>12} {'B spread':>9} {'bound':>6} {'B worse':>8}")
        for m in bb["end_to_end"]:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in sets["A"]]
            vb = [r["metrics"][name]["value"] for r in sets["B"]]
            sa, sb = spread(va), spread(vb)
            ma, mb = statistics.median(va), statistics.median(vb)
            d = worse(ma, mb, m["better"])
            flag = ""
            if max(sa, sb) > m["bound"]:
                flag += " SPREAD>BOUND"
                failed = True
            elif max(sa, sb) > m["bound"] / 3:
                flag += " spread>bound/3"
            if d > m["bound"]:
                flag += " WORSE>BOUND"
                failed = True
            print(f"  {name:<24} {ma:>12.5g} {sa:>9.4f} {mb:>12.5g} "
                  f"{sb:>9.4f} {m['bound']:>6.3f} {d:>+8.4f}{flag}")
        for d in diffs:
            print("  ! not exact:", d)
            failed = True

        if args.no_trace:
            continue
        ta = run(args.a, ba, w, seeds[0], 1)
        tb = run(args.b, bb, w, seeds[0], 1)
        print(f"  traced, seed {seeds[0]}: {'per-layer metric':<36} "
              f"{'A':>12} {'B':>12} {'B-A':>12}")
        for m in bb["per_layer"]:
            name = m["name"]
            a = ta["metrics"].get(name, {}).get("value", 0)
            b = tb["metrics"].get(name, {}).get("value", 0)
            if a == 0 and b == 0:
                continue
            print(f"  {'':<18}{name:<36} {a:>12.5g} {b:>12.5g} {b - a:>+12.5g}")
        for d in exact_diffs("traced", ta, tb):
            print("  ! not exact:", d)
            failed = True
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
