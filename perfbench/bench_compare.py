#!/usr/bin/env python3
"""Compares two sets of bench_adapex result files, metric by metric.

    python3 perfbench/bench_compare.py --base a1.json a2.json ... \\
                                       --change b1.json b2.json ...

Each file is one results document written by bench_adapex (--results), for
one or more workloads. The i-th base file and the i-th change file form a
pair, so run the two sides alternately. For every (metric, workload) it
prints each side's median and quartiles over the runs, the share of pairs
the change won, and a verdict:

  better      the change won at least 90% of >= 10 pairs (ties count for
              neither) and the medians differ by more than the base's
              quartile spread;
  worse       the change's median is worse than the base's by more than the
              metric's bound;
  unresolved  the run-to-run spread on either side is wider than the bound,
              unless every change run reads better than every base run;
  unchanged   otherwise.

Bounds come from BENCHMARK.json (end_to_end) and, for the workload-specific
metrics, from EXTRA below. Exact metrics (bound 0) are deterministic for a
seed: any difference is worse or better, never unresolved. Exits 1 when any
verdict is worse.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Workload-specific end-to-end metrics: (better, bound as a share).
# gen_wall_s, eval_images_per_s and sim_events_per_s are work_per_s under
# another name and are judged through it.
EXTRA = {
    "lib_ips_gain": ("higher", 0.02),
    "lib_qoe": ("higher", 0.02),
    "lib_load_ms": ("lower", 0.25),
    "serve_p99_ms": ("lower", 0.0),
    "serve_goodput_pct": ("higher", 0.0),
    "serve_max_load": ("higher", 0.0),
    "ops_failed_pct": ("lower", 0.0),
}


def load_bounds(path):
    with open(path) as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    bounds.update(EXTRA)
    return bounds


def run_values(path):
    """{(metric, workload): value} for one results file."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for workload, res in doc["workloads"].items():
        for m in res["metrics"] + res["details"]:
            out[(m["name"], workload)] = m["value"]
        attempted = max(res["attempted"], 1)
        out[("ops_failed_pct", workload)] = 100.0 * res["failed"] / attempted
    return out


def quartiles(values):
    """First and third quartile, interpolated within the observed range (a
    handful of runs per side is the common case)."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(base, change, better, bound):
    """Returns (verdict, share of pairs won, relative change of the median)."""
    sign = 1.0 if better == "lower" else -1.0
    mb, mc = statistics.median(base), statistics.median(change)
    rel = (mc - mb) / abs(mb) if mb else 0.0
    worse_by = sign * rel
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    won = wins / len(pairs) if pairs else 0.0
    if bound == 0.0:
        if all(b == c for b, c in pairs):
            return "unchanged", won, rel
        return ("better" if worse_by < 0 else "worse"), won, rel
    q1b, q3b = quartiles(base)
    q1c, q3c = quartiles(change)
    if len(pairs) >= 10 and won >= 0.9 and abs(mc - mb) > q3b - q1b:
        return "better", won, rel
    if worse_by > bound:
        return "worse", won, rel
    spread = max((q3b - q1b) / abs(mb) if mb else 0.0,
                 (q3c - q1c) / abs(mc) if mc else 0.0)
    if spread > bound and not all(sign * (c - b) < 0 for b in base for c in change):
        return "unresolved", won, rel
    return "unchanged", won, rel


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True, help="parent-side results files")
    ap.add_argument("--change", nargs="+", required=True, help="change-side results files")
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                    help="BENCHMARK.json holding the end-to-end bounds")
    args = ap.parse_args(argv)

    bounds = load_bounds(args.bench)
    base_runs = [run_values(p) for p in args.base]
    change_runs = [run_values(p) for p in args.change]
    if len(base_runs) != len(change_runs):
        print(f"note: {len(base_runs)} base runs vs {len(change_runs)} change runs; "
              "pairs use the shorter list", file=sys.stderr)

    keys = sorted({k for r in base_runs for k in r if k[0] in bounds},
                  key=lambda k: (k[1], k[0]))
    header = (f"{'metric':20} {'workload':12} {'base median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'delta':>8} {'won':>6} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    any_worse = False
    for name, workload in keys:
        base = [r[(name, workload)] for r in base_runs if (name, workload) in r]
        change = [r[(name, workload)] for r in change_runs if (name, workload) in r]
        if not base or not change:
            print(f"{name:20} {workload:12} missing on one side")
            continue
        better, bound = bounds[name]
        v, won, rel = verdict(base, change, better, bound)
        any_worse = any_worse or v == "worse"

        def cell(vals):
            q1, q3 = quartiles(vals)
            return f"{statistics.median(vals):.6g} [{q1:.6g}, {q3:.6g}]"

        print(f"{name:20} {workload:12} {cell(base):>34} {cell(change):>34} "
              f"{100 * rel:+7.2f}% {100 * won:5.0f}% {bound:6.2f}  {v}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
