#!/usr/bin/env python3
"""Compares two sets of benchmark results saved with `run.py --out`.

Usage (from the repository root):

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one JSON record per run (host fingerprint, arguments,
result). Untraced runs are grouped per workload, and each end-to-end metric
is compared by median against the bound BENCHMARK.json fixes for it:

  regressed   the new median is worse than the base median by more than the
              bound;
  unresolved  the base runs spread wider than the bound (distance between
              quartiles over the median), so the bound cannot be judged —
              unless every new run beats every base run;
  ok          otherwise.

Results recorded on hosts with different fingerprints are reported as
"incomparable" and not compared. Exit status: 0 when nothing regressed,
1 when something did, 3 when the hosts are incomparable.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def hosts(records):
    return {json.dumps(r["host"], sort_keys=True) for r in records}


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def by_workload(records):
    out = {}
    for r in records:
        if r["args"]["trace"] == 0 and r["result"]["correct"]:
            out.setdefault(r["args"]["workload"], []).append(r["result"]["metrics"])
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hb, hn = hosts(base), hosts(new)
    if len(hb | hn) != 1:
        print("incomparable: the runs come from hosts with different fingerprints")
        for h in sorted(hb | hn):
            print("  " + h)
        return 3
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    b, n = by_workload(base), by_workload(new)
    regressed = False
    print(f"{'workload':<12} {'metric':<15} {'base':>12} {'new':>12} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(b) & set(n)):
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            bv = [r[name]["value"] for r in b[workload]]
            nv = [r[name]["value"] for r in n[workload]]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            worse = change if lower else -change
            s = spread(bv)
            all_better = (max(nv) < min(bv)) if lower else (min(nv) > max(bv))
            if worse > bound:
                verdict = "regressed"
                regressed = True
            elif s > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<12} {name:<15} {bm:>12.5g} {nm:>12.5g} {change:>+8.1%} "
                  f"{s:>7.1%} {bound:>6.0%}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
