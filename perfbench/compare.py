#!/usr/bin/env python3
"""Compare two sets of palu_perfbench runs, workload by workload.

Usage:

    python3 perfbench/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are directories (or single files) holding the standard
output of untraced runs (`run.py ... --trace 0 > runs/base/seed3.out`),
one run per file.  Each file's provenance line names its workload; its
last line is the result.  Runs pair up in file-name order.

For every workload x end-to-end metric it prints each side's median and
quartiles, the change's shift as a share of the base median (positive =
worse), the metric's bound, and a verdict:

  improved    the change wins at least 9 of every 10 pairs (ties count
              for neither) and the medians differ by more than the base's
              own quartile spread;
  no worse    the change's median is not worse than the base's by more
              than the bound, and both spreads are within the bound;
  worse       the change's median is worse by more than the bound, and
              the spreads are within the bound (or every change run is
              worse than every base run);
  unresolved  anything else: the run-to-run spread is wider than the
              bound, so the data cannot tell.

It also compares the share of failed operations, which must match, and
prints each side's host steal time (from the provenance line), so that a
shift caused by other guests on the host can be told apart from one the
code made.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = {}
    for name in files:
        with open(name, encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
        workload = None
        steal = None
        for line in lines:
            if line.startswith('{"provenance"'):
                prov = json.loads(line)["provenance"]
                if prov.get("trace"):
                    workload = None  # traced runs carry no end-to-end metrics
                    break
                workload = prov["workload"]
                steal = prov.get("host_steal_pct")
        if workload is None or not lines:
            continue
        result = json.loads(lines[-1])
        result["host_steal_pct"] = steal
        runs.setdefault(workload, []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """Returns (shift, verdict) with shift > 0 meaning worse."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    shift = sign * (cmed - bmed) / bmed
    base_spread = (b3 - b1) / bmed
    change_spread = (c3 - c1) / cmed
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    all_worse = all(sign * (c - b) > 0 for c in change for b in base)
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - bmed) > (b3 - b1):
        return shift, "improved"
    steady = base_spread <= bound and change_spread <= bound
    if shift > bound and (steady or all_worse):
        return shift, "worse"
    if steady and shift <= bound:
        return shift, "no worse"
    if all_better:
        return shift, "improved"
    return shift, "unresolved"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--benchmark",
                   default=os.path.join(os.path.dirname(here),
                                        "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.benchmark, encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    base, change = load_runs(args.base), load_runs(args.change)
    verdicts = []
    print(f"{'workload':13s} {'metric':18s} {'base q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'shift':>8s} {'bound':>6s}  verdict")
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            print(f"{workload:13s} only in one set; skipped")
            continue
        for m in metrics:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            c = [r["metrics"][name]["value"] for r in change[workload]]
            shift, v = verdict(b, c, m["better"], m["bound"])
            verdicts.append(v)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"{workload:13s} {name:18s} {fmt(quartiles(b)):>32s} "
                  f"{fmt(quartiles(c)):>32s} {shift:+8.1%} "
                  f"{m['bound']:6.0%}  {v}  (n={len(b)}/{len(c)})")
        shares = []
        for runs in (base[workload], change[workload]):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            shares.append(failed / attempted if attempted else 0.0)
        same = "same" if shares[0] == shares[1] else "DIFFERENT"
        print(f"{workload:13s} failed share: base {shares[0]:.6f}, "
              f"change {shares[1]:.6f} ({same})")
        # A host that lost CPU to other guests shows here, not in the code.
        steal = [[r["host_steal_pct"] for r in runs
                  if r["host_steal_pct"] is not None and
                  r["host_steal_pct"] >= 0]
                 for runs in (base[workload], change[workload])]
        if all(steal):
            b, c = steal
            print(f"{workload:13s} host steal %: base median "
                  f"{statistics.median(b):.2f} (max {max(b):.2f}), "
                  f"change median {statistics.median(c):.2f} "
                  f"(max {max(c):.2f})")
    worse = sum(v == "worse" for v in verdicts)
    print(f"verdicts: {', '.join(f'{verdicts.count(v)} {v}' for v in ('improved', 'no worse', 'worse', 'unresolved'))}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
