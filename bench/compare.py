"""Compare the benchmark results of two commits.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file is a ``bench/out/results.jsonl`` collected on one commit (run.py
appends one line per run).  Untraced runs are paired by workload and seed,
in file order.  For every workload and end-to-end metric the command
prints each side's median and quartiles and marks the pairing:

  improved    the change wins at least 9 in 10 pairs and the median gap
              exceeds the parent's inter-quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  neither

It also prints each side's share of failed ops, which must not grow.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                if not r["trace"]:
                    runs[r["workload"]].append(r)
    return runs


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def pairs(parent, change):
    """(parent run, change run) pairs with the same seed, in file order."""
    by_seed = defaultdict(list)
    for r in change:
        by_seed[r["seed"]].append(r)
    out = []
    for r in parent:
        if by_seed[r["seed"]]:
            out.append((r, by_seed[r["seed"]].pop(0)))
    return out


def verdict(metric, pp, bound):
    lower = metric["better"] == "lower"
    name = metric["name"]
    par = [p["metrics"][name]["value"] for p, _ in pp]
    chg = [c["metrics"][name]["value"] for _, c in pp]
    pq1, pmed, pq3 = quartiles(par)
    _, cmed, _ = quartiles(chg)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
    gap = (pmed - cmed) if lower else (cmed - pmed)
    if len(pp) >= 10 and wins >= 0.9 * len(pp) and gap > pq3 - pq1:
        mark = "improved"
    elif -gap > bound * abs(pmed):
        mark = "worse"
    else:
        mark = "unresolved"
    return par, chg, wins, mark


def fmt(vals):
    q1, med, q3 = quartiles(vals)
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark) as fh:
        bench = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    for wl in [w["name"] for w in bench["workloads"]]:
        pp = pairs(parent.get(wl, []), change.get(wl, []))
        if not pp:
            print(f"{wl}: no paired runs")
            continue
        print(f"{wl}: {len(pp)} pairs")
        for side, runs in (("parent", [p for p, _ in pp]),
                           ("change", [c for _, c in pp])):
            att = sum(r["attempted"] for r in runs)
            bad = sum(r["failed"] for r in runs)
            print(f"  {side} failed {bad}/{att} = {bad / att:.6f}")
        for m in bench["end_to_end"]:
            par, chg, wins, mark = verdict(m, pp, m["bound"])
            print(f"  {m['name']:20s} {m['unit']:7s} parent {fmt(par)}  "
                  f"change {fmt(chg)}  wins {wins}/{len(pp)}  {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
