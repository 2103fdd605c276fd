#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs against BENCHMARK.json's bounds.

    python3 bench/e2e/run.py --runs 10 --seed 1 --out parent.jsonl   # on the parent
    python3 bench/e2e/run.py --runs 10 --seed 1 --out change.jsonl   # on the change
    python3 bench/e2e/compare.py --parent parent.jsonl --change change.jsonl

Input files hold one JSON record per line, as run.py --out writes them (each
record carries its workload and metrics). For every (metric, workload) row the
tool prints each side's median and quartiles, the spread (quartile distance
over median), the change of the median, the bound and a verdict:

  better      the median improved by more than the bound
  unchanged   the median moved by less than the bound
  worse       the median worsened by more than the bound
  unresolved  a side's spread exceeds the bound, so the runs cannot tell;
              reported as better only if every change run beats every parent run

Per-layer metrics (traced records) have no bound and get no verdict. Exits
non-zero on any worse row, on a rise in the failed share, or on a wrong answer.
Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    runs.append(json.loads(line))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def series(runs, workload, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["metrics"]]


def failed_share(runs, workload):
    mine = [r for r in runs if r["workload"] == workload]
    attempted = sum(r["attempted"] for r in mine)
    return sum(r["failed"] for r in mine) / attempted if attempted else 0.0


def verdict(parent, change, better, bound):
    """Verdict for one row; `better` is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worsening = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if max(spread(parent), spread(change)) > bound:
        beats_all = all(sign * (c - p) < 0 for c in change for p in parent)
        return "better" if beats_all else "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "unchanged"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", nargs="+", required=True, help="JSONL files of the parent")
    p.add_argument("--change", nargs="+", required=True, help="JSONL files of the change")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [(m, True) for m in spec["end_to_end"]] + [(m, False) for m in spec["per_layer"]]

    bad = []
    header = (f"{'metric':34s} {'workload':16s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'spread p/c':>13s} {'delta':>8s} "
              f"{'bound':>6s}  verdict")
    print(header)
    for m, gated in metrics:
        for w in workloads:
            pv, cv = series(parent, w, m["name"]), series(change, w, m["name"])
            if not pv or not cv:
                continue
            pq, cq = quartiles(pv), quartiles(cv)
            delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
            v = verdict(pv, cv, m["better"], m["bound"]) if gated else "-"
            bound = f"{m['bound']:.0%}" if gated else "-"
            if v == "worse":
                bad.append(f"{m['name']} on {w}")
            p_col = f"{pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
            c_col = f"{cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
            spreads = f"{spread(pv):.1%}/{spread(cv):.1%}"
            print(f"{m['name']:34s} {w:16s} {p_col:>34s} {c_col:>34s} {spreads:>13s} "
                  f"{delta:>+8.1%} {bound:>6s}  {v}")

    for w in workloads:
        if not any(r["workload"] == w for r in parent + change):
            continue
        pf, cf = failed_share(parent, w), failed_share(change, w)
        print(f"failed share {w:16s} parent {pf:.3g}  change {cf:.3g}")
        if cf > pf:
            bad.append(f"failed share rose on {w}")
    wrong = [f"{r['workload']} seed {r.get('seed')}" for r in parent + change if not r["correct"]]
    if wrong:
        bad.append("incorrect runs: " + ", ".join(wrong))
    if bad:
        print("REGRESSION: " + "; ".join(bad))
        return 1
    print("no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
