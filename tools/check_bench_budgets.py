#!/usr/bin/env python3
"""Budget gate for four bench artifacts (CI `bench-smoke` job).

Reads the Google Benchmark JSON files that bench-smoke writes into the
current directory and checks the budgets DESIGN.md states for them:

  * BENCH_fault_overhead.json — `fault_overhead_pct` of BM_ScanOverheadPair
    (checksummed reads + FaultFs pass-through vs a raw scan, DESIGN.md §10)
    must stay below 3. Gated.
  * BENCH_tuple_mover.json — `read_after_deletes_ratio` of
    BM_ReadAfterDeletesPair (a point read after 1000 committed 288-position
    delete chunks outside its blocks vs the same read with no deletes,
    DESIGN.md §1) must stay below 1.5. Gated.
  * BENCH_parallel.json — `read_ops_ratio` of BM_SelectiveScanPair (storage
    read calls of a query that keeps 7 of 70 blocks at fan-out 4 vs the
    same query serial, DESIGN.md §6) must stay below 2: the morsel carve
    opens no reader for a pruned block range. The count is deterministic.
    Gated.
  * BENCH_parallel.json — `pruned_scan_pinned_per_query` of
    BM_SelectiveScanPair (pinned threads the fan-out-4 database starts per
    run of a query that keeps 1 of the 70 blocks, DESIGN.md §12) must stay
    below 1: the fan-out gate counts the rows a scan reads, so that query
    plans one pipeline and starts no producer thread. A fanned-out plan
    reads 4. Deterministic. Gated.
  * BENCH_cluster_scale.json — `hedged_p99_over_baseline` of every
    BM_HedgedTailPair node count (5% stragglers with hedging vs an
    all-healthy cluster, DESIGN.md §11) should stay below 2. Reported but
    not gated: over 10 Release runs on a 4-core VM the 64-node ratio
    ranged 1.68-3.81 (its all-healthy p99 alone ranged 3.1-10.4 ms), so
    a gate would fail on noise.

Prints every value it reads. Exits nonzero when a gated value breaches its
budget, or when a gated file, benchmark or counter is missing: a gate that
cannot read its number has not passed. Stdlib only.
"""
import json
import os
import sys

# (file, benchmark name prefix, counter, budget, gated): value must be
# < budget; an ungated budget only reports.
BUDGETS = [
    ("BENCH_fault_overhead.json", "BM_ScanOverheadPair", "fault_overhead_pct", 3.0, True),
    ("BENCH_tuple_mover.json", "BM_ReadAfterDeletesPair", "read_after_deletes_ratio", 1.5,
     True),
    ("BENCH_parallel.json", "BM_SelectiveScanPair", "read_ops_ratio", 2.0, True),
    ("BENCH_parallel.json", "BM_SelectiveScanPair", "pruned_scan_pinned_per_query", 1.0,
     True),
    ("BENCH_cluster_scale.json", "BM_HedgedTailPair", "hedged_p99_over_baseline", 2.0,
     False),
]


def check(path, prefix, counter, budget):
    """Return a list of problems with one budget (missing data or breach)."""
    if not os.path.exists(path):
        return [f"{path}: missing"]
    with open(path, encoding="utf-8") as f:
        runs = json.load(f).get("benchmarks", [])
    runs = [r for r in runs
            if r.get("name", "").startswith(prefix) and r.get("run_type") != "aggregate"]
    if not runs:
        return [f"{path}: no {prefix} result"]
    failures = []
    for r in runs:
        name = r["name"]
        if r.get("error_occurred"):
            failures.append(f"{path}: {name}: {r.get('error_message', 'error')}")
            continue
        if counter not in r:
            failures.append(f"{path}: {name}: no {counter} counter")
            continue
        value = float(r[counter])
        ok = value < budget
        print(f"{name}: {counter} = {value:.3f} (budget < {budget:g}) "
              f"{'ok' if ok else 'over budget'}")
        if not ok:
            failures.append(f"{path}: {name}: {counter} {value:.3f} >= {budget:g}")
    return failures


def main():
    failures = []
    for path, prefix, counter, budget, gated in BUDGETS:
        problems = check(path, prefix, counter, budget)
        for msg in problems:
            print(f"{'FAIL' if gated else 'note (ungated)'} {msg}", file=sys.stderr)
        if gated:
            failures += problems
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
