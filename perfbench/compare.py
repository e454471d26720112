"""Compare two sets of benchmark runs: a parent commit and a change.

Usage::

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a results directory written by ``run.py`` (by default
``.perfbench/results``): ``<workload>/trace<0|1>-seed<n>.json``.  Runs
pair up by workload, trace mode and seed.

For every workload x end-to-end metric it prints each side's median and
quartiles, how far the change's median is worse than the parent's as a
share of it, the bound from ``BENCHMARK.json``, and the share of pairs
the change won (ties count for neither), and each side's failed
operations over the paired seeds.  The verdict follows the
choosing-metrics rules:

- ``unresolved`` when the parent's own quartile spread is wider than the
  bound, unless every change run reads better than every parent run;
- else ``regression`` when the change's median is worse by more than
  the bound;
- else ``gain`` when the change wins at least 9 in 10 pairs, the medians
  differ by more than the parent's quartile spread, and the change
  failed no more operations than the parent;
- else ``within bound``.

For traced runs it prints per-layer medians and flags the layers whose
median got worse by more than both 10% and the parent's quartile spread
(times and shares), or moved at all (counts): where a change landed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from metrics import pairs_won, quartiles, relative_spread, worse_by

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9
LAYER_SLACK = 0.10

Runs = Dict[Tuple[str, int], Dict[int, dict]]


def load_runs(directory: Path) -> Runs:
    """(workload, trace) -> {seed: result object}."""
    runs: Runs = {}
    for path in sorted(directory.glob("*/trace*-seed*.json")):
        trace_part, seed_part = path.stem.split("-seed")
        key = (path.parent.name, int(trace_part[len("trace"):]))
        runs.setdefault(key, {})[int(seed_part)] = json.loads(path.read_text())
    return runs


def paired(parent: Dict[int, dict], change: Dict[int, dict],
           metric: str) -> Tuple[List[int], List[float], List[float]]:
    """Seeds where both sides measured ``metric``, and their values."""
    seeds = sorted(s for s in set(parent) & set(change)
                   if metric in parent[s]["metrics"]
                   and metric in change[s]["metrics"])
    old, new = ([float(side[s]["metrics"][metric]["value"]) for s in seeds]
                for side in (parent, change))
    return seeds, old, new


def beats_every(old: List[float], new: List[float], better: str) -> bool:
    """Every change run reads better than every parent run."""
    return max(new) < min(old) if better == "lower" else min(new) > max(old)


def verdict(old: List[float], new: List[float], better: str, bound: float,
            failed_old: int, failed_new: int) -> str:
    if relative_spread(old) > bound and not beats_every(old, new, better):
        return "unresolved"
    q1, q2, q3 = quartiles(old)
    median = quartiles(new)[1]
    if worse_by(q2, median, better) > bound:
        return "regression"
    if (pairs_won(old, new, better)["won_share"] >= GAIN_SHARE
            and abs(median - q2) > q3 - q1 and failed_new <= failed_old):
        return "gain"
    return "within bound"


def end_to_end_rows(parent: Runs, change: Runs, bench: dict) -> List[dict]:
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        old_runs, new_runs = parent.get((workload, 0)), change.get((workload, 0))
        if not old_runs or not new_runs:
            continue
        for metric in bench["end_to_end"]:
            seeds, old, new = paired(old_runs, new_runs, metric["name"])
            if not seeds:
                continue
            failed_old = sum(int(old_runs[s]["failed"]) for s in seeds)
            failed_new = sum(int(new_runs[s]["failed"]) for s in seeds)
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "pairs": len(seeds),
                "parent": quartiles(old), "change": quartiles(new),
                "worse_by": worse_by(quartiles(old)[1], quartiles(new)[1],
                                     metric["better"]),
                "bound": metric["bound"],
                "won_share": pairs_won(old, new, metric["better"])["won_share"],
                "failed": [failed_old, failed_new],
                "verdict": verdict(old, new, metric["better"],
                                   metric["bound"], failed_old, failed_new),
            })
    return rows


def layer_rows(parent: Runs, change: Runs, bench: dict) -> List[dict]:
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        old_runs, new_runs = parent.get((workload, 1)), change.get((workload, 1))
        if not old_runs or not new_runs:
            continue
        for metric in bench["per_layer"]:
            seeds, old, new = paired(old_runs, new_runs, metric["name"])
            if not seeds or (not any(old) and not any(new)):
                continue
            q1, q2, q3 = quartiles(old)
            median = quartiles(new)[1]
            worse = worse_by(q2, median, metric["better"])
            if metric["unit"] == "count":
                flagged = median != q2
            else:
                spread = (q3 - q1) / abs(q2) if q2 else 0.0
                flagged = worse > max(LAYER_SLACK, spread)
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], "parent": q2,
                         "change": median, "delta": median - q2,
                         "worse_by": worse, "flagged": flagged})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    print("end-to-end (median [q1, q3]; worse_by is a share of the parent)")
    for row in end_to_end_rows(parent, change, bench):
        old, new = row["parent"], row["change"]
        print(f"  {row['workload']:<13} {row['metric']:<19} n={row['pairs']:<3}"
              f" parent {old[1]:.5g} [{old[0]:.5g}, {old[2]:.5g}]"
              f"  change {new[1]:.5g} [{new[0]:.5g}, {new[2]:.5g}] {row['unit']}"
              f"  worse_by {row['worse_by']:+.3f} (bound {row['bound']})"
              f"  won {row['won_share']:.2f}"
              f"  failed {row['failed'][0]} -> {row['failed'][1]}"
              f"  {row['verdict']}")
    print("per-layer (medians of traced runs; * = a count that moved, or a"
          " time or share worse by more than 10% and the parent's spread)")
    for row in layer_rows(parent, change, bench):
        mark = "*" if row["flagged"] else " "
        print(f" {mark}{row['workload']:<13} {row['metric']:<34}"
              f" {row['parent']:>12.5g} -> {row['change']:<12.5g}"
              f" {row['unit']:<6} worse_by {row['worse_by']:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
