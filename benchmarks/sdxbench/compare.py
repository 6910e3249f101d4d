"""Compare two sdxbench result sets: ``compare.py PARENT.json CHANGE.json``.

Both files come from ``run.py --out``. Every end-to-end metric x
workload cell gets one row and one verdict, from the metric's own
direction and bound in :mod:`catalogue`:

* ``worse`` / ``better`` — the change's median differs from the parent's
  by more than the bound;
* ``unchanged`` — it does not, and both sides repeat within the bound;
* ``unresolved`` — the run-to-run spread of either side (interquartile
  range over median) exceeds the bound, unless every run of one side
  beats every run of the other.

Count metrics also say whether they repeat exactly seed for seed. Failed
ops are reported on their own line per workload. Per-layer metrics, when
both sets hold traced runs, are listed with their change and no verdict.
Exit status is non-zero on any ``worse`` cell or any workload whose
change side failed more ops than its parent side.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence

from catalogue import END_TO_END, PER_LAYER, WORKLOADS, Metric


def load(path: str) -> Dict[str, List[dict]]:
    """Run documents of one set, grouped by workload."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    grouped: Dict[str, List[dict]] = {}
    for run in runs:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def values(runs: Sequence[dict], metric: str, trace: int) -> List[float]:
    """One metric's value from every run of the given kind that has it."""
    return [run["metrics"][metric]["value"] for run in runs
            if run["trace"] == trace and metric in run["metrics"]]


def spread(samples: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    median = statistics.median(samples)
    if len(samples) < 2 or median == 0:
        return 0.0
    quartiles = statistics.quantiles(samples, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def verdict(metric: Metric, parent: Sequence[float],
            change: Sequence[float]) -> str:
    """``better``/``unchanged``/``worse``/``unresolved`` for one cell."""
    sign = 1.0 if metric.better == "lower" else -1.0
    before, after = statistics.median(parent), statistics.median(change)
    worse_by = sign * (after - before) / abs(before) if before else 0.0
    if max(spread(parent), spread(change)) > metric.bound:
        if all(sign * (c - p) < 0 for c in change for p in parent):
            return "better"
        if worse_by > metric.bound and all(
                sign * (c - p) > 0 for c in change for p in parent):
            return "worse"
        return "unresolved"
    if worse_by > metric.bound:
        return "worse"
    if worse_by < -metric.bound:
        return "better"
    return "unchanged"


def exact(parent: Sequence[dict], change: Sequence[dict], metric: str) -> str:
    """Whether a count metric repeats exactly for every seed both sides ran."""
    def by_seed(runs: Sequence[dict]) -> Dict[int, set]:
        seen: Dict[int, set] = {}
        for run in runs:
            if run["trace"] == 0:
                seen.setdefault(run["seed"], set()).add(
                    run["metrics"][metric]["value"])
        return seen
    before, after = by_seed(parent), by_seed(change)
    shared = sorted(set(before) & set(after))
    if not shared:
        return "no shared seed"
    same = all(before[s] == after[s] and len(before[s]) == 1 for s in shared)
    return "exact" if same else "differs"


def compare(parent: Dict[str, List[dict]],
            change: Dict[str, List[dict]]) -> int:
    """Print every row; returns the process exit status."""
    tally = {"better": 0, "unchanged": 0, "worse": 0, "unresolved": 0}
    more_failures = 0
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        before, after = parent[workload], change[workload]
        print(f"== {workload}")
        for metric in END_TO_END:
            p, c = (values(before, metric.name, 0), values(after, metric.name, 0))
            if not p or not c:
                continue
            outcome = verdict(metric, p, c)
            tally[outcome] += 1
            note = f"  [{exact(before, after, metric.name)}]" if metric.count else ""
            print(f"  {metric.name:16s} {metric.unit:6s} "
                  f"{statistics.median(p):13.4f} -> {statistics.median(c):13.4f} "
                  f"({(statistics.median(c) / statistics.median(p) - 1) * 100:+7.2f}%, "
                  f"spread {spread(p) * 100:.1f}%/{spread(c) * 100:.1f}%, "
                  f"bound {metric.bound * 100:.0f}%, n={len(p)}/{len(c)})  "
                  f"{outcome}{note}")
        failed = [sum(run["failed"] for run in side) for side in (before, after)]
        attempted = [sum(run["attempted"] for run in side)
                     for side in (before, after)]
        print(f"  failed_ops       {failed[0]}/{attempted[0]} -> "
              f"{failed[1]}/{attempted[1]}")
        if failed[1] > failed[0]:
            more_failures += 1
        for metric in PER_LAYER:
            p, c = (values(before, metric.name, 1), values(after, metric.name, 1))
            if not p or not c:
                continue
            base = statistics.median(p)
            delta: Optional[float] = (
                (statistics.median(c) / base - 1) * 100 if base else None)
            print(f"    {metric.name:44s} {metric.unit:7s} {base:14.4f} -> "
                  f"{statistics.median(c):14.4f} "
                  f"({'n/a' if delta is None else f'{delta:+.2f}%'})")
    print("cells: " + ", ".join(f"{count} {name}" for name, count in tally.items())
          + f"; workloads with more failed ops: {more_failures}")
    return 1 if tally["worse"] or more_failures else 0


def main(argv: Sequence[str]) -> int:
    """``compare.py PARENT.json CHANGE.json``."""
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
