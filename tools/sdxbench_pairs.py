#!/usr/bin/env python3
"""Ten alternating parent/change pairs of the sdxbench contract command.

How a performance claim is measured (docs/PERFORMANCE.md §2)::

    python tools/sdxbench_pairs.py --base <rev> --workload policy_churn --pairs 10

``--base`` goes into a temporary git worktree, as ``make
sdxbench-compare`` does; each side runs its own
``benchmarks/sdxbench/run.py`` in contract mode, pair ``i`` on seed ``i``,
the parent first on even seeds and the change first on odd ones. Each
run's final JSON line is read. For every end-to-end metric of
``BENCHMARK.json`` it prints both medians with their quartiles, the
change in %, the pairs the change won, and whether the claim rule holds:
the change wins at least nine pairs in ten and the medians differ, in its
favour, by more than the parent's interquartile distance. Every run document lands in
``artifacts/sdxbench/pairs-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACTS = ROOT / "artifacts" / "sdxbench"


def contract_run(tree: pathlib.Path, workload: str, seed: int) -> dict:
    """One contract-mode run of ``tree``'s own benchmark: its final line."""
    child = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "sdxbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, check=False, cwd=tree)
    lines = child.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: no output (exit {child.returncode})\n"
                           f"{child.stderr}")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> List[float]:
    """Lower quartile, median, upper quartile."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(name: str, better: str, parent: Sequence[float],
            change: Sequence[float]) -> str:
    """One metric's row: medians, quartiles, change, wins, the claim rule."""
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    low, mid, high = quartiles(parent)
    c_low, c_mid, c_high = quartiles(change)
    delta = (c_mid - mid) / mid * 100 if mid else math.nan
    holds = (wins >= math.ceil(0.9 * len(parent))
             and sign * (c_mid - mid) > high - low)
    return (f"{name:40s} {mid:12.4f} [{low:.4f} {high:.4f}]"
            f" {c_mid:12.4f} [{c_low:.4f} {c_high:.4f}] {delta:+8.1f}%"
            f" {wins:3d}/{len(parent)}  {'holds' if holds else '-'}")


def main(argv: Optional[List[str]] = None) -> int:
    """Run the pairs, print one row per metric; non-zero if a run failed."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    base = ARTIFACTS / "pairs-base-tree"
    subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                   cwd=ROOT, capture_output=True, check=False)
    subprocess.run(["git", "worktree", "add", "--detach", str(base), args.base],
                   cwd=ROOT, check=True)
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    try:
        for seed in range(args.pairs):
            order = [("parent", base), ("change", ROOT)]
            for side, tree in order if seed % 2 == 0 else order[::-1]:
                runs[side].append(contract_run(tree, args.workload, seed))
                print(f"seed {seed} {side}: done", file=sys.stderr, flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                       cwd=ROOT, check=False)
    (ARTIFACTS / f"pairs-{args.workload}.json").write_text(
        json.dumps(runs, indent=1) + "\n")

    print(f"{args.workload}: {args.pairs} pairs, parent {args.base}"
          f" | failed ops parent"
          f" {sum(r['failed'] for r in runs['parent'])}"
          f" change {sum(r['failed'] for r in runs['change'])}")
    print(f"{'metric':40s} {'parent p50':>12s} [q1 q3]"
          f" {'change p50':>12s} [q1 q3] {'change':>9s} wins  claim")
    for metric in metrics:
        name = metric["name"]
        print(verdict(name, metric["better"],
                      [r["metrics"][name]["value"] for r in runs["parent"]],
                      [r["metrics"][name]["value"] for r in runs["change"]]))
    return 0 if all(r["correct"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
