"""sdxbench entry point: one command, every metric by name.

Contract mode (what ``BENCHMARK.json`` names)::

    python3 benchmarks/sdxbench/run.py --workload W --seed N --seconds S --trace 0|1

runs workload ``W`` once in a fresh single-threaded child process
(``worker.py``, ``PYTHONHASHSEED=0``, ``src/`` on its path), prints every
metric with unit and sample count, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics when ``--trace 0``, the per-layer metrics when ``--trace 1``.

Set mode, for ``compare.py``::

    python3 benchmarks/sdxbench/run.py --out SET.json [--seed N] [--repeat R]
                                       [--workload W ...] [--trace 0|1]

runs every (or each named) workload ``R`` times and writes all run
documents to ``SET.json``. Exit status is non-zero when any run failed an
output check or could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
from typing import List, Optional

from catalogue import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: A run that has not finished by now is stopped: the contract allows 180 s.
CHILD_TIMEOUT_SECONDS = 170


def spawn(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh child; returns its document.

    Raises ``RuntimeError`` when the child cannot run (no ``src/`` beside
    the benchmark, a crash, a timeout) — there is no result to report.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part)
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        command += ["--spans", str(out / f"spans-{workload}-{seed}.json")]
    try:
        child = subprocess.run(command, env=env, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_SECONDS, check=False)
    except subprocess.TimeoutExpired:
        raise RuntimeError(
            f"{workload}: no result within {CHILD_TIMEOUT_SECONDS} s") from None
    if child.returncode != 0:
        raise RuntimeError(
            f"{workload}: worker exited {child.returncode}\n{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])


def render(document: dict) -> str:
    """Every metric of one run by name, with unit and sample count."""
    lines = [f"== {document['workload']} seed={document['seed']} "
             f"trace={document['trace']} digest={document['digest'][:16]} "
             f"attempted={document['attempted']} failed={document['failed']}"]
    lines += [f"  {name:44s} {m['value']:16.6f} {m['unit']:7s} n={m['samples']}"
              for name, m in document["metrics"].items()]
    lines += [f"  FAILED: {detail}" for detail in document["failures"]]
    return "\n".join(lines)


def contract_line(document: dict) -> str:
    """The one-line result the benchmark contract asks for."""
    wanted = PER_LAYER if document["trace"] else END_TO_END
    return json.dumps({
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {m.name: {"value": document["metrics"][m.name]["value"],
                             "unit": m.unit} for m in wanted},
    })


def main(argv: Optional[List[str]] = None) -> int:
    """Run one workload (contract mode) or a whole set (``--out``)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="set mode: write every run document here")
    parser.add_argument("--repeat", type=int, default=3,
                        help="set mode: runs per workload (default 3)")
    args = parser.parse_args(argv)
    if args.out is None and (args.workload is None or len(args.workload) != 1):
        parser.error("name exactly one --workload, or give --out for a set")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"sdxbench measures the program under {ROOT / 'src'}; "
              f"there is none beside this benchmark", file=sys.stderr)
        return 1
    workloads = args.workload or list(WORKLOADS)
    repeat = args.repeat if args.out is not None else 1

    documents = []
    try:
        for workload in workloads:
            for _ in range(repeat):
                document = spawn(workload, args.seed, args.seconds, args.trace)
                print(render(document), flush=True)
                documents.append(document)
    except RuntimeError as error:
        print(error, file=sys.stderr)
        return 1
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump({"schema": 1, "runs": documents, "claim": None},
                      handle, indent=1)
            handle.write("\n")
    else:
        print(contract_line(documents[0]))
    return 0 if all(d["failed"] == 0 for d in documents) else 1


if __name__ == "__main__":
    sys.exit(main())
