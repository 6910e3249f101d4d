"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure from the paper's
evaluation. Because ``pytest-benchmark`` captures stdout, each benchmark
also writes its rendered rows/series to ``benchmarks/results/<name>.txt``
so the regenerated numbers are inspectable after a run; run with ``-s``
to see them inline.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import socket

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Multiplier on benchmark workload sizes; set SDX_BENCH_SCALE=5 to run
#: the sweeps five times larger (closer to the paper's scale).
BENCH_SCALE = float(os.environ.get("SDX_BENCH_SCALE", "1"))


def scaled(value: int) -> int:
    """A workload size adjusted by ``SDX_BENCH_SCALE``."""
    return max(1, round(value * BENCH_SCALE))


def publish(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


def publish_json(name: str, payload) -> None:
    """Persist a machine-readable twin of a rendered result.

    Writes ``benchmarks/results/<name>.json`` with deterministic
    formatting (sorted keys, trailing newline) so CI can diff and
    archive the regenerated numbers. The payload rides in a
    schema-versioned envelope that records the machine it was measured
    on (the hostname hashed: only equality matters), so archived results
    from different machines stay distinguishable.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    document = {
        "schema": 1,
        "name": name,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count() or 1,
            "hostname_hash": hashlib.sha256(
                socket.gethostname().encode()).hexdigest()[:12],
            "bench_scale": BENCH_SCALE,
        },
        "data": payload,
    }
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n")
