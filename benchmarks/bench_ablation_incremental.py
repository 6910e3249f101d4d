"""Ablation — two-stage incremental updates vs full recompilation
(Section 4.3.2).

Processes the same stream of best-path-changing updates twice: once via
the fast path (the default), once forcing a full optimal recompilation
after every update. The fast path must be much quicker per update — the
headroom that makes sub-second convergence possible — at the price of
temporary extra rules that the background pass reclaims.
"""

import random
import time

from conftest import publish, publish_json

from repro.experiments.harness import perturb_prefix
from repro.experiments.metrics import render_table
from repro.workloads import loaded_exchange

PARTICIPANTS = 100
PREFIXES = 2_000
UPDATES = 30


def _measure(full_recompile: bool) -> float:
    controller, ixp = loaded_exchange(PARTICIPANTS, PREFIXES, seed=0)
    rng = random.Random(7)
    universe = ixp.all_prefixes()
    started = time.perf_counter()
    for _ in range(UPDATES):
        perturb_prefix(controller, ixp, rng.choice(universe), rng)
        if full_recompile:
            controller.recompile()
    return (time.perf_counter() - started) / UPDATES


def _run():
    return _measure(False), _measure(True)


def test_ablation_incremental(benchmark):
    fast_seconds, full_seconds = benchmark.pedantic(_run, rounds=1, iterations=1)
    publish("ablation_incremental", render_table(
        ["variant", "seconds per update"],
        [["two-stage fast path", f"{fast_seconds:.4f}"],
         ["full recompilation per update", f"{full_seconds:.4f}"]]))
    publish_json("ablation_incremental", {
        "updates": UPDATES,
        "fast_seconds_per_update": fast_seconds,
        "full_seconds_per_update": full_seconds,
        "speedup": full_seconds / fast_seconds,
    })

    # The fast path is the point of Section 4.3.2.
    assert full_seconds > 3 * fast_seconds
    assert fast_seconds < 0.1  # sub-100 ms, consistent with Figure 10
