"""Dataplane verifier cost — incremental delta verification vs full.

For each sweep point, compiles a seeded workload with the dataplane
verifier attached, times one whole-table SDX010-SDX013 analysis, then
flips a spread of installed rules (modify to drop and back) through
``verify_delta`` as single-mod batches and reports the median per-delta
latency. The headline column is the incremental speedup: the
equivalence-class partition means a FlowMod delta re-verifies only the
rules whose match regions the mod can have touched, so per-delta cost
must stay far below a fresh whole-table pass. Results land in
``benchmarks/results/dataplane_verify.json`` next to the rendered
table; tier-1 pins the 24 x 160 point's rule and diagnostic counts
(``tests/statics/test_dataplane.py``).
"""

from conftest import publish, publish_json, scaled

from repro.experiments.metrics import render_table
from repro.policy.classifier import Action
from repro.policy.flowrules import FlowRule
from repro.southbound.diff import FlowMod
from repro.statics import analyze_controller_dataplane
from repro.workloads.policies import generate_policies, install_assignments
from repro.workloads.topology import generate_ixp

SEED = 5
SWEEP = ((12, 80), (24, 160), (60, 400))
DELTAS = 12

#: The soundness-economics floor: at figure-8 scale the incremental
#: path must beat a fresh whole-table analysis by at least this factor,
#: or running the verifier on every FlowMod batch stops being viable.
MIN_SPEEDUP_AT_SCALE = 5.0


def _run_point(participants, prefixes):
    import statistics
    import time

    ixp = generate_ixp(participants, prefixes, seed=SEED)
    controller = ixp.build_controller(dataplane_statics_mode="warn")
    install_assignments(controller, generate_policies(ixp, seed=SEED + 1))
    controller.start()
    verifier = controller.dataplane_verifier

    started = time.perf_counter()
    report = analyze_controller_dataplane(controller)
    full_seconds = time.perf_counter() - started

    rules = list(controller.table.rules)
    timings = []
    for index in range(DELTAS):
        target = rules[(index * len(rules)) // DELTAS]
        flipped = FlowRule(
            priority=target.priority, match=target.match,
            actions=(() if target.actions else (Action(port=1),)))
        for replacement in (flipped, target):
            mods = [FlowMod.modify(replacement)]
            controller.table.apply_delta(mods)
            started = time.perf_counter()
            verifier.verify_delta(mods)
            timings.append(time.perf_counter() - started)

    delta_seconds = statistics.median(timings)
    return {
        "participants": participants,
        "prefixes": prefixes,
        "rules": len(rules),
        "diagnostics": len(report.diagnostics),
        "full_seconds": full_seconds,
        "delta_seconds": delta_seconds,
        "speedup": full_seconds / max(delta_seconds, 1e-9),
    }


def _run_sweep():
    return [_run_point(scaled(participants), scaled(prefixes))
            for participants, prefixes in SWEEP]


def test_dataplane_verify(benchmark):
    rows = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    table_rows = [[
        row["participants"], row["prefixes"], row["rules"],
        row["diagnostics"],
        f"{row['full_seconds'] * 1000:.1f}",
        f"{row['delta_seconds'] * 1000:.2f}",
        f"{row['speedup']:.1f}x",
    ] for row in rows]
    publish("dataplane_verify", render_table(
        ["participants", "prefixes", "rules", "findings",
         "full ms", "delta ms", "speedup"],
        table_rows))
    publish_json("dataplane_verify", rows)

    # Shape: every point must analyze a real table, and at figure-8
    # scale the incremental path must clear the viability floor.
    for row in rows:
        assert row["rules"] > 0, row
    assert rows[-1]["speedup"] >= MIN_SPEEDUP_AT_SCALE, rows[-1]
