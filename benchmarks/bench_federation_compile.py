"""Federation compile cost — exchange-count sweep of the federated stack.

For each exchange count, builds a seeded federated scenario, compiles
every member fabric through the federated change surface, runs the full
cross-exchange static analysis (the per-exchange battery plus
SDX008/SDX009), and walks a probe corpus through the real cross-fabric
driver from every ``(exchange, sender)`` state. Reports the three phase
costs per point alongside the structural counts that make the sweep
comparable across machines. Results land in
``benchmarks/results/federation_compile.json`` next to the rendered
table; tier-1 pins the structural counts of the same seed's 2 x 6
federation (``tests/federation/test_checks.py``).
"""

from conftest import publish, publish_json, scaled

from repro.experiments.metrics import render_table
from repro.federation import (
    analyze_federation,
    generate_federated_corpus,
    generate_federated_scenario,
)

SEED = 11
EXCHANGE_COUNTS = (2, 3, 4)
CORPUS_SIZE = 8


def _run_sweep():
    import time

    rows = []
    for exchanges in EXCHANGE_COUNTS:
        participants = scaled(4 + 3 * exchanges)
        scenario = generate_federated_scenario(
            SEED, exchanges=exchanges, participants=participants,
            prefixes=6, policies=8, steps=0)

        started = time.perf_counter()
        federation = scenario.build_controller(with_dataplane=True)
        build_seconds = time.perf_counter() - started

        started = time.perf_counter()
        report = analyze_federation(federation)
        statics_seconds = time.perf_counter() - started

        corpus = generate_federated_corpus(scenario, size=CORPUS_SIZE)
        walks = 0
        started = time.perf_counter()
        for exchange in scenario.exchanges:
            for spec in scenario.participants_at(exchange):
                for packet in corpus:
                    federation.forward(exchange, spec.name, packet)
                    walks += 1
        walk_seconds = time.perf_counter() - started

        rows.append({
            "exchanges": exchanges,
            "participants": participants,
            "clauses": report.clauses_analyzed,
            "diagnostics": len(report.diagnostics),
            "walks": walks,
            "build_seconds": build_seconds,
            "statics_seconds": statics_seconds,
            "walk_seconds": walk_seconds,
        })
    return rows


def test_federation_compile(benchmark):
    rows = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    table_rows = [[
        row["exchanges"], row["participants"], row["clauses"],
        row["diagnostics"], row["walks"],
        f"{row['build_seconds'] * 1000:.1f}",
        f"{row['statics_seconds'] * 1000:.1f}",
        f"{row['walk_seconds'] * 1000:.1f}",
    ] for row in rows]
    publish("federation_compile", render_table(
        ["exchanges", "members", "clauses", "findings", "walks",
         "build ms", "statics ms", "walk ms"],
        table_rows))
    publish_json("federation_compile", rows)

    # Shape: every sweep point must analyze a non-trivial federation and
    # actually exercise the cross-fabric walk.
    for row in rows:
        assert row["clauses"] > 0, row
        assert row["walks"] > 0, row
