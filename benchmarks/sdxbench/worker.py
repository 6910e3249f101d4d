"""One workload, one run, one fresh process: the child ``run.py`` spawns.

Prints a single JSON document on stdout: the run's metrics (end-to-end
on an untraced run, per-layer on a traced one) each with unit and sample
count, the input digest, the deterministic counts and the failure
accounting. A traced run also writes its span list next to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from typing import Dict, Optional, Tuple

from catalogue import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, Workload
from drive import Outcome, run_workload
from spans import Recorder, SpanTable, quantile, shim_cost

Measured = Dict[str, Tuple[float, int]]


def end_to_end(workload: Workload, outcome: Outcome,
               recorder: Recorder) -> Measured:
    """Every end-to-end metric of one run as ``name -> (value, samples)``.

    Each timing is a median over the whole run of host-speed-corrected
    samples (:mod:`hostspeed`): the primary op's latency over every such
    op, throughput over the cycles (work over the summed time of the
    cycle's ops), the cold compile and the set-up over their repetitions.
    Uncorrected, ten seeds of identical code spread 17-80 % between
    quartiles on the reference sandbox (README, "Steadiness").
    """
    host = recorder.host
    ops = recorder.times(workload.op_kind)
    compiles = recorder.times("compile")
    rates = [cycle.work / sum(host.corrected(start, seconds) for _kind, start,
                              seconds in recorder.log[cycle.begin:cycle.end])
             for cycle in outcome.cycles if cycle.end > cycle.begin]
    if not ops or not rates or not compiles or not outcome.setup:
        raise SystemExit(
            f"{workload.name}: nothing measured — {outcome.failures}")
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(outcome.setup), len(outcome.setup)),
        "op_p50_ms": (statistics.median(ops) * 1e3, len(ops)),
        "ops_per_s": (statistics.median(rates),
                      sum(cycle.work for cycle in outcome.cycles)),
        "full_compile_s": (statistics.median(compiles), len(compiles)),
        "flow_rules": (outcome.flow_rules, 1),
        "prefix_groups": (outcome.prefix_groups, 1),
        "peak_rss_mb": (peak_rss, 1),
    }


def per_layer(workload: Workload, outcome: Outcome,
              recorder: Recorder) -> Measured:
    """Every per-layer metric of one traced run.

    Timings are medians over the spans of the measured ops, corrected
    for host speed like the end-to-end ones; ``*_self_*`` is span minus
    children. Counts come from the public snapshots taken when the
    measured phase ended. A layer that never ran reads 0.
    ``telemetry.trace_overhead_pct`` is spans recorded x the calibrated
    cost of one shim, as a share of the measured ops' time: two single
    runs on this sandbox differ by more than the shims cost.
    """
    table = SpanTable(recorder.spans, recorder.host)
    counts = outcome.counts

    def span_s(name: str, *, own: bool = False, scale: float = 1.0):
        return table.median(name, own=own) * scale, table.count(name)

    def stage_s(key: str):
        values = [timing[key] / slow for timing, slow in zip(
            table.data("core.compiler.compile"),
            table.slowdowns("core.compiler.compile"))]
        return (statistics.median(values) if values else 0.0), len(values)

    def count(value: float):
        return value, 1

    def op_median(kind: str, scale: float):
        values = recorder.times(kind)
        return (statistics.median(values) * scale if values else 0.0), len(values)

    ops = recorder.times(workload.op_kind)
    op_seconds = sum(seconds for cycle in outcome.cycles for _kind, _start, seconds
                   in recorder.log[cycle.begin:cycle.end])
    compiles = table.data("core.compiler.compile")
    reinstall_cost = sum(table.data("southbound.sync"))
    sent = counts.get("southbound_mods_sent", 0)
    verify_ms, verify_calls = span_s("statics.verify_delta", scale=1e3)
    full_analysis = counts.get("full_analysis_s", 0.0)
    block_s, blocks = op_median("probe_block", 1.0)
    block_size = counts.get("probe_block_size", 0)
    return {
        "bgp.bulk_load_s": span_s("bgp.bulk_load"),
        "bgp.submit_self_ms": span_s("bgp.submit", own=True, scale=1e3),
        "bgp.readvertise_self_ms": span_s("bgp.readvertise", own=True, scale=1e3),
        "bgp.updates_processed": count(counts.get("updates_processed", 0)),
        "bgp.best_route_changes": count(sum(table.data("bgp.readvertise"))),
        "core.fec.group_s": stage_s("fec"),
        "core.fec.prefix_groups": count(compiles[-1]["groups"] if compiles else 0),
        "core.vnh.assign_s": span_s("core.vnh.assign"),
        "core.vnh.ephemeral_peak": count(recorder.peaks.get("ephemeral", 0)),
        "core.compiler.compile_s": span_s("core.compiler.compile"),
        "core.compiler.compile_calls": count(len(compiles)),
        "core.compiler.defaults_s": stage_s("defaults"),
        "core.compiler.outbound_s": stage_s("outbound"),
        "core.compiler.inbound_s": stage_s("inbound"),
        "core.compiler.composition_s": stage_s("composition"),
        "core.incremental.fastpath_self_ms":
            span_s("core.incremental.fastpath", own=True, scale=1e3),
        "core.incremental.fastpath_rules":
            count(sum(table.data("core.incremental.fastpath"))),
        "core.incremental.fastpath_rules_live_peak":
            count(recorder.peaks.get("fastpath_rules_live", 0)),
        "core.incremental.background_recompile_s":
            span_s("core.incremental.background_recompile"),
        "core.incremental.install_full_self_s":
            span_s("core.incremental.install_full", own=True),
        "southbound.sync_self_s": span_s("southbound.sync", own=True),
        "southbound.push_self_ms": span_s("southbound.push", own=True, scale=1e3),
        "southbound.flowmods_sent": count(sent),
        "southbound.flowmods_coalesced":
            count(counts.get("southbound_mods_coalesced", 0)),
        "southbound.rules_unchanged":
            count(counts.get("southbound_rules_unchanged", 0)),
        "southbound.batches": count(counts.get("southbound_batches_applied", 0)),
        "southbound.reinstall_ratio":
            count(sent / reinstall_cost if reinstall_cost else 0.0),
        "dataplane.apply_delta_self_ms":
            span_s("dataplane.apply_delta", own=True, scale=1e3),
        "dataplane.table_rules_peak": count(recorder.peaks.get("table_rules", 0)),
        "dataplane.probe_us": span_s("dataplane.probe", scale=1e6),
        "dataplane.probe_kpps":
            (block_size / block_s / 1e3 if block_s else 0.0, blocks),
        "controller.op_tail_ms":
            (quantile(ops, workload.tail_quantile) * 1e3, len(ops)),
        "controller.policy_change_p50_ms": op_median("policy_change", 1e3),
        "statics.verify_delta_ms": (verify_ms, verify_calls),
        "statics.policy_gate_ms": span_s("statics.policy_gate", scale=1e3),
        "statics.full_analysis_s": (full_analysis, 1 if full_analysis else 0),
        "statics.incremental_speedup":
            (full_analysis / (verify_ms / 1e3) if verify_ms else 0.0,
             verify_calls),
        "statics.verify_calls": count(verify_calls),
        "statics.error_diagnostics": count(counts.get("error_diagnostics", 0)),
        "statics.rollbacks": count(counts.get("rollbacks", 0)),
        "runtime.step_self_ms": span_s("runtime.step", own=True, scale=1e3),
        "runtime.queue_wait_p50_ms":
            count(counts.get("runtime_queue_wait_p50_ms", 0.0)),
        "runtime.queue_depth_p99": count(counts.get("runtime_queue_depth_p99", 0)),
        "runtime.events_processed": count(counts.get("runtime_processed", 0)),
        "runtime.events_dropped": count(counts.get("runtime_dropped", 0)),
        "runtime.recompiles": count(
            sum(table.data("core.incremental.background_recompile"))
            if counts.get("runtime_batches") else 0),
        "runtime.coalescing_ratio":
            count(counts.get("runtime_coalescing_ratio", 0.0)),
        "telemetry.trace_overhead_pct":
            (len(recorder.spans) * shim_cost() / op_seconds * 100,
             len(recorder.spans)),
        "telemetry.unattributed_pct":
            (table.unattributed_share() * 100, table.count_roots()),
    }


def document(workload: Workload, seed: int, outcome: Outcome,
             recorder: Recorder) -> dict:
    """The JSON document describing one finished run."""
    units = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
    measured = end_to_end(workload, outcome, recorder)
    if recorder.tracing:
        measured.update(per_layer(workload, outcome, recorder))
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(recorder.tracing),
        "digest": outcome.digest,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "cycles": [[cycle.work, cycle.begin, cycle.end]
                   for cycle in outcome.cycles],
        "counts": outcome.counts,
        "setup": outcome.setup,
        "op_log": recorder.log,
        "host_speed": list(zip(recorder.host.starts, recorder.host.seconds)),
        "metrics": {name: {"value": value, "unit": units[name], "samples": n}
                    for name, (value, n) in measured.items()},
    }


def main(argv: Optional[list] = None) -> int:
    """Run one workload and print its document."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    outcome, recorder = run_workload(
        workload, args.seed, tracing=bool(args.trace),
        sizes=workload.sizes.scaled(args.seconds / RUN_SECONDS))
    if args.spans and recorder.tracing:
        with open(args.spans, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "data"],
                       "spans": recorder.spans}, handle)
    json.dump(document(workload, args.seed, outcome, recorder), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
