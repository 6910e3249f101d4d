"""The sdxbench contract: workloads, sizes, and every metric by name.

``BENCHMARK.json`` at the repository root is :func:`contract` written
out, and ``check_harness.py`` asserts the two agree, so a metric cannot
be printed without being catalogued or catalogued without being printed.

Every end-to-end metric is reported by every workload: the contract
checks each metric on each workload, so the names are generic over the
workload's *primary operation* (``op_*``) and the workload decides what
that operation is. The README maps each cell back to the paper figure it
reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

#: Nominal length of one run's measured phase. Op counts below are sized
#: so the measured phase takes about this long on the reference sandbox;
#: ``--seconds`` rescales them proportionally. Counts, not deadlines, end
#: a run so that ``flow_rules`` and every count metric repeat exactly.
RUN_SECONDS = 12

#: Seed of the exchange *shape* — members, prefix ownership, transit
#: cover, AS-path lengths and the Section 6.1 policy set. Shapes drawn
#: from different seeds differ by 7 000-11 000 rules and 1.8x in compile
#: time (heavy-tailed ownership), which no regression bound survives, so
#: the shape is fixed like a dataset size and ``--seed`` draws everything
#: that flows through it: every route's origin and transit hops, the
#: update trace, the policy-change pairs and the probes.
SHAPE_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """How big one workload is. Fixed here, never a flag.

    ``cold_starts``, ``updates``, ``bursts`` and ``pairs`` count measured
    operations (a pair is one policy add plus its remove); the
    ``warmup_*`` fields count the unmeasured ones run first.
    """

    participants: int
    prefixes: int
    setup_reps: int = 1
    compiles: int = 6
    cold_starts: int = 0
    warmup_updates: int = 0
    updates: int = 0
    recompile_every: int = 0
    bursts: int = 0
    burst_size: int = 0
    hot_prefixes: int = 0
    warmup_pairs: int = 0
    pairs: int = 0
    probes: int = 0

    def scaled(self, factor: float) -> "Sizes":
        """These sizes with every measured op count multiplied by ``factor``."""
        def scale(count: int, floor: int) -> int:
            return max(floor, round(count * factor)) if count else 0
        return replace(
            self,
            compiles=scale(self.compiles, 3),
            cold_starts=scale(self.cold_starts, 3),
            updates=scale(self.updates, 40),
            bursts=scale(self.bursts, 3),
            pairs=scale(self.pairs, 2),
            probes=scale(self.probes, 400))


@dataclass(frozen=True)
class Workload:
    """One workload: why it exists, which op kind its ``op_*`` metrics
    describe, and the highest percentile of that op with at least ten
    samples beyond it (``controller.op_tail_ms``; the median when the
    sample is too small to have one)."""

    name: str
    why: str
    op_kind: str
    sizes: Sizes
    tail_quantile: float = 0.5


FIG8_CORNER = (300, 15_000)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="cold_start",
        why="bulk table load, FEC grouping and the compiler do all the work; "
            "fast path, runtime, diff and verifier are idle (fig-8 corner)",
        op_kind="cold_start",
        sizes=Sizes(*FIG8_CORNER, setup_reps=5, cold_starts=4, compiles=4)),
    Workload(
        name="update_churn",
        why="Table-1 update trace replayed inline, gates off: BGP decision, "
            "re-advertisement and the fast path; runtime and verifier bypassed",
        op_kind="update", tail_quantile=0.99,
        sizes=Sizes(*FIG8_CORNER, warmup_updates=50, updates=1_000,
                    recompile_every=200)),
    Workload(
        name="burst_runtime",
        why="flap-storm bursts through the step-driven runtime: the same BGP "
            "and fast-path code queued, coalesced and recompiled per burst",
        op_kind="burst",
        sizes=Sizes(*FIG8_CORNER, bursts=7, burst_size=250, hot_prefixes=64)),
    Workload(
        name="policy_churn",
        why="one-clause policy add/remove pairs, gates off: warm-memo compile, "
            "southbound LCS diff and two-phase swap; ingest and fast path idle",
        op_kind="policy_change",
        sizes=Sizes(*FIG8_CORNER, warmup_pairs=1, pairs=8)),
    Workload(
        name="gated_changes",
        why="strict policy and dataplane gates with a live fabric: the only "
            "workload where verifier, router FIB/ARP and table lookup run",
        op_kind="update", tail_quantile=0.9,
        sizes=Sizes(60, 1_000, setup_reps=2, compiles=30, warmup_updates=20,
                    updates=120, pairs=3, probes=3_000)),
)}


@dataclass(frozen=True)
class Metric:
    """One catalogued metric. ``bound`` is ``None`` for per-layer metrics."""

    name: str
    unit: str
    better: str
    bound: float | None = None
    count: bool = False


#: Every timing bound is the contract's ceiling. Two ten-seed sets on the
#: reference sandbox spread at most 5.6 % between their quartiles on any
#: bounded timing (README, "Steadiness"), but the residual on seconds-long
#: ops grows with the host's noise (11 % under a stress test) and the
#: check that accepts the benchmark runs on a busier host; a bound tighter
#: than the benchmark repeats rejects the parent against itself.
#: ``compare.py`` separates "unchanged" from "unresolved" for that
#: reason, and a gain needs the paired runs the README describes.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("op_p50_ms", "ms", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("full_compile_s", "s", "lower", 0.25),
    Metric("flow_rules", "count", "lower", 0.25, count=True),
    Metric("prefix_groups", "count", "lower", 0.25, count=True),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
)


def _layer(names: str, unit: str, better: str = "lower",
           count: bool = False) -> Tuple[Metric, ...]:
    return tuple(Metric(name, unit, better, count=count)
                 for name in names.split())


PER_LAYER: Tuple[Metric, ...] = (
    *_layer("bgp.bulk_load_s", "s"),
    *_layer("bgp.submit_self_ms bgp.readvertise_self_ms", "ms"),
    *_layer("bgp.updates_processed bgp.best_route_changes", "count", count=True),
    *_layer("core.fec.group_s core.vnh.assign_s", "s"),
    *_layer("core.fec.prefix_groups core.vnh.ephemeral_peak", "count", count=True),
    *_layer("core.compiler.compile_s core.compiler.defaults_s "
            "core.compiler.outbound_s core.compiler.inbound_s "
            "core.compiler.composition_s", "s"),
    *_layer("core.compiler.compile_calls", "count", count=True),
    *_layer("core.incremental.fastpath_self_ms", "ms"),
    *_layer("core.incremental.fastpath_rules "
            "core.incremental.fastpath_rules_live_peak", "count", count=True),
    *_layer("core.incremental.background_recompile_s "
            "core.incremental.install_full_self_s", "s"),
    *_layer("southbound.sync_self_s", "s"),
    *_layer("southbound.push_self_ms", "ms"),
    *_layer("southbound.flowmods_sent southbound.flowmods_coalesced "
            "southbound.rules_unchanged southbound.batches", "count", count=True),
    *_layer("southbound.reinstall_ratio", "ratio", count=True),
    *_layer("dataplane.apply_delta_self_ms", "ms"),
    *_layer("dataplane.table_rules_peak", "count", count=True),
    *_layer("dataplane.probe_us", "us"),
    *_layer("dataplane.probe_kpps", "kpkt/s", "higher"),
    *_layer("controller.op_tail_ms controller.policy_change_p50_ms", "ms"),
    *_layer("statics.verify_delta_ms statics.policy_gate_ms", "ms"),
    *_layer("statics.full_analysis_s", "s"),
    *_layer("statics.incremental_speedup", "ratio", "higher"),
    *_layer("statics.verify_calls statics.error_diagnostics statics.rollbacks",
            "count", count=True),
    *_layer("runtime.step_self_ms runtime.queue_wait_p50_ms", "ms"),
    *_layer("runtime.queue_depth_p99 runtime.events_processed "
            "runtime.events_dropped runtime.recompiles", "count", count=True),
    *_layer("runtime.coalescing_ratio", "ratio", "higher", count=True),
    *_layer("telemetry.trace_overhead_pct telemetry.unattributed_pct", "%"),
)


def contract() -> dict:
    """The ``BENCHMARK.json`` document this catalogue stands for."""
    return {
        "command": ["python3", "benchmarks/sdxbench/run.py"],
        "paths": ["benchmarks/sdxbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
