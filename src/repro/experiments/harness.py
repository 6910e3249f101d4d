"""One runner per table/figure of the paper's evaluation (Section 5-6).

Each ``run_*`` function regenerates the corresponding result at a
configurable scale and returns plain data (rows, series, or CDFs) that
the benchmark files print next to the paper's reported values. Scales
default to laptop-friendly sizes; pass larger parameters to approach the
paper's.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bgp.asn import AsPath
from repro.core.controller import SdxController
from repro.core.fec import minimum_disjoint_subsets
from repro.dataplane.fabric import Delivery
from repro.experiments.metrics import Cdf, Series
from repro.monitoring.driver import MonitoredTrafficDriver
from repro.net.addresses import IPv4Prefix
from repro.net.packet import Packet
from repro.policy.policies import fwd, match, modify
from repro.runtime import (
    ControlPlaneRuntime,
    ManualClock,
    RuntimeConfig,
    SchedulerConfig,
)
from repro.workloads.datasets import ALL_PROFILES, IxpProfile
from repro.workloads.policies import loaded_exchange
from repro.workloads.scenarios import ScenarioFlow
from repro.workloads.topology import SyntheticIxp, generate_ixp
from repro.workloads.updates import TraceEvent, generate_trace, trace_stats


# ----------------------------------------------------------------------
# Table 1 — dataset statistics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    """One IXP column of Table 1: paper numbers beside regenerated ones."""

    profile: IxpProfile
    measured_updates: int
    measured_prefixes: int
    measured_fraction_updated: float
    measured_fraction_small_bursts: float
    measured_fraction_gaps_over_10s: float


def run_table1(scale: float = 0.002, seed: int = 0,
               profiles: Sequence[IxpProfile] = ALL_PROFILES) -> List[Table1Row]:
    """Regenerate Table 1 from synthetic traces at ``scale``."""
    rows: List[Table1Row] = []
    for profile in profiles:
        scaled = profile.scaled(scale)
        ixp = generate_ixp(scaled.collector_peers, scaled.prefixes, seed=seed)
        events = generate_trace(
            ixp,
            duration_seconds=float(profile.duration_days * 86_400),
            seed=seed,
            fraction_prefixes_updated=profile.fraction_prefixes_updated,
            max_updates=scaled.bgp_updates)
        stats = trace_stats(events, total_prefixes=len(ixp.all_prefixes()))
        rows.append(Table1Row(
            profile=profile,
            measured_updates=stats.updates,
            measured_prefixes=stats.total_prefixes,
            measured_fraction_updated=stats.fraction_prefixes_updated,
            measured_fraction_small_bursts=stats.fraction_small_bursts,
            measured_fraction_gaps_over_10s=stats.fraction_gaps_over_10s))
    return rows


# ----------------------------------------------------------------------
# Figure 6 — prefix groups vs prefixes
# ----------------------------------------------------------------------

def run_fig6(participant_counts: Sequence[int] = (100, 200, 300),
             prefix_counts: Sequence[int] = (5_000, 10_000, 15_000, 20_000, 25_000),
             total_prefixes: int = 25_000,
             seed: int = 0) -> List[Series]:
    """Prefix groups as a function of policy-covered prefixes.

    Mirrors Section 6.2: take the top-N ASes by prefix count, sample x
    prefixes to carry SDX policies, intersect with each AS's announced
    set, and run Minimum Disjoint Subsets.
    """
    ixp = generate_ixp(max(participant_counts), total_prefixes, seed=seed)
    rng = random.Random(seed + 1)
    universe = ixp.all_prefixes()
    announced_sets: Dict[str, set] = {spec.name: set() for spec in ixp.participants}
    for name, prefix, _path in ixp.announcements:
        announced_sets[name].add(prefix)
    announced = {name: frozenset(prefixes)
                 for name, prefixes in announced_sets.items()}
    ranked = sorted(announced, key=lambda name: -len(announced[name]))
    series_list: List[Series] = []
    for count in participant_counts:
        members = ranked[:count]
        series = Series(label=f"{count} participants")
        for x in prefix_counts:
            sample = frozenset(rng.sample(universe, k=min(x, len(universe))))
            collection = [announced[name] & sample for name in members]
            groups = minimum_disjoint_subsets(
                [subset for subset in collection if subset])
            series.add(x, len(groups))
        series_list.append(series)
    return series_list


# ----------------------------------------------------------------------
# Figures 7 & 8 — flow rules and compilation time vs prefix groups
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CompilationPoint:
    """One full compilation of a generated IXP."""

    participants: int
    prefixes: int
    prefix_groups: int
    flow_rules: int
    seconds: float


def run_compilation_sweep(
        participant_counts: Sequence[int] = (100, 200, 300),
        prefix_counts: Sequence[int] = (2_000, 5_000, 10_000, 15_000),
        seed: int = 0, *, use_vnh: bool = True,
        optimized: bool = True) -> List[CompilationPoint]:
    """Compile generated IXPs across a (participants × prefixes) grid."""
    points: List[CompilationPoint] = []
    for count in participant_counts:
        for prefixes in prefix_counts:
            # reduce_table=False: the post-compilation shadow-elimination
            # pass is this library's own addition; Figures 7/8 measure
            # the paper's pipeline.
            controller, _ixp = loaded_exchange(
                count, prefixes, seed=seed, use_vnh=use_vnh,
                optimized=optimized, reduce_table=False)
            # Compilation at the small end takes tens of milliseconds,
            # where GC pauses dominate single measurements. Time three
            # cold compilations and keep the minimum — the standard
            # noise-robust timing estimator (and still a full pipeline
            # run each time; the cache is invalidated between runs).
            best_seconds = None
            result = None
            for _attempt in range(3):
                controller.compiler.invalidate_inbound_cache()
                result = controller.compiler.compile()
                if best_seconds is None or result.total_seconds < best_seconds:
                    best_seconds = result.total_seconds
            points.append(CompilationPoint(
                participants=count,
                prefixes=prefixes,
                prefix_groups=result.prefix_group_count,
                flow_rules=result.flow_rule_count,
                seconds=best_seconds))
    return points


# ----------------------------------------------------------------------
# Figures 9 & 10 — incremental update behaviour
# ----------------------------------------------------------------------

def run_fig9(burst_sizes: Sequence[int] = (1, 5, 10, 20, 40, 60, 80, 100),
             participant_counts: Sequence[int] = (100, 200, 300),
             prefixes: int = 2_000, seed: int = 0) -> List[Series]:
    """Additional (fast-path) rules as a function of burst size.

    Worst case, as in the paper: every update in the burst changes the
    best path of a distinct prefix.
    """
    series_list: List[Series] = []
    for count in participant_counts:
        controller, ixp = loaded_exchange(count, prefixes, seed=seed)
        rng = random.Random(seed + 2)
        series = Series(label=f"{count} participants")
        universe = ixp.all_prefixes()
        for burst in burst_sizes:
            controller.engine.dirty = True
            controller.run_background_recompilation()
            touched = rng.sample(universe, k=min(burst, len(universe)))
            for prefix in touched:
                perturb_prefix(controller, ixp, prefix, rng)
            series.add(burst, controller.engine.fast_path_rules_live)
        series_list.append(series)
    return series_list


def perturb_prefix(controller: SdxController, ixp: SyntheticIxp,
                   prefix: IPv4Prefix, rng: random.Random) -> None:
    """Re-announce ``prefix`` with a fresh path so its best route moves."""
    announcers = [name for name, p, _path in ixp.announcements if p == prefix]
    name = rng.choice(announcers)
    asn = ixp.by_name(name).asn
    path = AsPath([asn, rng.randrange(64512, 65000), rng.randrange(1000, 60000)])
    controller.announce_route(name, prefix, path)


@dataclass(frozen=True)
class DeltaSwapPoint:
    """One background table swap driven through the southbound engine."""

    burst: int
    table_rules: int
    flowmods_sent: int
    full_reinstall_cost: int
    rules_unchanged: int

    @property
    def savings(self) -> float:
        """Fraction of the naive full-reinstall FlowMods avoided."""
        if self.full_reinstall_cost == 0:
            return 0.0
        return 1.0 - self.flowmods_sent / self.full_reinstall_cost


def run_fig9_delta(burst_sizes: Sequence[int] = (1, 5, 10, 20, 40, 60, 80, 100),
                   participants: int = 100, prefixes: int = 2_000,
                   seed: int = 0) -> List[DeltaSwapPoint]:
    """FlowMods per background swap on the Figure 9 burst workload.

    After each worst-case burst (every update moves a distinct prefix's
    best path), runs the background re-optimisation and counts the
    FlowMods the southbound delta engine actually sent, against the
    table size and the naive delete-everything-reinstall-everything
    cost. The delta must touch strictly fewer rules than the table holds
    — the swap never degenerates into a full reinstall.
    """
    controller, ixp = loaded_exchange(participants, prefixes, seed=seed)
    rng = random.Random(seed + 2)
    universe = ixp.all_prefixes()
    stats = controller.southbound.stats
    points: List[DeltaSwapPoint] = []
    for burst in burst_sizes:
        touched = rng.sample(universe, k=min(burst, len(universe)))
        for prefix in touched:
            perturb_prefix(controller, ixp, prefix, rng)
        table_rules = len(controller.table)
        sent_before = stats.mods_sent
        controller.run_background_recompilation()
        delta = controller.engine.last_delta
        points.append(DeltaSwapPoint(
            burst=burst,
            table_rules=table_rules,
            flowmods_sent=stats.mods_sent - sent_before,
            full_reinstall_cost=delta.full_reinstall_cost,
            rules_unchanged=delta.unchanged))
    return points


def run_fig10_delta(updates: int = 200, participants: int = 100,
                    prefixes: int = 2_000, seed: int = 0,
                    recompile_every: int = 50) -> Dict[str, Cdf]:
    """Southbound cost distributions under the Figure 10 update stream.

    Replays ``updates`` single-prefix perturbations (with a background
    re-optimisation every ``recompile_every`` updates, as between
    bursts) and returns CDFs of the FlowMods each update pushed, the
    batch sizes the engine applied, and per-batch apply latency.
    """
    controller, ixp = loaded_exchange(participants, prefixes, seed=seed)
    rng = random.Random(seed + 3)
    universe = ixp.all_prefixes()
    stats = controller.southbound.stats
    mods_per_update: List[float] = []
    for index in range(updates):
        prefix = rng.choice(universe)
        sent_before = stats.mods_sent
        perturb_prefix(controller, ixp, prefix, rng)
        mods_per_update.append(float(stats.mods_sent - sent_before))
        if (index + 1) % recompile_every == 0:
            controller.run_background_recompilation()
    return {
        "mods_per_update": Cdf(mods_per_update),
        "batch_sizes": stats.batch_size_cdf(),
        "apply_seconds": stats.apply_time_cdf(),
    }


def run_fig10(updates: int = 200,
              participant_counts: Sequence[int] = (100, 200, 300),
              prefixes: int = 2_000, seed: int = 0) -> Dict[int, Cdf]:
    """Per-update processing time CDF (fast path, end to end)."""
    cdfs: Dict[int, Cdf] = {}
    for count in participant_counts:
        controller, ixp = loaded_exchange(count, prefixes, seed=seed)
        rng = random.Random(seed + 3)
        universe = ixp.all_prefixes()
        samples: List[float] = []
        for _ in range(updates):
            prefix = rng.choice(universe)
            started = time.perf_counter()
            perturb_prefix(controller, ixp, prefix, rng)
            samples.append(time.perf_counter() - started)
        cdfs[count] = Cdf(samples)
    return cdfs


# ----------------------------------------------------------------------
# Section 4.3.2 — background re-optimisation between bursts
# ----------------------------------------------------------------------

def replay_trace(controller: SdxController, events: Sequence[TraceEvent], *,
                 gap_seconds: float = 10.0) -> Tuple[ControlPlaneRuntime, int]:
    """Replay a timed trace through the runtime on its simulated clock.

    Section 4.3.2 runs the optimal recompilation "in the background
    between subsequent bursts of updates": the runtime's scheduler fires
    its ``idle`` trigger once ``gap_seconds`` pass with no update. The
    clock is set to each event's time and stepped (a gap may open a
    window), the update is submitted and stepped through the fast path,
    and a final :meth:`~ControlPlaneRuntime.settle` clears what is left.
    Returns the runtime (its ``sdx_runtime_recompiles_total`` counts the
    background runs) and the peak fast-path rules seen after any update.
    """
    if not controller.started:
        raise ValueError("start the controller before replaying a trace")
    clock = ManualClock()
    runtime = controller.build_runtime(
        RuntimeConfig(scheduler=SchedulerConfig(idle_seconds=gap_seconds)),
        clock)
    peak_extra_rules = 0
    for event in events:
        clock.set(event.time)
        runtime.step()
        runtime.submit_update(event.update)
        runtime.step()
        peak_extra_rules = max(peak_extra_rules,
                               controller.engine.fast_path_rules_live)
    runtime.settle()
    return runtime, peak_extra_rules


# ----------------------------------------------------------------------
# Figure 5 — deployment timelines on the traffic driver
# ----------------------------------------------------------------------

#: A timed change: ``(time, label, apply)``, ``apply(controller)``.
TimedChange = Tuple[float, str, Callable[[SdxController], None]]


def run_timeline(sdx: SdxController, flows: Sequence[ScenarioFlow],
                 changes: Sequence[TimedChange], duration: float, *,
                 tick: float = 1.0,
                 classify: Optional[Callable[[Delivery], str]] = None
                 ) -> Tuple[Dict[str, Series], List[Tuple[float, str]]]:
    """Drive ``flows`` through a started data-plane controller for
    ``duration`` simulated seconds on the runtime's clock.

    Returns one Mbps series per label (:meth:`TickRecord.label_rates
    <repro.monitoring.driver.TickRecord.label_rates>` by ``classify``,
    default the egress participant), zero-filled at ticks where a label
    carried nothing, and the ``(time, label)`` log of landed changes. A
    change enters through ``runtime.submit_policy`` and is stepped in
    before the first tick at or after its time sends; one with no such
    tick never lands.
    """
    clock = ManualClock()
    runtime = sdx.build_runtime(clock=clock)
    driver = MonitoredTrafficDriver(sdx, runtime, flows, tick_seconds=tick)
    pending = sorted(changes, key=lambda change: change[0])
    landed: List[Tuple[float, str]] = []

    def land(_record=None) -> None:
        now = clock.now()
        if now >= duration - 1e-9:
            return   # no tick is left to send after it
        while pending and pending[0][0] <= now:
            _when, label, apply = pending.pop(0)
            runtime.submit_policy(label, apply)
            landed.append((now, label))
            runtime.step()

    land()
    driver.run(duration, on_tick=land)
    classify = classify or attrgetter("participant")
    rates = [(record.time, record.label_rates(classify))
             for record in driver.history]
    series: Dict[str, Series] = {}
    for _time, by_label in rates:
        for label in by_label:
            series.setdefault(label, Series(label=label))
    for when, by_label in rates:
        for label, line in series.items():
            line.add(when, by_label.get(label, 0.0))
    return series, landed


def _udp_flow(name: str, source: str, prefix: IPv4Prefix, end: float,
              **fields) -> ScenarioFlow:
    """A 1 Mbps UDP flow, as in the deployment experiments."""
    return ScenarioFlow(name=name, source=source,
                        packet=Packet(**fields, protocol=17),
                        dst_prefix=prefix, rate_mbps=1.0, start=0.0, end=end)


# ----------------------------------------------------------------------
# Figure 5a — application-specific peering (deployment experiment)
# ----------------------------------------------------------------------

AWS_PREFIX = IPv4Prefix("54.198.0.0/16")


def _fig5a_controller() -> SdxController:
    sdx = SdxController()
    sdx.add_participant("A", 65001)   # transit via Wisconsin
    sdx.add_participant("B", 65002)   # transit via Clemson
    sdx.add_participant("C", 65003)   # the client's ISP
    sdx.announce_route("A", AWS_PREFIX, AsPath([65001, 2381, 14618]))
    sdx.announce_route("B", AWS_PREFIX, AsPath([65002, 12148, 7843, 14618]))
    sdx.start()
    return sdx


def run_fig5a(duration: float = 1_800.0, policy_time: float = 565.0,
              withdrawal_time: float = 1_253.0,
              time_scale: float = 1.0) -> Tuple[Dict[str, Series], List[Tuple[float, str]]]:
    """The Figure 5a timeline: traffic per egress path over time.

    ``time_scale`` compresses the timeline (0.1 → ten times faster) while
    keeping event positions proportionally identical.
    """
    sdx = _fig5a_controller()
    web_policy = match(dstport=80) >> fwd("B")

    def install_policy(controller: SdxController) -> None:
        controller.participant("C").add_outbound(web_policy)

    def withdraw_route(controller: SdxController) -> None:
        controller.withdraw_route("B", AWS_PREFIX)

    end = duration * time_scale
    flows = [
        _udp_flow(f"flow-{port}", "C", AWS_PREFIX, end,
                  dstip="54.198.0.10", dstport=port, srcip="156.0.0.1")
        for port in (80, 81, 82)
    ]
    changes = [
        (policy_time * time_scale, "application-specific peering policy",
         install_policy),
        (withdrawal_time * time_scale, "route withdrawal", withdraw_route),
    ]
    return run_timeline(sdx, flows, changes, end,
                        tick=max(time_scale, 1e-3) * 10.0)


# ----------------------------------------------------------------------
# Figure 5b — wide-area load balance (deployment experiment)
# ----------------------------------------------------------------------

ANYCAST = IPv4Prefix("74.125.1.0/24")
INSTANCE_1 = "54.198.1.1"
INSTANCE_2 = "54.198.2.2"


def _fig5b_controller() -> SdxController:
    sdx = SdxController()
    sdx.add_participant("A", 65001)   # the clients' ISP
    sdx.add_participant("B", 65002)   # transit toward AWS
    sdx.announce_route("B", AWS_PREFIX, AsPath([65002, 14618]))
    tenant = sdx.add_participant("Tenant", 65099, ports=0)
    sdx.register_ownership(ANYCAST, "Tenant")
    tenant.add_inbound(
        match(dstip="74.125.1.1") >> modify(dstip=INSTANCE_1) >> fwd("B"))
    sdx.start()
    tenant.announce(ANYCAST)
    return sdx


def run_fig5b(duration: float = 600.0, policy_time: float = 246.0,
              time_scale: float = 1.0) -> Tuple[Dict[str, Series], List[Tuple[float, str]]]:
    """The Figure 5b timeline: traffic per AWS instance over time."""
    sdx = _fig5b_controller()

    def install_balancer(controller: SdxController) -> None:
        def balance(tenant) -> None:
            tenant.clear_policies()
            tenant.add_inbound(
                (match(dstip="74.125.1.1") & match(srcip="204.57.0.67"))
                >> modify(dstip=INSTANCE_2) >> fwd("B"))
            tenant.add_inbound(
                match(dstip="74.125.1.1") >> modify(dstip=INSTANCE_1)
                >> fwd("B"))

        controller.participant("Tenant").edit(balance)

    end = duration * time_scale
    flows = [
        _udp_flow("client-1", "A", ANYCAST, end, dstip="74.125.1.1",
                  dstport=80, srcip="204.57.0.67"),
        _udp_flow("client-2", "A", ANYCAST, end, dstip="74.125.1.1",
                  dstport=80, srcip="198.51.100.9"),
    ]
    changes = [(policy_time * time_scale, "load-balance policy",
                install_balancer)]
    instances = {INSTANCE_1: "AWS instance #1", INSTANCE_2: "AWS instance #2"}

    def classify(delivery: Delivery) -> str:
        dstip = str(delivery.packet.get("dstip"))
        return instances.get(dstip, dstip)

    return run_timeline(sdx, flows, changes, end,
                        tick=max(time_scale, 1e-3) * 10.0, classify=classify)
