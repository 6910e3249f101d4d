"""The five workloads: set-up, the measured phase, and the output checks.

Each workload drives only public entry points of :mod:`repro`, one
operation after the previous returned (closed loop; ``burst_runtime``
is open at burst granularity — a whole burst is queued at its trace
timestamp before anything drains). Nothing here starts a thread.

The measured phase of every workload is a sequence of *cycles* of
identical composition (one cold start; N updates and the background
recompilation that follows them; one burst; one policy add/remove pair;
one quarter of the gated mix); throughput is work per cycle over the
time of the cycle's ops. Every timing is corrected for the speed of the
host around it (:mod:`hostspeed`) and the run reports medians (see
``worker.end_to_end``).

Checks run after the measured phase, outside every timed region. Each
mismatch, each op that raised and each dropped runtime event counts as
one failed op.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from catalogue import Sizes, Workload
from inputs import Inputs, generate, with_real_next_hops
from spans import WARMUP, Recorder

from repro.bgp.messages import Announcement, Update
from repro.core.controller import SdxController
from repro.exceptions import StaticDataplaneError, StaticPolicyError
from repro.runtime import RuntimeConfig
from repro.runtime.clock import ManualClock
from repro.statics.dataplane import analyze_controller_dataplane
from repro.verification.invariants import (
    check_bgp_consistency,
    check_single_delivery,
)
from repro.verification.oracle import compare_controllers
from repro.verification.runtime import canonical_state
from repro.workloads.policies import install_assignments

#: ``canonical_state`` walks every (participant, prefix) pair; above this
#: many pairs only the touched prefixes' best routes are compared.
_CANONICAL_PAIR_LIMIT = 100_000

#: Probe packets and senders the forwarding checks replay on both the
#: measured controller and the fresh one.
_CHECK_PROBES = 20
_CHECK_SENDERS = 12

GATED = {"with_dataplane": True, "statics_mode": "strict",
         "dataplane_statics_mode": "strict"}


@dataclass
class Cycle:
    """One cycle of the measured phase: how much work, and which slice of
    the recorder's op log it spans."""

    work: int
    begin: int
    end: int


@dataclass
class Outcome:
    """What one workload run produced, before it is turned into metrics."""

    digest: str = ""
    #: Host-speed-corrected seconds of each set-up repetition.
    setup: List[float] = field(default_factory=list)
    cycles: List[Cycle] = field(default_factory=list)
    flow_rules: int = 0
    prefix_groups: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)


class Run:
    """One workload run in progress: the recorder plus failure accounting."""

    def __init__(self, workload: Workload, sizes: Sizes, seed: int,
                 recorder: Recorder):
        self.op_kind = workload.op_kind
        self.sizes = sizes
        self.seed = seed
        self.recorder = recorder
        self.outcome = Outcome()

    @contextlib.contextmanager
    def cycle(self, work: int) -> Iterator[None]:
        """One cycle of ``work`` items: the ops run inside the block."""
        begin = len(self.recorder.log)
        yield
        self.outcome.cycles.append(Cycle(work, begin, len(self.recorder.log)))

    def attempt(self, kind: str, call: Callable, *args) -> bool:
        """Run and time one op; a raise is a failed op, not a crash."""
        self.outcome.attempted += 1
        try:
            with self.recorder.op(kind):
                call(*args)
        except (StaticPolicyError, StaticDataplaneError) as error:
            self.outcome.counts["rollbacks"] = (
                self.outcome.counts.get("rollbacks", 0) + 1)
            self.fail(f"{kind} rejected by a strict gate: {error}")
            return False
        except Exception as error:  # noqa: BLE001 - the run must finish and report
            self.fail(f"{kind} raised {type(error).__name__}: {error}")
            return False
        return True

    def fail(self, detail: str) -> None:
        """Count one failed op."""
        self.outcome.failed += 1
        if len(self.outcome.failures) < 20:
            self.outcome.failures.append(detail)

    def check(self, ok: bool, detail: str) -> None:
        """One output check: counts as an op, and as a failure when not ok."""
        self.outcome.attempted += 1
        if not ok:
            self.fail(detail)

    def check_empty(self, problems: Sequence, label: str) -> None:
        """One output check that passes when ``problems`` is empty."""
        self.check(not problems,
                   f"{label}: {len(problems)} problem(s), first: "
                   f"{problems[0] if problems else ''}")

    def set_up(self, *steps: Callable[[object], object]) -> object:
        """Run the set-up ``setup_reps`` times, timing each; keep the last.

        ``steps`` run in order, each fed the previous one's result. Each
        is timed and corrected for host speed on its own, so a four-second
        set-up is not corrected by two samples four seconds apart.
        """
        state = None
        host = self.recorder.host
        for _ in range(self.sizes.setup_reps):
            state = None
            gc.collect()
            seconds = 0.0
            for step in steps:
                host.refresh(stale=0.02)
                started = time.perf_counter()
                state = step(state)
                elapsed = time.perf_counter() - started
                host.refresh(stale=0.02)
                seconds += host.corrected(started, elapsed)
            self.outcome.setup.append(seconds)
        return state

    def generate(self) -> Inputs:
        """This run's inputs; records their digest."""
        inputs = generate(self.sizes, self.seed)
        self.outcome.digest = inputs.digest
        return inputs


def quiesce_heap() -> None:
    """Collect garbage, then move every surviving object out of the cyclic
    collector's reach (``gc.freeze``).

    Called when set-up ends. Without it a full collection — 0.1 s over
    the million objects of a loaded fig-8 exchange — lands inside
    whichever op happens to cross the allocation threshold: the same cold
    compile measured 0.33-0.49 s with the heap unfrozen and 0.34-0.36 s
    frozen. Objects allocated afterwards are collected as usual.
    """
    gc.collect()
    gc.freeze()


def build(inputs: Inputs) -> SdxController:
    """Empty controller -> tables loaded -> policies installed -> started."""
    controller = inputs.ixp.build_controller()
    install_assignments(controller, inputs.policies)
    controller.start()
    return controller


def _ready(run: Run, **kwargs) -> Tuple[Inputs, SdxController]:
    """Set-up shared by the four workloads that measure a running exchange."""
    def load(inputs: Inputs) -> Tuple[Inputs, SdxController]:
        return inputs, inputs.ixp.build_controller(**kwargs)

    def start(state: Tuple[Inputs, SdxController]):
        inputs, controller = state
        install_assignments(controller, inputs.policies)
        controller.start()
        inputs.updates = with_real_next_hops(inputs.updates, controller)
        return state

    inputs, controller = run.set_up(lambda _none: run.generate(), load, start)
    run.recorder.watch(controller)
    quiesce_heap()
    _cold_compiles(run, controller, run.sizes.compiles)
    return inputs, controller


def _cold_compile(controller: SdxController) -> None:
    controller.compiler.invalidate_inbound_cache()
    controller.compiler.compile()


def _cold_compiles(run: Run, controller: SdxController, count: int) -> None:
    """``count`` Fig. 8 compiles. Only ever called on a just-started
    engine, where the stable VNH assignment makes a bare compile leave
    allocator and table exactly as they were — and where the exchange is
    still the shape's, so every workload and every seed times the same
    compile."""
    for _ in range(count):
        run.attempt("compile", _cold_compile, controller)
        # A 36 ms compile (60 x 1 000) would share one host-speed sample
        # with six others; give each its own bracket.
        run.recorder.host.refresh(stale=0.02)


def _finish(run: Run, controller: SdxController) -> None:
    """Final recompilation, then the table-size counts."""
    controller.run_background_recompilation()
    outcome = run.outcome
    outcome.flow_rules = len(controller.table)
    outcome.prefix_groups = controller.last_compilation.prefix_group_count
    outcome.counts.update(
        updates_processed=controller.route_server.updates_processed,
        **{f"southbound_{key}": value
           for key, value in controller.southbound.stats.snapshot().items()})


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def rebuild(controller: SdxController) -> SdxController:
    """A fresh, started, ungated controller from ``controller``'s final
    Adj-RIB-In and policies — what a restart at this instant would compile."""
    fresh = SdxController(with_dataplane=controller.fabric is not None)
    for old in controller.topology.participants_in_order():
        fresh.add_participant(old.name, old.asn, ports=len(old.ports),
                              announce=False)
    fresh.load_routes(
        Update(sender=old.name, announcements=tuple(
            Announcement(entry.prefix, entry.attributes)
            for entry in controller.route_server.routes_from(old.name)))
        for old in controller.topology.participants_in_order())
    for old in controller.topology.participants_in_order():
        new = fresh.topology.participant(old.name)
        for policy in old.outbound_policies:
            new.add_outbound(policy)
        for policy in old.inbound_policies:
            new.add_inbound(policy)
    fresh.start()
    return fresh


def _route_key(entry) -> Optional[tuple]:
    if entry is None:
        return None
    attributes = entry.attributes
    return (entry.learned_from, str(attributes.next_hop),
            tuple(attributes.as_path.asns), attributes.med,
            attributes.local_pref)


def state_summary(controller: SdxController, touched: Sequence) -> dict:
    """Rule count, prefix->VNH partition up to renaming, and the best
    route of every participant for each ``touched`` prefix."""
    server = controller.route_server
    groups: Dict[str, List[str]] = {}
    unassigned = []
    for prefix in server.all_prefixes():
        vnh = controller.allocator.next_hop_for_prefix(prefix)
        if vnh is None:
            unassigned.append(str(prefix))
        else:
            groups.setdefault(str(vnh), []).append(str(prefix))
    return {
        "rule_count": len(controller.table),
        "partition": frozenset(tuple(sorted(g)) for g in groups.values()),
        "unassigned": tuple(sorted(unassigned)),
        "best_routes": {
            (participant.name, str(prefix)): _route_key(
                server.best_route_for(participant.name, prefix))
            for participant in controller.topology.participants()
            for prefix in touched},
    }


def check_against_fresh(run: Run, controller: SdxController,
                        touched: Sequence) -> SdxController:
    """The incrementally maintained exchange equals a fresh build of it."""
    fresh = rebuild(controller)
    have, want = state_summary(controller, touched), state_summary(fresh, touched)
    for key in have:
        run.check(have[key] == want[key],
                  f"{key} differs from a fresh controller built on the "
                  f"final routes and policies")
    pairs = len(controller.topology.participants()) * len(
        controller.route_server.all_prefixes())
    if pairs <= _CANONICAL_PAIR_LIMIT:
        run.check_empty(
            canonical_state(fresh).diff(canonical_state(controller)),
            "canonical state")
    return fresh


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def cold_start(run: Run) -> None:
    """Cold starts of the fig-8 corner exchange; a cycle is one of them."""
    inputs = run.set_up(lambda _none: run.generate())
    sizes = run.sizes
    summaries = []
    controller: Optional[SdxController] = None

    def start() -> None:
        nonlocal controller
        controller = build(inputs)

    for _ in range(sizes.cold_starts):
        gc.unfreeze()
        controller = None
        quiesce_heap()
        with run.cycle(1):
            started = run.attempt("cold_start", start)
        if not started:
            continue
        run.recorder.watch(controller)
        quiesce_heap()
        _cold_compiles(run, controller,
                       max(1, sizes.compiles // sizes.cold_starts))
        summary = state_summary(controller, ())
        summary["groups"] = controller.last_compilation.prefix_group_count
        summaries.append(summary)
    if controller is None:
        return
    _finish(run, controller)
    run.check(all(s == summaries[0] for s in summaries),
              "cold starts of the same tables disagree on rules or grouping")
    run.check(len(controller.table) == summaries[0]["rule_count"],
              "a cold compile changed the installed table")


def _chunks(items: Sequence, count: int) -> List[Sequence]:
    """``items`` cut into ``count`` equal chunks (a short tail is dropped)."""
    size = len(items) // count
    return [items[index * size:(index + 1) * size] for index in range(count)]


def update_churn(run: Run) -> None:
    """The Table-1 trace replayed inline; a cycle is ``recompile_every``
    updates and the background recompilation that follows them."""
    inputs, controller = _ready(run)
    sizes = run.sizes
    for update in inputs.updates[:sizes.warmup_updates]:
        run.attempt(WARMUP, controller.submit_update, update)
    measured = inputs.updates[sizes.warmup_updates:]
    for chunk in _chunks(measured, len(measured) // sizes.recompile_every):
        with run.cycle(len(chunk)):
            for update in chunk:
                run.attempt("update", controller.submit_update, update)
            run.attempt("recompile", controller.run_background_recompilation)
    _finish(run, controller)
    check_against_fresh(run, controller, inputs.touched)


def burst_runtime(run: Run) -> None:
    """Flap-storm bursts through the step-driven runtime on a manual clock;
    a cycle is one burst, queued whole at its trace timestamp."""
    inputs, controller = _ready(run)
    clock = ManualClock()
    runtime = controller.build_runtime(RuntimeConfig(batch_size=64), clock=clock)

    def burst(updates: Sequence[Update]) -> None:
        for update in updates:
            runtime.submit_update(update)
        while not runtime.queue.is_empty:
            runtime.step()
        runtime.settle()

    for arrival, updates in zip(
            inputs.burst_times, _chunks(inputs.updates, len(inputs.burst_times))):
        clock.set(arrival)
        with run.cycle(len(updates)):
            run.attempt("burst", burst, updates)
    stats = runtime.stats()
    _finish(run, controller)
    run.outcome.counts.update(
        runtime_submitted=stats["submitted_total"],
        runtime_processed=stats["processed"],
        runtime_coalesced=stats["coalesced"],
        runtime_dropped=stats["dropped"],
        runtime_batches=stats["batches"],
        runtime_coalescing_ratio=stats["coalescing_ratio"],
        runtime_queue_depth_p99=stats["queue_depth_percentiles"]["p99"],
        runtime_queue_wait_p50_ms=stats["ingest_seconds"]["p50"] * 1e3)
    run.check(stats["submitted_total"] == stats["processed"]
              + stats["coalesced"] + stats["dropped"],
              f"runtime lost events: {stats}")
    run.outcome.attempted += stats["submitted_total"]
    run.outcome.failed += stats["dropped"]
    check_against_fresh(run, controller, inputs.touched)


def policy_churn(run: Run) -> None:
    """One-clause outbound policy added, then removed; a cycle is one pair."""
    inputs, controller = _ready(run)
    for index, change in enumerate(inputs.changes):
        handle = controller.participant(change.participant)
        policy = change.policy()
        if index < run.sizes.warmup_pairs:
            run.attempt(WARMUP, handle.add_outbound, policy)
            run.attempt(WARMUP, handle.remove_outbound, policy)
            continue
        with run.cycle(2):
            run.attempt("policy_change", handle.add_outbound, policy)
            run.attempt("policy_change", handle.remove_outbound, policy)
    _finish(run, controller)
    check_against_fresh(run, controller, ())


def gated_changes(run: Run) -> None:
    """Updates, policy changes and probes on a live fabric under strict
    gates. A cycle is a run of updates, then one policy change (a pair's
    add, or next cycle its remove), then a block of probes — so table
    reads run beside table writes with and without the extra clause."""
    inputs, controller = _ready(run, **GATED)
    sizes = run.sizes
    for update in inputs.updates[:sizes.warmup_updates]:
        run.attempt(WARMUP, controller.submit_update, update)
    cycles = 2 * sizes.pairs
    policies = [change.policy() for change in inputs.changes]
    deliveries = 0

    def probe_block(block: Sequence) -> None:
        nonlocal deliveries
        for sender, packet in block:
            deliveries += len(controller.send(sender, packet))

    blocks = _chunks(inputs.probes, cycles)
    for index, updates in enumerate(
            _chunks(inputs.updates[sizes.warmup_updates:], cycles)):
        handle = controller.participant(inputs.changes[index // 2].participant)
        with run.cycle(len(updates)):
            for update in updates:
                run.attempt("update", controller.submit_update, update)
            run.attempt("policy_change",
                        handle.remove_outbound if index % 2 else handle.add_outbound,
                        policies[index // 2])
            run.attempt("probe_block", probe_block, blocks[index])
    run.outcome.attempted += len(inputs.probes)
    _finish(run, controller)
    run.outcome.counts.update(probe_deliveries=deliveries,
                              probe_block_size=len(blocks[0]))

    fresh = check_against_fresh(run, controller, inputs.touched)
    corpus = [packet for _sender, packet in inputs.probes[:_CHECK_PROBES]]
    senders = sorted({sender for sender, _packet in inputs.probes})[:_CHECK_SENDERS]
    run.check_empty(compare_controllers(fresh, controller, corpus, senders),
                    "forwarding differs from the fresh controller")
    run.check_empty(check_single_delivery(controller, corpus), "single delivery")
    run.check_empty(check_bgp_consistency(controller, corpus), "BGP consistency")
    host = run.recorder.host
    host.refresh()
    began = time.perf_counter()
    full = analyze_controller_dataplane(controller)
    seconds = time.perf_counter() - began
    host.refresh()
    run.outcome.counts["full_analysis_s"] = host.corrected(began, seconds)
    run.outcome.counts["error_diagnostics"] = len(full.errors)
    run.check_empty(full.errors, "dataplane analysis errors")
    run.check(controller.dataplane_verifier.state_report().to_json()
              == full.to_json(),
              "incremental verifier state differs from the full analysis")


DRIVERS: Dict[str, Callable[[Run], None]] = {
    "cold_start": cold_start,
    "update_churn": update_churn,
    "burst_runtime": burst_runtime,
    "policy_churn": policy_churn,
    "gated_changes": gated_changes,
}


def run_workload(workload: Workload, seed: int, *, tracing: bool = False,
                 sizes: Optional[Sizes] = None
                 ) -> Tuple[Outcome, Recorder]:
    """Run ``workload`` once on ``seed``; ``sizes`` overrides its catalogue
    sizes (the harness test's tiny exchange, ``--seconds`` rescaling)."""
    recorder = Recorder(tracing)
    run = Run(workload, sizes if sizes is not None else workload.sizes, seed,
              recorder)
    try:
        with recorder.shims_installed():
            DRIVERS[workload.name](run)
    finally:
        gc.unfreeze()
    return run.outcome, recorder
