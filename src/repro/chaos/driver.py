"""The chaos driver: replay a fault schedule against two lockstep arms.

One :class:`ChaosRunner` holds a PR-3 :class:`~repro.verification
.scenario.Scenario` trace in two arms — inline (direct ``submit_update``
per event, the oracle's incremental arm) and through a deterministic
:class:`~repro.runtime.loop.ControlPlaneRuntime` — while injecting the
faults of a :class:`~repro.workloads.churn.ChaosSchedule` into *both*
arms at the same trace positions. It is the ``chaos``
:class:`~repro.verification.kernel.Check` — the ``runtime`` check's two
arms plus faults — and the trace loop is
:func:`repro.verification.kernel.replay`. Because every fault is applied
symmetrically, the runtime-vs-inline equivalence contract of PR-4 must
keep holding at every quiesce point, fault or no fault.

Standing assertions, checked after each fault and at final settle:

* **equivalence** — :func:`~repro.verification.runtime.canonical_state`
  of the two arms matches (up to VNH renaming);
* **no FlowMod loss** — a :class:`~repro.verification.invariants
  .SwapMonitor` wraps every single-transition region (each individual
  peer failure and the final flush) and must observe only
  old-path-or-new-path outcomes;
* **no stuck route** — after the final flush, forwarding equivalence
  over the probe corpus plus every standing invariant
  (:func:`~repro.verification.invariants.check_all`, which contains the
  FIB-vs-route-server conformance check that catches a surviving wedge).

Peer state is modelled honestly: while a session is down the peer's
*intended* table keeps evolving with the trace (real routers do not
pause BGP because one exchange session died), trace steps from a down
peer are skipped at the exchange, and recovery re-announces the intended
table as a storm through the runtime's ingest queue. All activity is
recorded as ``sdx_chaos_*`` metrics.

:func:`run_chaos_soak` (``python -m repro soak --chaos``) derives an
independent (scenario, schedule) pair per iteration and hands it to
:func:`repro.verification.kernel.run_session` — the budgeted replay /
shrink / artifact loop ``repro fuzz`` runs (``sdx_harness_*`` counters,
labelled ``chaos``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bgp.asn import AsPath
from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Update
from repro.net.addresses import IPv4Prefix
from repro.telemetry import Telemetry, get_telemetry
from repro.verification.invariants import SwapMonitor
from repro.verification.kernel import (
    Case,
    Check,
    OracleFailure,
    SessionConfig,
    SessionReport,
    replay,
    run_session,
)
from repro.verification.runtime import (
    RuntimeEquivalence,
    canonical_state,
    settled_divergence,
)
from repro.verification.scenario import Scenario, generate_scenario
from repro.workloads.churn import (
    FAULT_KINDS,
    ChaosFault,
    ChaosSchedule,
    generate_chaos_schedule,
)
from repro.workloads.seeding import derive_seed

#: An intended route at a peer: (as-path, MED) for one prefix.
IntendedRoute = Tuple[Tuple[int, ...], int]


@dataclass(frozen=True)
class FaultOutcome:
    """Convergence accounting for one injected fault.

    ``events`` and ``batches`` are the runtime-arm deltas (events
    processed / batches drained) spent converging after the fault —
    deterministic proxies for convergence work — and ``wall_seconds``
    the measured wall-clock time (noisy; benchmarks prefer the deltas).
    ``applied`` is False when a determinism guard skipped the fault
    (e.g. ``peer_down`` on an already-down peer).
    """

    kind: str
    step: int
    participants: Tuple[str, ...]
    applied: bool
    events: int = 0
    batches: int = 0
    storm_updates: int = 0
    wall_seconds: float = 0.0


def convergence_by_kind(outcomes: Iterable[FaultOutcome]
                        ) -> Dict[str, Dict[str, float]]:
    """Faults, runtime events, batches and wall time per applied kind."""
    out: Dict[str, Dict[str, float]] = {}
    for outcome in outcomes:
        if not outcome.applied:
            continue
        slot = out.setdefault(outcome.kind, {
            "faults": 0.0, "events": 0.0, "batches": 0.0,
            "wall_seconds": 0.0})
        slot["faults"] += 1.0
        slot["events"] += outcome.events
        slot["batches"] += outcome.batches
        slot["wall_seconds"] += outcome.wall_seconds
    return out


@dataclass
class ChaosReport:
    """The outcome of one chaos run."""

    schedule: ChaosSchedule
    outcomes: List[FaultOutcome] = field(default_factory=list)
    failure: Optional[OracleFailure] = None
    steps_executed: int = 0
    steps_skipped: int = 0
    storm_updates: int = 0
    settle_checks: int = 0

    @property
    def ok(self) -> bool:
        """True when every assertion held."""
        return self.failure is None

    def convergence_by_kind(self) -> Dict[str, Dict[str, float]]:
        """Per-fault-kind convergence aggregates (for the bench family)."""
        return convergence_by_kind(self.outcomes)

    def summary(self) -> str:
        """A deterministic multi-line summary (no wall-clock numbers)."""
        applied = [o for o in self.outcomes if o.applied]
        lines = [
            f"chaos seed={self.schedule.seed}: "
            f"{len(self.schedule.faults)} fault(s) scheduled, "
            f"{len(applied)} applied, {self.steps_executed} step(s), "
            f"{self.steps_skipped} skipped while down, "
            f"{self.storm_updates} storm update(s)",
        ]
        for outcome in applied:
            lines.append(
                f"  {outcome.kind}@{outcome.step}"
                f"({','.join(outcome.participants)}): "
                f"{outcome.events} event(s), {outcome.batches} batch(es)")
        if self.failure is None:
            lines.append("all settle assertions held")
        else:
            lines.append(f"FAIL {self.failure.kind} after step "
                         f"{self.failure.step}: {self.failure.detail}")
        return "\n".join(lines)


class ChaosRunner(RuntimeEquivalence):
    """The ``chaos`` check over one scenario + schedule; see the module
    docstring. ``report`` carries the run's accounting.

    The quiesce cadence between faults and the probe corpus size are the
    case's ``recompile_every`` / ``corpus_size``. ``recover_at_end``
    brings every still-down peer back (with its re-announcement storm)
    before the final settle so the end state is fault-free.
    """

    name = "chaos"

    def __init__(self, *, recover_at_end: bool = True,
                 telemetry: Optional[Telemetry] = None):
        super().__init__()
        self.recover_at_end = recover_at_end
        self.telemetry = telemetry if telemetry is not None else get_telemetry()

    def start(self, case: Case) -> Optional[OracleFailure]:
        """Build both arms, bind the schedule, reset the peer model."""
        super().start(case)
        scenario, schedule = case.scenario, case.schedule
        self.schedule = schedule
        registry = self.telemetry.registry
        self._skipped_faults_counter = registry.counter(
            "sdx_chaos_faults_skipped_total",
            "Faults skipped by a determinism guard")
        self._storm_counter = registry.counter(
            "sdx_chaos_storm_updates_total",
            "Re-announcement storm updates submitted after recoveries")
        self._steps_skipped_counter = registry.counter(
            "sdx_chaos_steps_skipped_total",
            "Trace steps dropped because the sender's session was down")
        self._settle_checks_counter = registry.counter(
            "sdx_chaos_settle_checks_total",
            "Equivalence/invariant assertion rounds evaluated")
        self._assertion_failures_counter = registry.counter(
            "sdx_chaos_assertion_failures_total",
            "Settle assertions that failed")
        self.report = ChaosReport(schedule=schedule)
        self._down: Set[str] = set()
        self._pending_recovery: Dict[int, List[str]] = {}
        self._port_ips = scenario.port_ips()
        self._intended: Dict[str, Dict[str, IntendedRoute]] = {
            name: {} for name in scenario.participant_names()}
        for announcement in scenario.announcements:
            self._intended[announcement.participant][announcement.prefix] = (
                tuple(announcement.as_path), 0)
        return None

    # ------------------------------------------------------------------
    # Arm plumbing
    # ------------------------------------------------------------------

    def _quiesce(self) -> List[str]:
        """Drain both arms; returns swap violations seen on the routed arm."""
        violations = self._swap_guarded(self.runtime.settle)
        self.inline.run_background_recompilation()
        return violations

    def _swap_guarded(self, region: Callable[[], object]) -> List[str]:
        """Run ``region`` under a :class:`SwapMonitor`."""
        with SwapMonitor(self.routed, self.probes) as monitor:
            region()
        return [str(violation) for violation in monitor.violations()]

    def _runtime_counts(self) -> Tuple[int, int]:
        stats = self.runtime.stats()
        return int(stats["processed"]), int(stats["batches"])

    # ------------------------------------------------------------------
    # Peer lifecycle helpers
    # ------------------------------------------------------------------

    def _storm(self, peer: str) -> int:
        """Re-announce the peer's intended table on both arms."""
        table = sorted(self._intended[peer].items())
        for prefix, (as_path, med) in table:
            attributes = RouteAttributes(
                next_hop=self._port_ips[peer], as_path=AsPath(as_path),
                med=med)
            self._submit(
                Update.announce(peer, IPv4Prefix(prefix), attributes))
        self._storm_counter.inc(len(table))
        self.report.storm_updates += len(table)
        return len(table)

    def _fail_one(self, peer: str) -> List[str]:
        """Fail ``peer`` on both arms; returns routed-arm swap violations.

        Both arms quiesce first so no event from the peer is still
        queued when its session dies — the lockstep model's analogue of
        TCP teardown flushing in-flight updates before the notification.
        """
        violations = self._quiesce()
        violations += self._swap_guarded(
            lambda: self.routed.route_server.fail_peer(peer))
        self.inline.route_server.fail_peer(peer)
        self._down.add(peer)
        return violations

    def _recover_one(self, peer: str) -> int:
        """Recover ``peer`` on both arms and submit its storm."""
        self.routed.route_server.recover_peer(peer)
        self.inline.route_server.recover_peer(peer)
        self._down.discard(peer)
        return self._storm(peer)

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------

    def _apply_fault(self, fault: ChaosFault,
                     fired_at: int) -> Tuple[bool, int, List[str]]:
        """Inject one fault into both arms.

        Returns ``(applied, storm updates submitted, swap violations)``.
        Determinism guards make every fault meaningful regardless of the
        session states the schedule happens to meet: failing a dead peer
        is a no-op, flapping or mid-swap-resetting a dead peer recovers
        it first, injecting a stuck route needs a live session.
        """
        swap_violations: List[str] = []
        storms = 0
        if fault.kind in ("peer_down", "correlated_failure"):
            targets = [p for p in fault.participants if p not in self._down]
            if not targets:
                return False, 0, []
            for peer in targets:
                swap_violations += self._fail_one(peer)
        elif fault.kind == "peer_up":
            for peer in fault.participants:
                if peer in self._down:
                    storms += self._recover_one(peer)
                else:
                    # Already up: a pure (idempotent) announcement storm.
                    storms += self._storm(peer)
        elif fault.kind == "flap":
            peer = fault.participants[0]
            if peer in self._down:
                storms += self._recover_one(peer)
            for cycle in range(max(1, fault.flaps)):
                self._fail_one(peer)
                last = cycle == max(1, fault.flaps) - 1
                if last and fault.hold_steps > 0:
                    # Damping: the final recovery is held back.
                    self._pending_recovery.setdefault(
                        fired_at + fault.hold_steps, []).append(peer)
                else:
                    storms += self._recover_one(peer)
        elif fault.kind == "stuck_route":
            peer = fault.participants[0]
            if peer in self._down or fault.prefix is None:
                return False, 0, []
            # Drain first: a queued trace update for the same (peer,
            # prefix) must not reorder past the injection on one arm.
            swap_violations += self._quiesce()
            attributes = RouteAttributes(
                next_hop=self._port_ips[peer],
                as_path=AsPath(fault.as_path))
            update = Update.announce(
                peer, IPv4Prefix(fault.prefix), attributes)
            self.routed.route_server.inject_unnotified(update)
            self.inline.route_server.inject_unnotified(update)
            self._intended[peer][fault.prefix] = (fault.as_path, 0)
        elif fault.kind == "midswap_reset":
            peer = fault.participants[0]
            if peer in self._down:
                storms += self._recover_one(peer)
                self._quiesce()
            storms += self._midswap_reset(peer)
        return True, storms, swap_violations

    def _midswap_reset(self, peer: str) -> int:
        """Reset ``peer`` from inside a southbound swap on both arms."""
        self._quiesce()

        def one_shot(controller) -> Callable[[object], None]:
            fired = [False]

            def on_batch(_batch: object) -> None:
                if fired[0]:
                    return
                fired[0] = True
                controller.route_server.reset_session(peer)
            return on_batch

        for controller in (self.inline, self.routed):
            observer = one_shot(controller)
            controller.southbound.add_observer(observer)
            try:
                controller.recompile()
            finally:
                controller.southbound.remove_observer(observer)
        # The reset flushed the peer's table; it re-announces as usual.
        return self._storm(peer)

    # ------------------------------------------------------------------
    # Assertions
    # ------------------------------------------------------------------

    def _check_equivalence(self, step: int, label: str,
                           swap_violations: List[str]) -> Optional[OracleFailure]:
        """The per-fault settle assertion: swaps clean + states equal."""
        self._settle_checks_counter.inc()
        self.report.settle_checks += 1
        if swap_violations:
            return OracleFailure(f"chaos-swap:{label}", step,
                                 swap_violations[0])
        problems = canonical_state(self.inline).diff(
            canonical_state(self.routed))
        if problems:
            return OracleFailure(f"chaos-equivalence:{label}", step,
                                 problems[0])
        return None

    def _check_final(self, step: int) -> Optional[OracleFailure]:
        """The end-of-run assertions: state, forwarding, invariants."""
        self._settle_checks_counter.inc()
        self.report.settle_checks += 1
        found = settled_divergence(self.inline, self.routed, self.probes)
        if found is None:
            return None
        aspect, detail = found
        return OracleFailure(
            "chaos-equivalence:final" if aspect == "state"
            else f"chaos-{aspect}", step, detail)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _fire_faults(self, index: int,
                     faults: Tuple[ChaosFault, ...]) -> Optional[OracleFailure]:
        for fault in faults:
            started = time.monotonic()
            events_before, batches_before = self._runtime_counts()
            applied, storms, swap_violations = self._apply_fault(fault, index)
            if not applied:
                self._skipped_faults_counter.inc()
                self.report.outcomes.append(FaultOutcome(
                    kind=fault.kind, step=fault.step,
                    participants=fault.participants, applied=False))
                continue
            swap_violations += self._quiesce()
            events_after, batches_after = self._runtime_counts()
            registry = self.telemetry.registry
            registry.counter("sdx_chaos_faults_total",
                             "Chaos faults injected", kind=fault.kind).inc()
            registry.counter(
                "sdx_chaos_convergence_events_total",
                "Runtime events processed converging after a fault",
                kind=fault.kind).inc(events_after - events_before)
            self.report.outcomes.append(FaultOutcome(
                kind=fault.kind, step=fault.step,
                participants=fault.participants, applied=True,
                events=events_after - events_before,
                batches=batches_after - batches_before,
                storm_updates=storms,
                wall_seconds=time.monotonic() - started))
            # A wedge is *expected* to defeat equivalence-by-settle only
            # in the compiled state, which canonical_state excludes; the
            # stuck prefix appears in both arms' RIBs identically, so the
            # assertion still must hold here and the flush check comes
            # at the end.
            failure = self._check_equivalence(fault.step, fault.kind,
                                              swap_violations)
            if failure is not None:
                return failure
        return None

    def _fire_pending(self, index: int) -> None:
        for peer in self._pending_recovery.pop(index, []):
            if peer in self._down:
                self._recover_one(peer)

    def _verdict(self, failure: Optional[OracleFailure]
                 ) -> Optional[OracleFailure]:
        """Record ``failure`` (if any) on the report and its counter."""
        self.report.failure = failure
        if failure is not None:
            self._assertion_failures_counter.inc()
        return failure

    def after_step(self, index: int, step, update: Update
                   ) -> Optional[OracleFailure]:
        """Submit (or skip) the step, then fire the faults due after it."""
        if step.participant in self._down:
            self._steps_skipped_counter.inc()
            self.report.steps_skipped += 1
        else:
            self._submit(update)
            self.report.steps_executed += 1
        self._note_intended(step)
        if (index + 1) % self.drain_every == 0:
            self._quiesce()
        self._fire_pending(index)
        return self._verdict(self._fire_faults(
            index, self.schedule.faults_at(index)))

    def at_settle(self, last: int) -> Optional[OracleFailure]:
        """Post-trace faults, recoveries, final flush, final assertions."""
        end = last + 1
        # Post-trace faults, oldest step first (schedule order).
        failure = self._fire_faults(end, self.schedule.faults_after(end))
        if failure is None:
            for pending in sorted(self._pending_recovery):
                self._fire_pending(pending)
            if self.recover_at_end:
                for peer in sorted(self._down):
                    self._recover_one(peer)
            self._quiesce()
            # The explicit full recompilation that un-wedges stuck routes.
            swap_violations = self._swap_guarded(self.routed.recompile)
            self.inline.recompile()
            failure = (OracleFailure("chaos-swap:final-flush", end,
                                     swap_violations[0])
                       if swap_violations else self._check_final(end))
        return self._verdict(failure)

    def _note_intended(self, step) -> None:
        """Advance the sender's intended table, down or not."""
        table = self._intended[step.participant]
        if step.kind == "withdraw":
            table.pop(step.prefix, None)
        else:
            table[step.prefix] = (tuple(step.as_path), step.med)


def run_chaos(scenario: Scenario, schedule: ChaosSchedule, *,
              recover_at_end: bool = True,
              telemetry: Optional[Telemetry] = None) -> ChaosReport:
    """Replay one chaos schedule against ``scenario``; the full report."""
    runner = ChaosRunner(recover_at_end=recover_at_end, telemetry=telemetry)
    replay(Case(scenario, schedule), [runner])
    return runner.report


@dataclass(frozen=True)
class ChaosSoakConfig(SessionConfig):
    """Tunables for one chaos soak session.

    ``faults`` and ``fault_kinds`` shape each derived schedule (the
    default schedule length covers every kind, see
    :func:`~repro.workloads.churn.generate_chaos_schedule`).
    """

    scenarios: int = 3
    steps: int = 16
    policies: int = 4
    faults: int = 6
    fault_kinds: Tuple[str, ...] = FAULT_KINDS


@dataclass
class ChaosSoakReport(SessionReport):
    """The outcome of one chaos soak session."""

    settle_checks: int = 0
    outcomes: List[FaultOutcome] = field(default_factory=list)

    @property
    def faults_applied(self) -> int:
        """Faults actually injected (not skipped by a determinism guard)."""
        return sum(1 for outcome in self.outcomes if outcome.applied)

    @property
    def convergence(self) -> Dict[str, Dict[str, float]]:
        """Per-fault-kind convergence aggregates over the session."""
        return convergence_by_kind(self.outcomes)

    def kinds_covered(self) -> Tuple[str, ...]:
        """Fault kinds applied at least once, in canonical order."""
        return tuple(kind for kind in FAULT_KINDS
                     if kind in self.convergence)

    def record(self, case: Case, checks: Sequence[Check],
               failure: Optional[OracleFailure]) -> None:
        """Fold one chaos run's accounting into the session totals."""
        run = checks[0].report  # type: ignore[attr-defined]
        self.outcomes.extend(run.outcomes)
        self.steps_executed += run.steps_executed
        self.settle_checks += run.settle_checks

    def headline(self) -> List[str]:
        """Session totals, then per-fault-kind convergence work."""
        lines = [
            f"chaos seed={self.config.seed}: {self.scenarios_run} "
            f"scenario(s), {self.faults_applied} fault(s) applied, "
            f"{self.steps_executed} step(s), {self.settle_checks} "
            f"settle check(s)",
        ]
        convergence = self.convergence
        covered = self.kinds_covered()
        if covered:
            lines.append("fault kinds covered: " + ", ".join(covered))
        for kind in covered:
            stats = convergence[kind]
            lines.append(
                f"  {kind}: {int(stats['faults'])} fault(s), "
                f"{int(stats['events'])} convergence event(s), "
                f"{int(stats['batches'])} batch(es)")
        return lines


def run_chaos_soak(config: ChaosSoakConfig,
                   telemetry: Optional[Telemetry] = None) -> ChaosSoakReport:
    """Run one chaos soak session; never raises on a finding."""
    telemetry = telemetry if telemetry is not None else get_telemetry()

    def make_case(index: int) -> Case:
        scenario = generate_scenario(
            derive_seed(config.seed, f"chaos-scenario-{index}"),
            participants=config.participants, prefixes=config.prefixes,
            policies=config.policies, steps=config.steps)
        return Case(scenario, generate_chaos_schedule(
            derive_seed(config.seed, f"chaos-schedule-{index}"),
            scenario.participant_names(), prefixes=scenario.prefixes,
            trace_length=len(scenario.trace), faults=config.faults,
            kinds=config.fault_kinds))

    report = ChaosSoakReport(config)
    run_session(config, report, make_case, harness="chaos",
                checks_for=lambda case: [ChaosRunner(telemetry=telemetry)],
                telemetry=telemetry)
    return report
