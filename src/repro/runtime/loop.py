"""The control-plane event loop: ingest, coalesce, drain, recompile.

:class:`ControlPlaneRuntime` is the layer the paper leaves implicit
between "BGP updates arrive in bursts" (Section 5) and the two-stage
compilation that absorbs them (Section 4.3.2). Producers call
:meth:`~ControlPlaneRuntime.submit_update` /
:meth:`~ControlPlaneRuntime.submit_policy`; events land in the bounded
prioritized :class:`~repro.runtime.queue.RuntimeQueue`; the loop drains
them in batches into the synchronous
:class:`~repro.core.controller.SdxController` underneath.

The loop is step-driven: the caller drives
:meth:`~ControlPlaneRuntime.step` / :meth:`~ControlPlaneRuntime.drain` /
:meth:`~ControlPlaneRuntime.settle`, on its own cadence and against
either clock. Against a :class:`~repro.runtime.clock.ManualClock` this is
what the verification oracle replays: same inputs, same batches, same
final state, every run; the soak driver runs the same steps on wall time.

Overload behaviour is the configured
:class:`~repro.runtime.events.OverloadPolicy`: ``block`` drains one batch
inside the submitting call, ``shed-oldest`` drops the oldest
lowest-priority event (counted once in ``sdx_runtime_events_dropped_total``),
and ``degrade`` suspends participant policies under sustained saturation
— default-BGP-route-only forwarding is cheap to maintain per update —
then restores and recompiles them once the queue drains and stays calm
(hysteresis on both edges, so a hot burst cannot thrash the compiler
with restore/suspend cycles).

Each batch is processed inside the southbound engine's
:meth:`~repro.southbound.engine.SouthboundEngine.deferred` window, so a
batch's worth of FlowMods coalesces into one priority-safe flush. After
every batch the :class:`~repro.runtime.scheduler.RecompilationScheduler`
decides whether the background re-optimisation is due.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.bgp.messages import Update
from repro.core.controller import SdxController
from repro.exceptions import StaticDataplaneError, StaticPolicyError
from repro.runtime.clock import Clock, MonotonicClock
from repro.runtime.events import (
    EventClass,
    OverloadPolicy,
    PolicyApply,
    RuntimeEvent,
    classify_update,
)
from repro.runtime.queue import DRAIN_ORDER, OfferOutcome, RuntimeQueue
from repro.runtime.scheduler import RecompilationScheduler, SchedulerConfig
from repro.telemetry.log import kv

logger = logging.getLogger("repro.runtime.loop")


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunables for the control-plane runtime.

    ``max_queue_depth`` bounds pending events; ``overload_policy`` picks
    what happens at the bound. ``batch_size`` caps events per drain
    step. ``coalesce`` enables per-(participant, prefix) collapsing.
    ``degrade_high_fraction`` / ``degrade_low_fraction`` are the
    saturation/reset watermarks of degrade mode as fractions of the
    queue bound, and ``degrade_patience`` is symmetric hysteresis: how
    many consecutive saturated submissions are tolerated before
    policies are suspended, and how many consecutive calm drain steps
    (queue empty, no saturation) are required before they are restored.
    """

    max_queue_depth: int = 1024
    overload_policy: OverloadPolicy = OverloadPolicy.BLOCK
    batch_size: int = 64
    coalesce: bool = True
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    degrade_high_fraction: float = 0.75
    degrade_low_fraction: float = 0.25
    degrade_patience: int = 16


class ControlPlaneRuntime:
    """The event loop between event sources and the SDX controller."""

    def __init__(self, controller: SdxController,
                 config: Optional[RuntimeConfig] = None,
                 clock: Optional[Clock] = None):
        self.controller = controller
        self.config = config if config is not None else RuntimeConfig()
        self.clock = clock if clock is not None else MonotonicClock()
        self.queue = RuntimeQueue(self.config.max_queue_depth,
                                  coalesce=self.config.coalesce)
        self.scheduler = RecompilationScheduler(
            controller.engine, self.config.scheduler, self.clock)
        self.telemetry = controller.telemetry
        self._seq = 0
        self._monitor = None
        self._monitoring_handlers: List[Callable[[object, SdxController], None]] = []
        self._saturated_offers = 0
        self._calm_steps = 0
        self._degrade_high = max(
            1, int(self.config.max_queue_depth * self.config.degrade_high_fraction))
        self._degrade_low = int(
            self.config.max_queue_depth * self.config.degrade_low_fraction)
        telemetry = self.telemetry
        self._event_counters = {
            cls: telemetry.counter(
                "sdx_runtime_events_total",
                "Events submitted to the runtime", **{"class": cls.label})
            for cls in DRAIN_ORDER}
        self._coalesced_counter = telemetry.counter(
            "sdx_runtime_coalesced_total",
            "Events absorbed by per-(participant, prefix) coalescing")
        self._dropped_counter = telemetry.counter(
            "sdx_runtime_events_dropped_total",
            "Events shed under overload")
        self._processed_counter = telemetry.counter(
            "sdx_runtime_processed_total", "Events drained into the controller")
        self._rejected_counter = telemetry.counter(
            "sdx_runtime_policy_rejected_total",
            "Drained events whose change a strict gate refused (and undid)")
        self._batch_counter = telemetry.counter(
            "sdx_runtime_batches_total", "Drain batches processed")
        self._blocked_counter = telemetry.counter(
            "sdx_runtime_blocked_total",
            "Submissions that hit the queue bound under the block policy")
        self._depth_gauge = telemetry.gauge(
            "sdx_runtime_queue_depth", "Pending events right now")
        self._depth_histogram = telemetry.histogram(
            "sdx_runtime_queue_depth_samples",
            "Queue depth sampled at each submission")
        self._ingest_histogram = telemetry.histogram(
            "sdx_runtime_ingest_seconds",
            "Ingest-to-install latency (first enqueue to controller apply)")
        self._degraded_gauge = telemetry.gauge(
            "sdx_runtime_degraded", "1 while policies are suspended")
        self._degrade_counter = telemetry.counter(
            "sdx_runtime_degrade_entries_total",
            "Times sustained overload suspended policies")

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------

    def submit_update(self, update: Update) -> None:
        """Queue one BGP update for the controller.

        May coalesce into a pending event for the same (participant,
        prefix); may block, shed, or degrade when the queue is full.
        """
        kind = classify_update(update)
        self._submit(RuntimeEvent(
            kind=kind, seq=self._next_seq(),
            enqueued_wall=time.perf_counter(), update=update))

    def submit_policy(self, label: str, apply: PolicyApply) -> None:
        """Queue a policy change: ``apply(controller)`` runs at drain.

        Policy events outrank every BGP event in the queue and never
        coalesce.
        """
        self._submit(RuntimeEvent(
            kind=EventClass.POLICY, seq=self._next_seq(),
            enqueued_wall=time.perf_counter(), apply=apply, label=label))

    def submit_monitoring(self, observation: object, label: str = "") -> None:
        """Queue one data-plane observation for the monitoring handlers.

        Monitoring events drain after every routing event and are the
        first shed under overload; they never coalesce (each observation
        carries distinct measurements and the detectors rate-limit).
        """
        self._submit(RuntimeEvent(
            kind=EventClass.MONITORING, seq=self._next_seq(),
            enqueued_wall=time.perf_counter(), monitoring=observation,
            label=label or type(observation).__name__))

    def attach_monitor(self, monitor) -> None:
        """Poll ``monitor`` from the drain loop and queue what it emits.

        ``monitor`` needs one method — ``poll(now) -> iterable of
        observations`` — called with the runtime clock after every drain
        step (including idle heartbeats, so monitoring advances while
        the control plane is quiet). The monitor owns its cadence:
        ``poll`` returns nothing until a sampling interval has elapsed,
        which keeps :meth:`drain` terminating.
        """
        self._monitor = monitor

    def add_monitoring_handler(
            self, handler: Callable[[object, SdxController], None]) -> None:
        """Run ``handler(observation, controller)`` for every drained
        monitoring event — this is where reactive apps subscribe."""
        self._monitoring_handlers.append(handler)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _submit(self, event: RuntimeEvent) -> None:
        self.scheduler.note_event()
        self._event_counters[event.kind].inc()
        while True:
            outcome = self.queue.offer(event)
            if outcome is not OfferOutcome.FULL:
                break
            self._handle_full()
        if outcome is OfferOutcome.COALESCED:
            self._coalesced_counter.inc()
        depth = self.queue.depth
        self._depth_gauge.set(depth)
        self._depth_histogram.observe(depth)
        self._note_pressure(depth)

    def _handle_full(self) -> None:
        """Apply the overload policy; returns once space (may) exist."""
        self._calm_steps = 0
        policy = self.config.overload_policy
        if policy is OverloadPolicy.SHED_OLDEST:
            shed = self.queue.shed_oldest()
            if shed is not None:
                # The events it absorbed are already counted as coalesced.
                self._dropped_counter.inc()
                logger.warning("shed %s", kv(event=shed.describe(),
                                             absorbed=shed.absorbed))
                return
        if policy is OverloadPolicy.DEGRADE:
            # A full queue is saturation however the counter stood.
            self._saturated_offers = max(
                self._saturated_offers, self.config.degrade_patience)
            self._enter_degraded()
        # block (and the degrade policy's backpressure half): drain one
        # batch synchronously to make room.
        self._blocked_counter.inc()
        self.step()

    def _note_pressure(self, depth: int) -> None:
        if self.config.overload_policy is not OverloadPolicy.DEGRADE:
            return
        if depth >= self._degrade_high:
            self._calm_steps = 0
            self._saturated_offers += 1
            if self._saturated_offers >= self.config.degrade_patience:
                self._enter_degraded()
        elif depth <= self._degrade_low:
            self._saturated_offers = 0

    # ------------------------------------------------------------------
    # Degrade mode
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while overload has the controller's policies suspended."""
        return self.controller.policies_suspended

    def _enter_degraded(self) -> None:
        if self.controller.policies_suspended:
            return
        logger.warning("degrade enter %s", kv(
            depth=self.queue.depth, saturated=self._saturated_offers))
        self.controller.suspend_policies()
        self._degrade_counter.inc()
        self._degraded_gauge.set(1)

    def _maybe_recover(self, *, force: bool = False) -> None:
        if not self.controller.policies_suspended:
            return
        # Recover only after a sustained calm streak (the queue drained
        # and stayed unsaturated for ``degrade_patience`` consecutive
        # drain steps, mirroring the entry patience): every exit pays a
        # restore + recompile, and a mid-burst exit would thrash
        # straight back into degrade.
        if not force and (not self.queue.is_empty
                          or self._calm_steps < self.config.degrade_patience):
            return
        logger.info("degrade exit %s", kv(depth=self.queue.depth))
        self.controller.restore_policies()
        self._degraded_gauge.set(0)
        self._saturated_offers = 0
        self.scheduler.note_recompiled()

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------

    def step(self, limit: Optional[int] = None) -> int:
        """Drain one batch; returns events processed.

        After the batch, degrade recovery and the recompilation
        scheduler run — so stepping an empty queue can still trigger an
        idle-gap background recompilation.
        """
        batch = self.queue.pop(limit if limit is not None
                               else self.config.batch_size)
        if batch:
            self._process_batch(batch)
        if self.queue.is_empty:
            self._calm_steps += 1
        self._maybe_recover()
        trigger = self.scheduler.due(queue_empty=self.queue.is_empty)
        if trigger is not None:
            self._recompile(trigger)
        self._poll_monitor()
        return len(batch)

    def drain(self) -> int:
        """Step until the queue is empty; returns events processed."""
        total = 0
        while not self.queue.is_empty:
            total += self.step()
        return total

    def settle(self) -> int:
        """Drain fully, restore degraded policies, finish recompilation.

        After this returns the controller is in the same steady state a
        patient inline driver would have reached: queue empty, policies
        active, fast-path debt swapped away. Returns events processed.
        """
        processed = self.drain()
        self._maybe_recover(force=True)
        if self.controller.engine.dirty:
            self._recompile("settle")
        return processed

    def _poll_monitor(self) -> None:
        if self._monitor is None:
            return
        for observation in self._monitor.poll(self.clock.now()):
            self.submit_monitoring(observation)

    def _process_batch(self, batch: List[RuntimeEvent]) -> None:
        with self.telemetry.span("runtime.step", events=len(batch)):
            with self.controller.southbound.deferred():
                for event in batch:
                    self._process_event(event)
        self._batch_counter.inc()
        self._processed_counter.inc(len(batch))
        self._depth_gauge.set(self.queue.depth)

    def _process_event(self, event: RuntimeEvent) -> None:
        try:
            if event.update is not None:
                self.controller.submit_update(event.update)
            elif event.apply is not None:
                event.apply(self.controller)
            elif event.monitoring is not None:
                for handler in self._monitoring_handlers:
                    handler(event.monitoring, self.controller)
        except (StaticPolicyError, StaticDataplaneError) as error:
            # Already undone by the controller: the batch goes on.
            self._rejected_counter.inc()
            logger.warning("rejected %s", kv(event=event.describe(),
                                             error=error))
        self._ingest_histogram.observe(
            time.perf_counter() - event.enqueued_wall)

    def _recompile(self, trigger: str) -> None:
        with self.telemetry.span("runtime.recompile", trigger=trigger):
            result = self.controller.run_background_recompilation()
        if result is not None:
            self.telemetry.counter(
                "sdx_runtime_recompiles_total",
                "Background recompilations by trigger", trigger=trigger).inc()
            self.scheduler.note_recompiled()
            logger.info("recompile %s", kv(trigger=trigger,
                                           seconds=result.total_seconds))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """A snapshot of the runtime's counters for reports and tests."""
        submitted = {cls.label: self._event_counters[cls].value
                     for cls in DRAIN_ORDER}
        total = sum(submitted.values())
        coalesced = self._coalesced_counter.value
        return {
            "submitted": submitted,
            "submitted_total": total,
            "coalesced": coalesced,
            "coalescing_ratio": (coalesced / total) if total else 0.0,
            "dropped": self._dropped_counter.value,
            "processed": self._processed_counter.value,
            "batches": self._batch_counter.value,
            "blocked": self._blocked_counter.value,
            "queue_depth": self.queue.depth,
            "queue_depth_percentiles":
                self._depth_histogram.percentiles(),
            "ingest_seconds": self._ingest_histogram.percentiles(),
            "degrade_entries": self._degrade_counter.value,
            "degraded": self.degraded,
        }

    def __repr__(self) -> str:
        return (f"ControlPlaneRuntime(depth={self.queue.depth}, "
                f"policy={self.config.overload_policy.value})")
