"""The event-driven control-plane runtime (Section 5 scalability story).

The paper's burst-absorption argument assumes a layer the reproduction
long drove by hand: something that queues BGP churn, collapses redundant
updates, schedules the background re-optimisation between bursts, and
sheds or degrades under overload instead of falling over. This package
is that layer. It sits *between* event sources (BGP sessions, policy
API calls, workload drivers) and the existing
:class:`~repro.core.controller.SdxController`, which stays synchronous
and single-threaded underneath:

- :mod:`repro.runtime.events` — typed control-plane events with a
  priority class (policy changes > withdrawals > announcements) and a
  per-(participant, prefix) coalescing key;
- :mod:`repro.runtime.queue` — the bounded, prioritized, coalescing
  event queue with explicit overload accounting;
- :mod:`repro.runtime.scheduler` — adaptive background-recompilation
  triggers (fast-path-rule and ephemeral-VNH watermarks, idle gaps)
  replacing manual :meth:`~repro.core.controller.SdxController
  .run_background_recompilation` calls;
- :mod:`repro.runtime.clock` — the logical clock abstraction that makes
  the idle trigger deterministic under test;
- :mod:`repro.runtime.loop` — :class:`ControlPlaneRuntime`, the event
  loop itself, driven step by step by its caller (the verification
  oracle replays it against a manual clock, the soak driver runs it on
  wall time).

Everything the runtime does is recorded under ``sdx_runtime_*`` in the
controller's telemetry registry, including ``_dropped_total`` loss
counters for shed events (see :mod:`repro.telemetry.registry`).
"""

from repro.runtime.clock import Clock, ManualClock, MonotonicClock
from repro.runtime.events import (
    EventClass,
    OverloadPolicy,
    RuntimeEvent,
    classify_update,
    coalescing_key,
)
from repro.runtime.loop import ControlPlaneRuntime, RuntimeConfig
from repro.runtime.queue import OfferOutcome, RuntimeQueue
from repro.runtime.scheduler import RecompilationScheduler, SchedulerConfig

__all__ = [
    "Clock",
    "ControlPlaneRuntime",
    "EventClass",
    "ManualClock",
    "MonotonicClock",
    "OfferOutcome",
    "OverloadPolicy",
    "RecompilationScheduler",
    "RuntimeConfig",
    "RuntimeEvent",
    "RuntimeQueue",
    "SchedulerConfig",
    "classify_update",
    "coalescing_key",
]
