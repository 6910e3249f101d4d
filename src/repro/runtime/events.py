"""Typed control-plane events: priority classes and coalescing keys.

Every piece of work the runtime schedules is a :class:`RuntimeEvent` in
one of four priority classes, ordered by how urgently the data plane
needs it:

* :attr:`EventClass.POLICY` — a participant installed or removed a
  policy. Highest priority: until it is applied, the switch enforces
  the *wrong intent*, not merely a stale route.
* :attr:`EventClass.WITHDRAWAL` — a BGP update that only withdraws.
  Processed before announcements because a stale withdrawn route
  blackholes (or mis-delivers) traffic, while a stale announcement
  merely delays a better path.
* :attr:`EventClass.ANNOUNCEMENT` — every other BGP update.
* :attr:`EventClass.MONITORING` — a data-plane observation (heavy
  hitter, utilization alarm) from :mod:`repro.monitoring`. Lowest
  priority and first to shed: monitoring is advisory — correctness
  never depends on it, and a stressed control plane should drop a
  stale observation before any routing state.

BGP events that touch exactly one ``(participant, prefix)`` pair carry a
coalescing key: a burst of churn for that pair collapses in the queue to
its latest state before ever reaching the route server (announce /
withdraw / announce → one announce of the final route). This is sound
because the route server's per-sender Adj-RIB-In is last-writer-wins per
prefix — the intermediate states are unobservable once the burst drains.
Policy events never coalesce (two ``add_policy`` calls both matter), and
neither do multi-prefix UPDATEs (splitting them would reorder within one
message).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.bgp.messages import Update

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.controller import SdxController

#: A coalescing key: ("bgp", participant, prefix-text) for single-prefix
#: BGP events, or a unique ("seq", n) tuple for everything else.
EventKey = Tuple[str, str, str]

#: A policy event's payload: a callable applied to the controller when
#: the event drains (e.g. ``lambda c: c.participant("A").add_outbound(p)``).
PolicyApply = Callable[["SdxController"], None]


class EventClass(enum.IntEnum):
    """Priority class of a runtime event; lower value drains first."""

    POLICY = 0
    WITHDRAWAL = 1
    ANNOUNCEMENT = 2
    MONITORING = 3

    @property
    def label(self) -> str:
        """The lowercase metric-label form of the class name."""
        return self.name.lower()


class OverloadPolicy(str, enum.Enum):
    """What the runtime does when the bounded queue is full.

    * ``BLOCK`` — the submitting call drains one batch synchronously to
      make room before the new event enters.
    * ``SHED_OLDEST`` — the oldest event of the lowest-priority occupied
      class is dropped, counted once in
      ``sdx_runtime_events_dropped_total``, and the new event enters.
    * ``DEGRADE`` — like ``BLOCK``, but sustained saturation first
      flips the controller into default-BGP-route-only forwarding
      (policies suspended, cheap per-event work) until the queue
      drains, at which point policies are restored and recompiled in.
    """

    BLOCK = "block"
    SHED_OLDEST = "shed-oldest"
    DEGRADE = "degrade"


def classify_update(update: Update) -> EventClass:
    """The priority class of one BGP update."""
    if update.withdrawals and not update.announcements:
        return EventClass.WITHDRAWAL
    return EventClass.ANNOUNCEMENT


def coalescing_key(update: Update) -> Optional[EventKey]:
    """The per-(participant, prefix) key of ``update``, if it has one.

    Only single-prefix updates coalesce; a multi-prefix UPDATE returns
    ``None`` and is queued verbatim.
    """
    prefixes = update.prefixes
    if len(prefixes) != 1:
        return None
    return ("bgp", update.sender, str(prefixes[0]))


@dataclass
class RuntimeEvent:
    """One unit of control-plane work waiting in the runtime queue.

    Exactly one of ``update`` (a BGP event) and ``apply`` (a policy
    event — a callable run against the controller) is set.
    ``enqueued_wall`` is the ``time.perf_counter`` stamp of first
    enqueue, kept across coalescing so ingest-to-install latency
    reports the *staleness of the oldest absorbed information*, not
    just the final write. ``absorbed`` counts earlier events this one
    replaced.
    """

    kind: EventClass
    seq: int
    enqueued_wall: float
    update: Optional[Update] = None
    apply: Optional[Callable[["SdxController"], None]] = None
    #: A MonitoringEvent payload (kind MONITORING only). Monitoring
    #: events never coalesce: each observation carries distinct
    #: measurements, and the detectors already rate-limit emission.
    monitoring: Optional[object] = None
    label: str = ""
    absorbed: int = field(default=0)

    @property
    def key(self) -> EventKey:
        """The queue key: coalescing key for BGP events, unique otherwise."""
        if self.update is not None:
            shared = coalescing_key(self.update)
            if shared is not None:
                return shared
        return ("seq", "", str(self.seq))

    @property
    def coalescable(self) -> bool:
        """True if later events for the same key may replace this one."""
        return self.update is not None and coalescing_key(self.update) is not None

    def describe(self) -> str:
        """A short human-readable label for logs and drop reports."""
        if self.update is not None:
            prefixes = ",".join(str(p) for p in self.update.prefixes)
            return f"{self.kind.label}:{self.update.sender}:{prefixes}"
        if self.monitoring is not None:
            return f"monitoring:{self.label or type(self.monitoring).__name__}"
        return f"policy:{self.label or '?'}"

    def __repr__(self) -> str:
        return f"RuntimeEvent(#{self.seq} {self.describe()})"
