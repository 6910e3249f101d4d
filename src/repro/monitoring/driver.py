"""The one traffic driver: scenario flows on the runtime's simulated clock.

:class:`MonitoredTrafficDriver` is the harness behind the monitoring
loops, the ``monitor-smoke`` CI scenario and the Figure 5 timelines.
Tick *i* is at ``i × tick`` from the clock's reading when the run began;
per tick it

1. sends one representative packet per active flow, with ``size_bytes``
   folding the whole tick's volume into that packet (so byte counters
   carry real rates without simulating millions of packets);
2. records **ground truth** — each flow's FEC, volume and fabric
   deliveries, entirely outside the monitoring path — in one
   :class:`TickRecord`, from which per-FEC bytes, per-port bytes and
   per-label rates are all read;
3. moves the (manual) runtime clock to the next tick and steps the
   runtime, which is what triggers cadenced monitor polls, event
   dispatch, idle-gap recompilation and any queued policy changes.

Estimated-vs-true accuracy then falls out of comparing the collector's
windowed rates against :meth:`ground_truth_rates` over the same window.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.controller import SdxController
from repro.dataplane.fabric import Delivery
from repro.monitoring.stats import fec_label
from repro.runtime.clock import ManualClock
from repro.runtime.loop import ControlPlaneRuntime
from repro.workloads.scenarios import ScenarioFlow

#: The label :meth:`TickRecord.label_rates` gives a flow nothing accepted.
DROPPED = "dropped"


@dataclass(frozen=True)
class FlowTick:
    """One flow's traffic in one tick: its FEC, volume and deliveries."""

    flow: ScenarioFlow
    fec: str
    size_bytes: int
    deliveries: Tuple[Delivery, ...]


@dataclass
class TickRecord:
    """Ground truth for one driver tick."""

    time: float
    flows: List[FlowTick] = field(default_factory=list)

    @property
    def fec_bytes(self) -> Counter:
        """Bytes sent per FEC label."""
        totals: Counter = Counter()
        for sent in self.flows:
            totals[sent.fec] += sent.size_bytes
        return totals

    @property
    def port_bytes(self) -> Counter:
        """Bytes accepted per egress switch port."""
        totals: Counter = Counter()
        for sent in self.flows:
            for delivery in sent.deliveries:
                if delivery.accepted:
                    totals[delivery.switch_port] += sent.size_bytes
        return totals

    def label_rates(self, classify: Callable[[Delivery], str]
                    ) -> Dict[str, float]:
        """Mbps per label: ``classify`` names a flow's first accepted
        delivery; a flow with none counts as :data:`DROPPED`."""
        rates: Dict[str, float] = {}
        for sent in self.flows:
            accepted = [d for d in sent.deliveries if d.accepted]
            label = classify(accepted[0]) if accepted else DROPPED
            rates[label] = rates.get(label, 0.0) + sent.flow.rate_mbps
        return rates


class MonitoredTrafficDriver:
    """Replays scenario flows against a runtime-fronted controller.

    The runtime's clock must be a :class:`~repro.runtime.clock.ManualClock`:
    simulation time only moves when the driver ticks, which keeps
    monitoring cadence, flow windows, scheduling and ground truth on one
    timeline.
    """

    def __init__(self, controller: SdxController,
                 runtime: ControlPlaneRuntime,
                 flows: Sequence[ScenarioFlow], *,
                 tick_seconds: float = 1.0):
        if tick_seconds <= 0:
            raise ValueError(f"tick must be positive, got {tick_seconds}")
        if controller.fabric is None:
            raise ValueError("traffic driver needs a data-plane controller")
        if runtime.controller is not controller:
            raise ValueError("runtime does not front the given controller")
        if not isinstance(runtime.clock, ManualClock):
            raise ValueError("driver needs a manually advanced clock")
        self.controller = controller
        self.runtime = runtime
        self.clock = runtime.clock
        self.flows = list(flows)
        self.tick_seconds = tick_seconds
        self.history: List[TickRecord] = []

    def run(self, duration: float, *,
            on_tick: Optional[Callable[[TickRecord], None]] = None) -> int:
        """Drive ``duration`` seconds of traffic; returns ticks executed.

        Each tick sends the active flows' volume, records ground truth,
        moves the clock to the next tick, and steps the runtime once.
        ``on_tick`` (if given) observes the just-recorded tick after
        that step — the monitoring loops watch convergence with it, and
        the Figure 5 timelines land their timed changes from it.
        """
        origin = self.clock.now()
        index = 0
        while index * self.tick_seconds < duration - 1e-9:
            offset = index * self.tick_seconds
            record = TickRecord(time=origin + offset)
            for flow in self.flows:
                if not flow.active_at(offset):
                    continue
                size = int(flow.rate_mbps * self.tick_seconds * 1e6 / 8)
                if size <= 0:
                    continue
                deliveries = self.controller.send(
                    flow.source, flow.packet, size_bytes=size)
                record.flows.append(FlowTick(
                    flow=flow, fec=fec_label(self.controller, flow.dst_prefix),
                    size_bytes=size, deliveries=tuple(deliveries)))
            self.history.append(record)
            index += 1
            self.clock.set(origin + index * self.tick_seconds)
            self.runtime.step()
            if on_tick is not None:
                on_tick(record)
        return index

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------

    def _window(self, window_seconds: float,
                until: Optional[float]) -> List[TickRecord]:
        if not self.history:
            return []
        end = self.history[-1].time if until is None else until
        # Half-open window (start, end]: a tick stamped exactly at the
        # window's start belongs to the previous window, so an N-second
        # window holds N one-second ticks, not N+1.
        start = end - window_seconds
        return [r for r in self.history if start < r.time <= end]

    def _rates(self, window_seconds: float, until: Optional[float],
               per_tick: Callable[[TickRecord], Counter]) -> Dict:
        """Mbps per key of ``per_tick``'s byte counts over the window."""
        totals: Counter = Counter()
        for record in self._window(window_seconds, until):
            totals.update(per_tick(record))
        span = max(window_seconds, self.tick_seconds)
        return {key: count * 8.0 / (span * 1e6)
                for key, count in totals.items()}

    def ground_truth_rates(self, window_seconds: float, *,
                           until: Optional[float] = None) -> Dict[str, float]:
        """True per-FEC rates (Mbps) over the trailing window."""
        return self._rates(window_seconds, until,
                           lambda record: record.fec_bytes)

    def ground_truth_port_rates(self, window_seconds: float, *,
                                until: Optional[float] = None
                                ) -> Dict[int, float]:
        """True per-egress-port rates (Mbps) over the trailing window."""
        return self._rates(window_seconds, until,
                           lambda record: record.port_bytes)

    def port_share(self, ports: Sequence[int], *,
                   window_seconds: float) -> Tuple[float, ...]:
        """Each port's fraction of the window's delivered bytes."""
        rates = self.ground_truth_port_rates(window_seconds)
        values = [rates.get(port, 0.0) for port in ports]
        total = sum(values)
        if total <= 0:
            return tuple(0.0 for _ in values)
        return tuple(value / total for value in values)
