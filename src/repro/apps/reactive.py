"""Counter-driven SDX applications closing the monitoring loop.

Two apps consume :class:`~repro.monitoring.events.MonitoringEvent`\\ s
(delivered through
:meth:`~repro.runtime.loop.ControlPlaneRuntime.add_monitoring_handler`)
and react by changing policies through the *normal* participant API —
one batched :meth:`~repro.core.sdxpolicy.ParticipantHandle.edit`, a
single change transaction — so the statics verifier and the
runtime-equivalence oracle gate every reactive decision exactly like a
hand-written one, and a refused one leaves policies and app state alone:

* :class:`ReactiveInboundBalancer` — generalises the paper's fig5b
  inbound TE: the source-address space is carved into equal slices,
  each pinned to one of the participant's ports, and when the egress
  imbalance watch raises, the slices are re-packed (greedy LPT on
  measured per-slice rates) onto the ports.
* :class:`HeavyHitterSteering` — a Control-Exchange-Points-style
  offload: when a FEC's rate crosses the heavy-hitter bar, the sender
  drills down to the hottest steerable prefix inside that FEC (per-rule
  counters are finer than FECs) and steers it to an alternate next-hop
  participant, restoring the primary route when the hitter clears.
  BGP-consistency is checked first (the alternate must announce and
  export the prefix), mirroring the compiler's own join.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.controller import SdxController
from repro.core.sdxpolicy import ParticipantHandle
from repro.exceptions import PolicyError
from repro.monitoring.detect import EgressImbalanceWatch
from repro.monitoring.events import (
    EgressImbalance,
    HeavyHitter,
    MonitoringEvent,
)
from repro.monitoring.loop import DataPlaneMonitor
from repro.monitoring.stats import MonitorSample, fec_label
from repro.net.addresses import IPv4Prefix
from repro.policy.policies import Policy, fwd, match
from repro.workloads.scenarios import source_slices


class ReactiveInboundBalancer:
    """Re-splits inbound traffic across ports when egress load skews.

    The participant's inbound policy is always a complete partition of
    the source-address space into ``slice_count`` equal prefixes, each
    forwarded to one port. The initial assignment is round-robin; on an
    :class:`EgressImbalance` raising edge (and after ``cooldown_seconds``
    since the last action) the balancer reads measured per-slice rates
    from the monitor's last sample and re-packs slices onto ports with
    greedy longest-processing-time, then installs the new partition as
    one batched policy change.
    """

    def __init__(self, handle: ParticipantHandle,
                 monitor: DataPlaneMonitor, *,
                 slice_count: int = 8, cooldown_seconds: float = 3.0):
        participant = handle.participant
        if participant.is_remote or len(participant.switch_ports) < 2:
            raise PolicyError(
                f"reactive balancing needs two or more local ports; "
                f"{handle.name!r} does not qualify")
        self.handle = handle
        self.monitor = monitor
        self.slices = source_slices(slice_count)
        self.cooldown_seconds = cooldown_seconds
        self.ports = participant.switch_ports
        #: slice index -> port index (into ``self.ports``).
        self.assignment: Dict[int, int] = {
            index: index % len(self.ports) for index in range(len(self.slices))}
        self._installed: List[Policy] = []
        self._last_action: Optional[float] = None
        #: Completed re-splits (the smoke test's convergence signal).
        self.rebalances = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _policies_for(self, assignment: Dict[int, int]) -> List[Policy]:
        return [
            match(srcip=self.slices[slice_index]) >> fwd(self.ports[port_index])
            for slice_index, port_index in sorted(assignment.items())
        ]

    def _replace_installed(self, fresh: List[Policy]) -> None:
        """Swap the installed partition for ``fresh`` in one change."""
        def swap(participant) -> None:
            for policy in self._installed:
                participant.remove_inbound(policy)
            for policy in fresh:
                participant.add_inbound(policy)

        self.handle.edit(swap)
        self._installed = fresh

    def _apply_assignment(self, assignment: Dict[int, int]) -> None:
        self._replace_installed(self._policies_for(assignment))
        self.assignment = dict(assignment)

    def install(self) -> None:
        """Install the initial round-robin partition."""
        self._apply_assignment(self.assignment)

    def uninstall(self) -> None:
        """Remove every policy the balancer owns."""
        self._replace_installed([])

    def make_watch(self, *, high_ratio: float = 1.5,
                   low_ratio: float = 1.15,
                   min_total_mbps: float = 1.0) -> EgressImbalanceWatch:
        """An imbalance detector wired to this participant's ports."""
        return EgressImbalanceWatch(
            self.handle.name, self.ports, high_ratio=high_ratio,
            low_ratio=low_ratio, min_total_mbps=min_total_mbps)

    # ------------------------------------------------------------------
    # Measurement & reaction
    # ------------------------------------------------------------------

    def slice_rates(self, sample: MonitorSample) -> Dict[int, float]:
        """Measured per-slice EWMA rates from installed-rule counters.

        A compiled rule is attributed to a slice when it forwards to one
        of the participant's ports and its ``srcip`` constraint falls
        inside that slice — which is exactly the shape this balancer's
        own policies compile to (possibly split further per FEC; the
        pieces sum back here).
        """
        ports = set(self.ports)
        rates = {index: 0.0 for index in range(len(self.slices))}
        for view in sample.rules:
            if not any(port in ports for port, _participant in view.egress):
                continue
            srcip = view.rule.match.get("srcip")
            if not isinstance(srcip, IPv4Prefix):
                continue
            for index, block in enumerate(self.slices):
                if block.contains_prefix(srcip):
                    rates[index] += view.ewma_mbps
                    break
        return rates

    def _repack(self, rates: Dict[int, float]) -> Dict[int, int]:
        """Greedy LPT: heaviest slices first onto the lightest port."""
        loads = [0.0] * len(self.ports)
        assignment: Dict[int, int] = {}
        ranked = sorted(rates.items(), key=lambda item: (-item[1], item[0]))
        for slice_index, rate in ranked:
            port_index = min(range(len(loads)), key=lambda i: (loads[i], i))
            assignment[slice_index] = port_index
            loads[port_index] += rate
        return assignment

    def handle_event(self, event: MonitoringEvent,
                     controller: SdxController) -> None:
        """The runtime monitoring handler: react to imbalance edges."""
        if not isinstance(event, EgressImbalance):
            return
        if event.participant != self.handle.name or not event.raised:
            return
        if (self._last_action is not None
                and event.sampled_at - self._last_action < self.cooldown_seconds):
            return
        sample = self.monitor.last_sample
        if sample is None:
            return
        assignment = self._repack(self.slice_rates(sample))
        if assignment == self.assignment:
            return
        self._apply_assignment(assignment)
        self._last_action = event.sampled_at
        self.rebalances += 1


class HeavyHitterSteering:
    """Offloads heavy-hitter traffic to an alternate egress participant.

    The app owns a per-prefix steering table, Control-Exchange-Points
    style: :meth:`install` lays down one baseline outbound policy
    ``match(dstip=prefix) >> fwd(primary)`` per steerable prefix. All
    of those prefixes forward identically, so MDS folds them into
    **one** FEC — the alarm granularity — while the compiled rules keep
    their per-policy ``dstip`` constraints, which is the drill-down
    granularity. The reaction therefore has two steps, mirroring how a
    real deployment would use coarse counters plus targeted queries:

    1. a :class:`HeavyHitter` raising edge names a FEC; the app reads
       per-rule rates from the monitor's last sample and picks the
       hottest steerable prefix *inside* that FEC (declining if the
       alternate does not announce-and-export it, or offload capacity
       is exhausted);
    2. the prefix's policy is rewritten to forward via ``alternate``,
       and when the FEC's clearing edge arrives (offloaded traffic
       still counts toward its FEC, so the alarm holds exactly as long
       as the surge does) every offloaded prefix whose *current* FEC
       label matches is restored to the primary route. Matching by
       current label keeps the release correct even if recompilation
       regroups prefixes between the raise and the clear.
    """

    def __init__(self, handle: ParticipantHandle,
                 monitor: DataPlaneMonitor, *,
                 prefixes: Sequence[IPv4Prefix], primary: str,
                 alternate: str, max_offloads: int = 4):
        self.handle = handle
        self.monitor = monitor
        self.prefixes = tuple(prefixes)
        self.primary = primary
        self.alternate = alternate
        self.max_offloads = max_offloads
        #: prefix string -> the live policy routing it (primary or alt).
        self._routes: Dict[str, Policy] = {}
        self._offloaded: Dict[str, Policy] = {}
        #: FECs that raised but could not be steered (no route via the
        #: alternate, or capacity exhausted) — observability for tests.
        self.declined: List[str] = []

    def install(self) -> None:
        """Install the per-prefix baseline (everything via primary)."""
        routes = {str(prefix): match(dstip=prefix) >> fwd(self.primary)
                  for prefix in self.prefixes}
        self.handle.edit(lambda participant: [
            participant.add_outbound(policy) for policy in routes.values()])
        self._routes.update(routes)

    def offloaded(self) -> Tuple[str, ...]:
        """Currently steered prefixes, sorted."""
        return tuple(sorted(self._offloaded))

    def handle_event(self, event: MonitoringEvent,
                     controller: SdxController) -> None:
        """The runtime monitoring handler: react to heavy-hitter edges."""
        if not isinstance(event, HeavyHitter):
            return
        if event.raised:
            self._offload(event, controller)
        else:
            self._release(event, controller)

    # ------------------------------------------------------------------
    # Drill-down & reaction
    # ------------------------------------------------------------------

    def prefix_rates(self, sample: MonitorSample) -> Dict[str, float]:
        """Per-steerable-prefix EWMA rates from installed-rule counters.

        Sums the rules whose ``dstip`` constraint equals one of the
        steerable prefixes — the shape this app's own policies compile
        to — giving visibility *finer* than the FEC aggregation when
        several prefixes share one group.
        """
        rates = {label: 0.0 for label in self._routes}
        for view in sample.rules:
            dstip = view.rule.match.get("dstip")
            if isinstance(dstip, IPv4Prefix) and str(dstip) in rates:
                rates[str(dstip)] += view.ewma_mbps
        return rates

    def _swap_route(self, label: str, policy: Policy) -> None:
        """Replace the live policy for ``label`` in one batched change."""
        def swap(participant) -> None:
            participant.remove_outbound(self._routes[label])
            participant.add_outbound(policy)

        self.handle.edit(swap)
        self._routes[label] = policy

    def _offload(self, event: HeavyHitter,
                 controller: SdxController) -> None:
        # Drill down: steerable prefixes currently living in the raised
        # FEC, hottest first by their own rules' measured rates.
        sample = self.monitor.last_sample
        if sample is None:
            return
        rates = self.prefix_rates(sample)
        candidates = sorted(
            (label for label in self._routes
             if label not in self._offloaded
             and fec_label(controller, IPv4Prefix(label)) == event.fec),
            key=lambda label: -rates[label])
        if not candidates:
            return  # someone else's FEC
        if len(self._offloaded) >= self.max_offloads:
            self.declined.append(event.fec)
            return
        for label in candidates:
            prefix = IPv4Prefix(label)
            # BGP-consistency first: steering to a next hop that never
            # announced the prefix would be erased by the compiler's
            # join (and flagged by statics as a dead clause).
            if not controller.route_server.is_reachable(
                    self.handle.name, prefix, via=self.alternate):
                continue
            policy = match(dstip=prefix) >> fwd(self.alternate)
            self._swap_route(label, policy)
            self._offloaded[label] = policy
            return
        self.declined.append(event.fec)

    def _release(self, event: HeavyHitter,
                 controller: SdxController) -> None:
        for label in list(self._offloaded):
            if fec_label(controller, IPv4Prefix(label)) != event.fec:
                continue
            del self._offloaded[label]
            self._swap_route(
                label, match(dstip=IPv4Prefix(label)) >> fwd(self.primary))
