"""Cross-fabric forwarding: one packet walked through many exchanges.

Every execution arm — the real per-exchange fabrics driven by
:class:`FederatedDataPlane`, the naive per-exchange reference
interpreters of :func:`repro.verification.federation.reference_walk`
and the point-wise static walk behind SDX008/SDX009
(:func:`repro.federation.checks.walk_statically`) — shares the same
hop-state machine, re-entry rule and origin lookup, written once as
:func:`walk_federation`; an arm supplies only how one exchange
classifies a packet and which route server re-entry consults:

1. classify the packet at the current exchange as the current sender's
   traffic (big-switch policies + BGP defaults decide the egress
   participant, or drop it);
2. if the egress participant *originates* the destination, the packet is
   delivered;
3. otherwise the egress carries the packet over its backbone to the
   first other exchange (in its presence-preference order) where it has
   a usable BGP route toward the destination, and re-enters there as the
   sender — peering at another IXP is assumed cheaper than upstream
   transit, which is exactly the economics that make the Prelude loops
   possible;
4. if no other exchange offers a route, the packet exits the federation
   through the egress participant's upstream (delivered, ``via
   "upstream"``) — the classic single-exchange assumption, which is what
   keeps a one-exchange federation byte-identical to a plain SDX;
5. a revisited ``(exchange, sender)`` state is an inter-exchange
   forwarding loop.

The walk re-injects the *original* packet headers at each re-entry: VMAC
rewrites are internal to one fabric and a border router emits a fresh
frame on its next exchange's peering LAN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from repro.bgp.routeserver import RouteServer
from repro.dataplane.fabric import Delivery
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.packet import Packet

#: Hard ceiling on cross-exchange hops; a well-formed federation can
#: never exceed exchanges x participants distinct states, so hitting the
#: ceiling without a state revisit indicates a driver bug.
MAX_FEDERATED_HOPS = 64


@dataclass(frozen=True)
class FederatedHop:
    """One state of a cross-exchange walk: whose traffic, at which IXP."""

    exchange: str
    sender: str

    def describe(self) -> str:
        """A compact ``exchange:sender`` rendering."""
        return f"{self.exchange}:{self.sender}"


@dataclass(frozen=True)
class FederatedOutcome:
    """The fate of one packet walked across the federation.

    ``kind`` is ``"delivered"`` (with ``via`` either ``"origin"`` — the
    packet reached the AS that owns the destination — or ``"upstream"``
    — it left the federation through a participant's transit provider),
    ``"dropped"`` (classified to nothing at ``exchange``), or ``"loop"``
    (a ``(exchange, sender)`` state repeated; ``cycle`` holds the
    repeating segment).
    """

    kind: str
    hops: Tuple[FederatedHop, ...]
    exchange: str
    participant: Optional[str] = None
    via: Optional[str] = None
    cycle: Tuple[FederatedHop, ...] = ()
    deliveries: Tuple[Delivery, ...] = field(default=(), compare=False)

    @property
    def is_delivered(self) -> bool:
        """True when the packet reached a network (origin or upstream)."""
        return self.kind == "delivered"

    @property
    def is_loop(self) -> bool:
        """True when the walk revisited a state."""
        return self.kind == "loop"

    def describe(self) -> str:
        """A one-line human-readable rendering of the walk."""
        path = " -> ".join(hop.describe() for hop in self.hops)
        if self.kind == "loop":
            ring = " -> ".join(hop.describe() for hop in self.cycle)
            return f"loop [{ring}] via {path}"
        if self.kind == "delivered":
            return f"delivered to {self.participant} ({self.via}) via {path}"
        return f"dropped at {self.exchange} via {path}"

    def comparable(self) -> Tuple[object, ...]:
        """The outcome as a tuple two execution arms must agree on."""
        return (self.kind, self.exchange, self.participant, self.via,
                tuple(hop.describe() for hop in self.hops))


def walk_federation(
        exchange: str, sender: str, packet: Packet, *,
        classify: Callable[[str, str, Packet], Optional[str]],
        route_server: Callable[[str], RouteServer],
        presence: Callable[[str], Sequence[str]],
        origins: Sequence[Tuple[IPv4Prefix, str]],
        max_hops: int = MAX_FEDERATED_HOPS) -> FederatedOutcome:
    """Drive the shared hop-state machine over one arm's classifier.

    ``classify(exchange, sender, packet)`` returns the egress participant
    at one exchange (``None`` = dropped); ``route_server(exchange)`` is
    the BGP view re-entry consults there; ``presence(participant)`` lists
    the exchanges a participant attends, in preference order; ``origins``
    are the ``(prefix, origin participant)`` registrations, the longest
    covering one naming the destination's origin AS.
    """
    hops: list[FederatedHop] = []
    seen: dict[FederatedHop, int] = {}
    dstip = packet.get("dstip")
    owned = dict(origins)
    origin = (owned.get(covering_prefix(owned, dstip))
              if dstip is not None else None)
    current = FederatedHop(exchange, sender)
    while True:
        if current in seen:
            return FederatedOutcome(
                kind="loop", hops=tuple(hops), exchange=current.exchange,
                participant=current.sender, cycle=tuple(hops[seen[current]:]))
        if len(hops) >= max_hops:  # pragma: no cover - driver-bug backstop
            raise RuntimeError(
                f"federated walk exceeded {max_hops} hops without a "
                f"state revisit")
        seen[current] = len(hops)
        hops.append(current)
        egress = classify(current.exchange, current.sender, packet)
        if egress is None:
            return FederatedOutcome(
                kind="dropped", hops=tuple(hops), exchange=current.exchange)
        if egress == origin:
            return FederatedOutcome(
                kind="delivered", hops=tuple(hops), exchange=current.exchange,
                participant=egress, via="origin")
        onward = (_next_exchange(egress, current.exchange, dstip,
                                 route_server, presence)
                  if dstip is not None else None)
        if onward is None:
            return FederatedOutcome(
                kind="delivered", hops=tuple(hops), exchange=current.exchange,
                participant=egress, via="upstream")
        current = FederatedHop(onward, egress)


def _next_exchange(participant: str, arrived_at: str, dstip: IPv4Address,
                   route_server: Callable[[str], RouteServer],
                   presence: Callable[[str], Sequence[str]]
                   ) -> Optional[str]:
    """The re-entry rule: the first other exchange ``participant``
    attends whose route server has a covering prefix with a best route
    for it (``None``: the packet exits upstream)."""
    for exchange in presence(participant):
        if exchange == arrived_at:
            continue
        server = route_server(exchange)
        prefix = covering_prefix(server.all_prefixes(), dstip)
        if prefix is not None and server.best_route_for(
                participant, prefix) is not None:
            return exchange
    return None


def covering_prefix(prefixes, dstip: IPv4Address) -> Optional[IPv4Prefix]:
    """The most specific prefix containing ``dstip``, if any.

    Announced pools are non-overlapping in practice; when nested
    prefixes do cover the same address the longest match wins, mirroring
    a border router FIB.
    """
    best: Optional[IPv4Prefix] = None
    for prefix in prefixes:
        if prefix.contains_address(dstip) and (
                best is None or prefix.length > best.length):
            best = prefix
    return best


class FederatedDataPlane:
    """The real cross-fabric driver over a started federation.

    Each classification step runs the actual per-exchange machinery —
    compiled big-switch :class:`~repro.dataplane.flowtable.FlowTable`
    rules on the exchange's :class:`~repro.dataplane.switch.SoftwareSwitch`
    fabric, VMAC rewrites and all — via
    :meth:`~repro.core.controller.SdxController.send`. Re-entry decisions
    consult the live per-exchange route servers.
    """

    def __init__(self, federation) -> None:
        self._federation = federation
        self.last_deliveries: Tuple[Delivery, ...] = ()

    def _classify(self, exchange: str, sender: str,
                  packet: Packet) -> Optional[str]:
        """Egress participant of one real-fabric classification pass."""
        controller = self._federation.exchange(exchange)
        deliveries = controller.send(sender, packet)
        accepted = [d for d in deliveries if d.accepted]
        self.last_deliveries = tuple(accepted)
        return accepted[0].participant if accepted else None

    def forward(self, exchange: str, sender: str,
                packet: Packet) -> FederatedOutcome:
        """Walk ``packet`` (sourced inside ``sender`` at ``exchange``)
        across the federation and report its fate.

        The returned outcome carries the final fabric's accepted
        deliveries so tests can inspect VMAC rewrites and per-fabric
        counter attribution.
        """
        self.last_deliveries = ()
        federation = self._federation
        outcome = walk_federation(
            exchange, sender, packet, classify=self._classify,
            route_server=lambda name: federation.exchange(name).route_server,
            presence=federation.presence,
            origins=federation.topology.origins())
        if outcome.is_delivered:
            return FederatedOutcome(
                kind=outcome.kind, hops=outcome.hops,
                exchange=outcome.exchange, participant=outcome.participant,
                via=outcome.via, cycle=outcome.cycle,
                deliveries=self.last_deliveries)
        return outcome
