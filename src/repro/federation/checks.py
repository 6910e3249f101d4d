"""Federation-aware static checks: SDX008 and SDX009.

Both checks reason about the *cross-exchange reachability graph*: the
state machine whose nodes are ``(exchange, sender)`` pairs and whose
edges are induced by composed outbound policies plus BGP next-hops (the
same walk both dataplane arms execute — see
:func:`repro.federation.dataplane.walk_federation`).

* **SDX008 — inter-exchange forwarding loop** (error): a witness packet
  admitted by an outbound forwarding clause walks the graph back into a
  state it already visited. Each hop of the composed path is locally
  valid (every clause's target exports an eligible route), which is
  exactly why no single exchange can see the cycle.
* **SDX009 — stitched-path blackhole** (warning): a witness packet
  steered out of exchange A into a shared participant is dropped by a
  policy at the participant's next exchange — the first exchange
  accepted traffic that the stitched path can never deliver.

**Soundness contract.** Verdicts are point-wise: a walk only produces a
finding when every clause consulted along it was evaluated exactly on
the concrete witness packet (``predicate.holds``) and none was dynamic,
when every hop's FIB gate and default route were derived from a *unique*
covering announced prefix (nested announced prefixes abort the walk),
and when every re-entry decision used the same presence-preference rule
the dataplane drivers use. Walks that touch a dynamic clause or an
ambiguous covering return no verdict at all. The fuzz harness
(:mod:`repro.verification.federation`) holds both checks to this
contract by re-executing every witness in the naive federated reference
walk: SDX008 witnesses must actually loop, SDX009 witnesses must
actually drop beyond their first exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.participant import Participant
from repro.exceptions import ParticipantError
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.packet import Packet
from repro.policy.headerspace import HeaderSpace
from repro.statics.analyzer import analyze_controller
from repro.statics.checks import Check, StaticsContext
from repro.statics.diagnostics import (
    Diagnostic,
    Severity,
    SourceLocation,
    StaticsReport,
)
from repro.statics.regions import witness_packet


class FederationContext:
    """Everything one federation analysis looks at, with caches."""

    def __init__(self, federation) -> None:
        self.federation = federation
        self._contexts: Dict[str, StaticsContext] = {}
        self._members: Dict[str, Dict[str, Participant]] = {}
        self._walks: Dict[Tuple[str, str, Packet], "FederatedWalkResult"] = {}

    def exchanges(self) -> Tuple[str, ...]:
        """Member exchange names, in registration order."""
        return self.federation.exchanges()

    def statics(self, exchange: str) -> StaticsContext:
        """The cached single-exchange statics context of one exchange."""
        context = self._contexts.get(exchange)
        if context is None:
            context = StaticsContext.from_controller(
                self.federation.exchange(exchange))
            self._contexts[exchange] = context
        return context

    def member(self, exchange: str, name: str) -> Participant:
        """The participant record of ``name`` at one exchange."""
        members = self._members.get(exchange)
        if members is None:
            members = {participant.name: participant
                       for participant in self.statics(exchange).participants()}
            self._members[exchange] = members
        return members[name]

    def presence(self, name: str) -> Tuple[str, ...]:
        """The exchanges ``name`` attends, in preference order."""
        return self.federation.presence(name)

    def origin_of(self, dstip: IPv4Address) -> Optional[str]:
        """The registered origin participant of ``dstip``, if any."""
        return self.federation.origin_of(dstip)

    def walk(self, exchange: str, sender: str,
             packet: Packet) -> "FederatedWalkResult":
        """The (cached) static walk of one witness packet."""
        key = (exchange, sender, packet)
        result = self._walks.get(key)
        if result is None:
            result = walk_statically(self, exchange, sender, packet)
            self._walks[key] = result
        return result


@dataclass(frozen=True)
class HopDecision:
    """How one exchange disposes of one concrete packet.

    ``kind`` is ``"fwd"`` (policy clause wins; ``clause_index`` and
    ``target`` set), ``"default"`` (best-route default; ``target`` set),
    ``"drop"`` (a drop clause wins), ``"selfport"`` (a raw-port forward
    returns the packet to the sender's own interface), ``"nofib"`` (no
    unique announced covering prefix with a best route — the border
    router never emits the packet), ``"inbound-drop"`` (the chosen
    egress's inbound policy refuses it), ``"dynamic"`` (a dynamic clause
    blocks point-wise reasoning), or ``"ambiguous"`` (nested announced
    prefixes make the FIB gate order-dependent).
    """

    kind: str
    clause_index: Optional[int] = None
    target: Optional[str] = None


#: Decision kinds that end a walk without any verdict.
_UNSOUND = ("dynamic", "ambiguous")


def _unique_covering(context: StaticsContext,
                     dstip: IPv4Address) -> Tuple[Optional[IPv4Prefix], bool]:
    """(the single announced prefix covering ``dstip``, soundness flag).

    Returns ``(None, True)`` when nothing covers the address and
    ``(None, False)`` when several announced prefixes nest over it (the
    reference resolves that by list order the analyzer cannot see, so
    the walk must give up).
    """
    covering = [prefix for prefix in context.route_server.all_prefixes()
                if prefix.contains_address(dstip)]
    if not covering:
        return None, True
    if len(set(covering)) > 1:
        return None, False
    return covering[0], True


def decide_hop(context: StaticsContext, sender: Participant,
               packet: Packet) -> HopDecision:
    """Point-wise outbound disposition of one packet at one exchange.

    Mirrors the reference interpreter's rule bands exactly: the border
    FIB gate first, then outbound clauses in installation order (a
    forwarding clause wins only when an eligible prefix of its target
    covers the destination), then the per-prefix best-route default.
    """
    dstip = packet.get("dstip")
    if dstip is None:
        return HopDecision(kind="nofib")
    covering, sound = _unique_covering(context, dstip)
    if not sound:
        return HopDecision(kind="ambiguous")
    if covering is None or context.route_server.best_route_for(
            sender.name, covering) is None:
        return HopDecision(kind="nofib")
    for index, info in enumerate(context.clause_info(sender, "out")):
        if info.dynamic:
            return HopDecision(kind="dynamic", clause_index=index)
        clause = info.clause
        if not clause.predicate.holds(packet):
            continue
        if clause.drops:
            return HopDecision(kind="drop", clause_index=index)
        if isinstance(clause.target, str):
            try:
                eligible = context.route_server.reachable_prefixes(
                    sender.name, via=clause.target)
            except ParticipantError:
                continue
            if any(prefix.contains_address(dstip) for prefix in eligible):
                return HopDecision(kind="fwd", clause_index=index,
                                   target=clause.target)
            continue
        return HopDecision(kind="selfport", clause_index=index)
    best = context.route_server.best_route_for(sender.name, covering)
    if best is None:  # pragma: no cover - gated above
        return HopDecision(kind="nofib")
    return HopDecision(kind="default", target=best.learned_from)


def _inbound_refuses(context: StaticsContext, egress: Participant,
                     packet: Packet) -> Optional[bool]:
    """Whether the egress's inbound policy drops the packet.

    ``None`` means a dynamic inbound clause was reached before any
    static match, so the disposition is unknowable point-wise.
    """
    for info in context.clause_info(egress, "in"):
        if info.dynamic:
            return None
        if info.clause.predicate.holds(packet):
            return info.clause.drops
    return False


@dataclass(frozen=True)
class FederatedWalkResult:
    """The statically predicted fate of one witness packet.

    ``kind`` mirrors :class:`~repro.federation.dataplane.\
FederatedOutcome` (``"delivered"``/``"dropped"``/``"loop"``) plus
    ``"unknown"`` when the walk aborted without a sound verdict. Hops
    are ``(exchange, sender)`` states; ``decisions`` records each hop's
    :class:`HopDecision`; ``cycle`` holds the repeating segment of a
    loop; for drops, ``drop_exchange`` / ``drop_participant`` /
    ``drop_clause`` / ``drop_reason`` name the killer.
    """

    kind: str
    hops: Tuple[Tuple[str, str], ...]
    decisions: Tuple[HopDecision, ...] = ()
    cycle: Tuple[Tuple[str, str], ...] = ()
    via: Optional[str] = None
    participant: Optional[str] = None
    drop_exchange: Optional[str] = None
    drop_participant: Optional[str] = None
    drop_clause: Optional[int] = None
    drop_reason: Optional[str] = None

    @property
    def has_policy_hop(self) -> bool:
        """True when any hop's disposition came from a policy clause."""
        return any(decision.kind == "fwd" for decision in self.decisions)


def walk_statically(fcontext: FederationContext, exchange: str, sender: str,
                    packet: Packet) -> FederatedWalkResult:
    """Walk one concrete packet through the cross-exchange graph.

    Implements the same hop-state machine as the dataplane drivers, but
    through point-wise exact reasoning over live controller state; any
    unsound step yields ``kind="unknown"`` instead of a verdict.
    """
    dstip = packet.get("dstip")
    hops: List[Tuple[str, str]] = []
    decisions: List[HopDecision] = []
    seen: Dict[Tuple[str, str], int] = {}
    current = (exchange, sender)
    while True:
        if current in seen:
            return FederatedWalkResult(
                kind="loop", hops=tuple(hops), decisions=tuple(decisions),
                cycle=tuple(hops[seen[current]:]))
        seen[current] = len(hops)
        hops.append(current)
        here, name = current
        context = fcontext.statics(here)
        decision = decide_hop(context, fcontext.member(here, name), packet)
        decisions.append(decision)
        if decision.kind in _UNSOUND:
            return FederatedWalkResult(
                kind="unknown", hops=tuple(hops), decisions=tuple(decisions))
        if decision.kind == "drop":
            return FederatedWalkResult(
                kind="dropped", hops=tuple(hops), decisions=tuple(decisions),
                drop_exchange=here, drop_participant=name,
                drop_clause=decision.clause_index, drop_reason="outbound-drop")
        if decision.kind == "nofib":
            return FederatedWalkResult(
                kind="dropped", hops=tuple(hops), decisions=tuple(decisions),
                drop_exchange=here, drop_participant=name,
                drop_reason="no-route")
        if decision.kind == "selfport":
            return FederatedWalkResult(
                kind="delivered", hops=tuple(hops),
                decisions=tuple(decisions), via="upstream", participant=name)
        egress = decision.target
        assert egress is not None
        refused = _inbound_refuses(
            context, fcontext.member(here, egress), packet)
        if refused is None:
            return FederatedWalkResult(
                kind="unknown", hops=tuple(hops), decisions=tuple(decisions))
        if refused:
            return FederatedWalkResult(
                kind="dropped", hops=tuple(hops), decisions=tuple(decisions),
                drop_exchange=here, drop_participant=egress,
                drop_reason="inbound-drop")
        if dstip is not None and fcontext.origin_of(dstip) == egress:
            return FederatedWalkResult(
                kind="delivered", hops=tuple(hops),
                decisions=tuple(decisions), via="origin", participant=egress)
        onward = _next_exchange(fcontext, egress, here, dstip)
        if onward == "?":
            return FederatedWalkResult(
                kind="unknown", hops=tuple(hops), decisions=tuple(decisions))
        if onward is None:
            return FederatedWalkResult(
                kind="delivered", hops=tuple(hops),
                decisions=tuple(decisions), via="upstream",
                participant=egress)
        current = (onward, egress)


def _next_exchange(fcontext: FederationContext, participant: str,
                   arrived_at: str, dstip) -> Optional[str]:
    """The re-entry exchange, ``None`` for upstream exit, ``"?"`` when
    nested announced prefixes make the choice unsound."""
    if dstip is None:
        return None
    for exchange in fcontext.presence(participant):
        if exchange == arrived_at:
            continue
        context = fcontext.statics(exchange)
        covering, sound = _unique_covering(context, dstip)
        if not sound:
            return "?"
        if covering is not None and context.route_server.best_route_for(
                participant, covering) is not None:
            return exchange
    return None


def _probes(context: StaticsContext, regions: Sequence[HeaderSpace],
            prefixes: Sequence[IPv4Prefix]) -> List[Packet]:
    """Witness packets concretised from effective clause regions.

    Regions without a destination constraint are refined with each
    announced prefix first, so every probe survives the border FIB gate
    (mirroring the single-exchange cross-check's probe rule).
    """
    probes: List[Packet] = []
    for region in regions:
        if "dstip" in region:
            probes.append(witness_packet(region))
            continue
        for prefix in prefixes:
            refined = region.intersect(HeaderSpace(dstip=prefix))
            if refined is not None:
                probes.append(witness_packet(refined))
    return probes


def _iter_clause_probes(fcontext: FederationContext):
    """Yield (exchange, sender participant, clause index, probe packet)
    for every non-dynamic outbound forwarding clause in the federation."""
    for exchange in fcontext.exchanges():
        context = fcontext.statics(exchange)
        prefixes = context.route_server.all_prefixes()
        for participant in context.participants():
            if participant.is_remote:
                continue
            infos = context.clause_info(participant, "out")
            effective = context.effective(participant, "out")
            for index, info in enumerate(infos):
                if (info.dynamic or info.clause.drops
                        or not isinstance(info.clause.target, str)):
                    continue
                for probe in _probes(context, effective[index], prefixes):
                    yield exchange, participant, index, probe


def _walk_data(walk: FederatedWalkResult,
               origin: Tuple[str, str]) -> List[Tuple[str, object]]:
    """Diagnostic payload entries shared by both federation checks."""
    return [
        ("origin_exchange", origin[0]),
        ("origin_participant", origin[1]),
        ("hops", [f"{exchange}:{name}" for exchange, name in walk.hops]),
    ]


class FederationCheck(Check):
    """Base class for checks over a whole federation.

    Subclasses implement :meth:`run` over a :class:`FederationContext`
    instead of a single-exchange
    :class:`~repro.statics.checks.StaticsContext`.
    """

    def run(self, context: FederationContext) -> Iterator[Diagnostic]:  # type: ignore[override]
        """Yield findings over the federation."""
        raise NotImplementedError


class InterExchangeLoopCheck(FederationCheck):
    """SDX008: composed outbound policies forward a packet in a cycle."""

    check_id = "SDX008"
    name = "inter-exchange-loop"
    default_severity = Severity.ERROR

    def run(self, context: FederationContext) -> Iterator[Diagnostic]:
        """Walk every forwarding clause's witnesses; report each cycle once."""
        reported = set()
        for exchange, participant, index, probe in _iter_clause_probes(context):
            walk = context.walk(exchange, participant.name, probe)
            if walk.kind != "loop" or not walk.has_policy_hop:
                continue
            first = walk.decisions[0]
            anchor = first.clause_index if first.kind == "fwd" else index
            key = (exchange, participant.name, anchor)
            if key in reported:
                continue
            reported.add(key)
            ring = " -> ".join(f"{ex}:{name}" for ex, name in walk.cycle)
            ring += f" -> {walk.cycle[0][0]}:{walk.cycle[0][1]}"
            yield self._diagnostic(
                SourceLocation(participant=participant.name, direction="out",
                               clause_index=anchor),
                f"outbound clause #{anchor} at {exchange} steers traffic "
                f"into an inter-exchange forwarding loop [{ring}]; every "
                f"hop is locally valid, so no single exchange can see the "
                f"cycle",
                witness=probe,
                data=_walk_data(walk, (exchange, participant.name)) + [
                    ("cycle", [f"{ex}:{name}" for ex, name in walk.cycle]),
                ])


class StitchedBlackholeCheck(FederationCheck):
    """SDX009: traffic steered across exchanges into a policy drop."""

    check_id = "SDX009"
    name = "stitched-path-blackhole"
    default_severity = Severity.WARNING

    def run(self, context: FederationContext) -> Iterator[Diagnostic]:
        """Walk every forwarding clause's witnesses; report stitched drops.

        Only drops *beyond the first exchange* are stitched blackholes —
        same-exchange drops are SDX005's single-exchange territory — and
        only policy-inflicted drops are reported (a missing route at a
        later exchange never admits the packet in the first place, by
        the re-entry rule).
        """
        reported = set()
        for exchange, participant, index, probe in _iter_clause_probes(context):
            walk = context.walk(exchange, participant.name, probe)
            if walk.kind != "dropped" or len(walk.hops) < 2:
                continue
            if walk.drop_reason not in ("outbound-drop", "inbound-drop"):
                continue
            first = walk.decisions[0]
            anchor = first.clause_index if first.kind == "fwd" else index
            key = (exchange, participant.name, anchor,
                   walk.drop_exchange, walk.drop_participant)
            if key in reported:
                continue
            reported.add(key)
            clause_text = (f" clause #{walk.drop_clause}"
                           if walk.drop_clause is not None else "")
            yield self._diagnostic(
                SourceLocation(participant=participant.name, direction="out",
                               clause_index=anchor),
                f"outbound clause #{anchor} at {exchange} steers traffic "
                f"onto a stitched path that {walk.drop_participant!r}'s "
                f"{walk.drop_reason.replace('-', ' ')}{clause_text} at "
                f"{walk.drop_exchange} blackholes",
                witness=probe,
                data=_walk_data(walk, (exchange, participant.name)) + [
                    ("drop_exchange", walk.drop_exchange),
                    ("drop_participant", walk.drop_participant),
                    ("drop_reason", walk.drop_reason),
                    ("drop_clause", walk.drop_clause),
                ])


#: The federation check battery, in execution order.
DEFAULT_FEDERATION_CHECKS: Tuple[FederationCheck, ...] = (
    InterExchangeLoopCheck(),
    StitchedBlackholeCheck(),
)


def analyze_federation(federation, *,
                       checks: Sequence[FederationCheck] = DEFAULT_FEDERATION_CHECKS,
                       telemetry=None) -> StaticsReport:
    """Lint a whole federation: per-exchange battery + SDX008/SDX009.

    Every member exchange runs the full single-exchange check catalogue
    (each finding tagged with an ``exchange`` data entry), then the
    federation checks run over the cross-exchange graph. Returns one
    merged :class:`~repro.statics.diagnostics.StaticsReport`.
    """
    if telemetry is None:
        telemetry = getattr(federation, "telemetry", None)
    report = StaticsReport()
    check_ids: List[str] = []
    for exchange in federation.exchanges():
        member = analyze_controller(
            federation.exchange(exchange), telemetry=telemetry)
        for diagnostic in member.diagnostics:
            report.diagnostics.append(replace(
                diagnostic,
                data=diagnostic.data + (("exchange", exchange),)))
        report.participants_analyzed += member.participants_analyzed
        report.clauses_analyzed += member.clauses_analyzed
        for check_id in member.checks_run:
            if check_id not in check_ids:
                check_ids.append(check_id)
    fcontext = FederationContext(federation)
    for check in checks:
        report.extend(list(check.run(fcontext)))
        check_ids.append(check.check_id)
    report.checks_run = tuple(check_ids)
    if telemetry is not None:
        telemetry.registry.counter(
            "sdx_statics_federation_runs_total",
            "Federation-wide static-analysis runs").inc()
        telemetry.registry.counter(
            "sdx_statics_federation_diagnostics_total",
            "Diagnostics emitted by federation-wide analysis").inc(
            len(report.diagnostics))
    return report
