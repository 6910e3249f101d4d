"""Federation-aware static checks: SDX008 and SDX009.

Both checks reason about the *cross-exchange reachability graph*: the
state machine whose nodes are ``(exchange, sender)`` pairs and whose
edges are induced by composed outbound policies plus BGP next-hops. The
static walk is that machine itself,
:func:`repro.federation.dataplane.walk_federation`, with each exchange
classifying point-wise through :func:`repro.statics.checks.decide_hop`.

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
and when every hop's FIB gate and default route were derived from a
*unique* covering announced prefix (nested announced prefixes there
abort the walk). Re-entry and the origin lookup take the longest
covering prefix, as both dataplane arms do. Walks that touch a dynamic
clause or an ambiguous FIB gate return no verdict at all. The fuzz
harness (:mod:`repro.verification.federation`) holds both checks to this
contract by re-executing every witness in the naive federated reference
walk: SDX008 witnesses must actually loop, SDX009 witnesses must
actually drop beyond their first exchange.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.federation.dataplane import FederatedOutcome, walk_federation
from repro.net.packet import Packet
from repro.statics.analyzer import analyze_controller
from repro.statics.checks import Check, HopDecision, StaticsContext, decide_hop
from repro.statics.diagnostics import (
    Diagnostic,
    Severity,
    SourceLocation,
    StaticsReport,
)
from repro.statics.regions import probe_packets

#: Decision kinds that end a walk without any verdict.
_UNSOUND = ("dynamic", "ambiguous")

#: A static walk: the outcome (``None`` when a hop could not be decided
#: point-wise) and each classified hop's decision, in hop order.
StaticWalk = Tuple[Optional[FederatedOutcome], Tuple[HopDecision, ...]]


class FederationContext:
    """Everything one federation analysis looks at, with caches."""

    def __init__(self, federation) -> None:
        self.federation = federation
        self._contexts: Dict[str, StaticsContext] = {}
        self._walks: Dict[Tuple[str, str, Packet], StaticWalk] = {}

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

    def walk(self, exchange: str, sender: str, packet: Packet) -> StaticWalk:
        """The (cached) static walk of one witness packet."""
        key = (exchange, sender, packet)
        walk = self._walks.get(key)
        if walk is None:
            walk = self._walks[key] = walk_statically(
                self, exchange, sender, packet)
        return walk


def walk_statically(fcontext: FederationContext, exchange: str, sender: str,
                    packet: Packet) -> StaticWalk:
    """Walk one concrete packet through the cross-exchange graph.

    The hop-state machine is the dataplane arms' own
    :func:`~repro.federation.dataplane.walk_federation`; each exchange
    classifies through :func:`~repro.statics.checks.decide_hop` over live
    controller state. A dynamic clause or an ambiguous FIB gate ends the
    walk with no outcome.
    """
    decisions: List[HopDecision] = []

    def classify(here: str, name: str, probe: Packet) -> Optional[str]:
        context = fcontext.statics(here)
        decision = decide_hop(
            context, context.topology.participant(name), probe)
        decisions.append(decision)
        if decision.kind in ("fwd", "default"):
            return decision.target
        return None

    federation = fcontext.federation
    outcome = walk_federation(
        exchange, sender, packet, classify=classify,
        route_server=lambda here: fcontext.statics(here).route_server,
        presence=federation.presence,
        origins=federation.topology.origins())
    if decisions[-1].kind in _UNSOUND:
        return None, tuple(decisions)
    return outcome, tuple(decisions)


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
                for probe in probe_packets(effective[index], prefixes):
                    yield exchange, participant, index, probe


def _anchor(decisions: Tuple[HopDecision, ...], index: int) -> int:
    """The clause a finding is pinned to: the first hop's winning clause,
    or the probed clause when a default took the first hop."""
    first = decisions[0]
    return first.clause_index if first.kind == "fwd" else index


def _walk_data(outcome: FederatedOutcome,
               origin: Tuple[str, str]) -> List[Tuple[str, object]]:
    """Diagnostic payload entries shared by both federation checks."""
    return [
        ("origin_exchange", origin[0]),
        ("origin_participant", origin[1]),
        ("hops", [hop.describe() for hop in outcome.hops]),
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
            outcome, decisions = context.walk(exchange, participant.name, probe)
            if outcome is None or not outcome.is_loop or not any(
                    decision.kind == "fwd" for decision in decisions):
                continue
            anchor = _anchor(decisions, index)
            key = (exchange, participant.name, anchor)
            if key in reported:
                continue
            reported.add(key)
            cycle = [hop.describe() for hop in outcome.cycle]
            ring = " -> ".join(cycle + cycle[:1])
            yield self._diagnostic(
                SourceLocation(participant=participant.name, direction="out",
                               clause_index=anchor),
                f"outbound clause #{anchor} at {exchange} steers traffic "
                f"into an inter-exchange forwarding loop [{ring}]; every "
                f"hop is locally valid, so no single exchange can see the "
                f"cycle",
                witness=probe,
                data=_walk_data(outcome, (exchange, participant.name)) + [
                    ("cycle", cycle),
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
            outcome, decisions = context.walk(exchange, participant.name, probe)
            if (outcome is None or outcome.kind != "dropped"
                    or len(outcome.hops) < 2):
                continue
            killer = decisions[-1]
            if killer.kind == "drop":
                reason, victim = "outbound-drop", outcome.hops[-1].sender
                drop_clause = killer.clause_index
            elif killer.kind == "inbound-drop":
                reason, victim, drop_clause = "inbound-drop", killer.target, None
            else:
                continue
            anchor = _anchor(decisions, index)
            key = (exchange, participant.name, anchor,
                   outcome.exchange, victim)
            if key in reported:
                continue
            reported.add(key)
            clause_text = (f" clause #{drop_clause}"
                           if drop_clause is not None else "")
            yield self._diagnostic(
                SourceLocation(participant=participant.name, direction="out",
                               clause_index=anchor),
                f"outbound clause #{anchor} at {exchange} steers traffic "
                f"onto a stitched path that {victim!r}'s "
                f"{reason.replace('-', ' ')}{clause_text} at "
                f"{outcome.exchange} blackholes",
                witness=probe,
                data=_walk_data(outcome, (exchange, participant.name)) + [
                    ("drop_exchange", outcome.exchange),
                    ("drop_participant", victim),
                    ("drop_reason", reason),
                    ("drop_clause", drop_clause),
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
