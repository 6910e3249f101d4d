"""The check catalogue of the static policy verifier.

Each check walks the :class:`StaticsContext` — participants with their
normalised clauses, the route server's RIB state, and any raw (not yet
installed) policy documents — and yields :class:`Diagnostic` findings.
Check IDs are stable API (documented in ``docs/ANALYSIS.md``); new
checks append new IDs rather than renumbering.

Soundness contract: an ``SDX001`` (dead clause) verdict is only emitted
when it is *provable* — exact (negation-free, non-dynamic) regions,
covered per-region by a single earlier exact region. The fuzz harness
(:mod:`repro.verification.statics`) holds the analyzer to that contract
by replaying scenarios through the reference interpreter and asserting
dead clauses never win a forwarding decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bgp.routeserver import RouteServer
from repro.core.participant import RESERVED_FIELDS, Participant, _predicate_fields
from repro.core.vswitch import VirtualTopology
from repro.exceptions import AddressError, FieldError, ReproError
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.mac import MacAddress
from repro.net.packet import Packet
from repro.policy.headerspace import HeaderSpace
from repro.policy.policies import Match, Predicate
from repro.statics.diagnostics import (
    Diagnostic,
    RawPolicyDocument,
    Severity,
    SourceLocation,
)
from repro.statics.regions import (
    ClauseRegions,
    clause_regions,
    covering_region,
    effective_regions,
    first_intersection,
    reachable,
    witness_packet,
)


@dataclass
class StaticsContext:
    """Everything one analyzer run looks at, with per-run caches."""

    topology: VirtualTopology
    route_server: RouteServer
    raw_policies: Tuple[RawPolicyDocument, ...] = ()
    _info_cache: Dict[Tuple[str, str], Tuple[ClauseRegions, ...]] = field(
        default_factory=dict, repr=False)
    _effective_cache: Dict[Tuple[str, str], Tuple[Tuple[HeaderSpace, ...], ...]] = (
        field(default_factory=dict, repr=False))
    _dead_cache: Dict[Tuple[str, str], Dict[int, "DeadVerdict"]] = field(
        default_factory=dict, repr=False)

    @classmethod
    def from_controller(cls, controller,
                        raw_policies: Sequence[RawPolicyDocument] = ()
                        ) -> "StaticsContext":
        """Build a context over a controller's topology and RIB state."""
        return cls(topology=controller.topology,
                   route_server=controller.route_server,
                   raw_policies=tuple(raw_policies))

    def participants(self) -> List[Participant]:
        """Every participant, name-sorted."""
        return list(self.topology.participants())

    def clauses(self, participant: Participant, direction: str):
        """The participant's normalised clauses for one direction."""
        if direction == "out":
            return () if participant.is_remote else participant.outbound_clauses()
        if direction == "in":
            return participant.inbound_clauses()
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")

    def directions(self, participant: Participant) -> Tuple[str, ...]:
        """The clause directions that exist for a participant."""
        return ("in",) if participant.is_remote else ("out", "in")

    def clause_info(self, participant: Participant,
                    direction: str) -> Tuple[ClauseRegions, ...]:
        """Region summaries of the participant's clauses (cached)."""
        key = (participant.name, direction)
        cached = self._info_cache.get(key)
        if cached is None:
            cached = tuple(
                clause_regions(clause)
                for clause in self.clauses(participant, direction))
            self._info_cache[key] = cached
        return cached

    def effective(self, participant: Participant,
                  direction: str) -> Tuple[Tuple[HeaderSpace, ...], ...]:
        """BGP-refined region sets, one tuple per clause (cached)."""
        key = (participant.name, direction)
        cached = self._effective_cache.get(key)
        if cached is None:
            infos = self.clause_info(participant, direction)
            if direction == "out":
                cached = tuple(
                    effective_regions(info, participant.name, self.route_server)
                    for info in infos)
            else:
                cached = tuple(info.regions for info in infos)
            self._effective_cache[key] = cached
        return cached


@dataclass(frozen=True)
class DeadVerdict:
    """Why one clause can never win: per-region covering clause indices."""

    covered_by: Tuple[int, ...]
    witness_space: HeaderSpace


def dead_clause_map(context: StaticsContext, participant: Participant,
                    direction: str) -> Dict[int, DeadVerdict]:
    """Indices of provably dead clauses, with their covering clauses.

    A clause is dead when every one of its effective regions is covered
    by a single effective region of a single earlier *exact* clause —
    the earlier clause's flow rule then always outranks it. Clauses with
    negation or dynamic predicates are never marked dead (their static
    regions over-approximate), and clauses whose effective region set is
    already empty belong to SDX003, not here.
    """
    key = (participant.name, direction)
    cached = context._dead_cache.get(key)
    if cached is not None:
        return cached
    infos = context.clause_info(participant, direction)
    effective = context.effective(participant, direction)
    verdicts: Dict[int, DeadVerdict] = {}
    for index in range(len(infos)):
        info = infos[index]
        if info.dynamic or not info.exact:
            continue
        regions = effective[index]
        if not regions:
            continue
        coverers: List[Tuple[int, HeaderSpace]] = [
            (earlier, space)
            for earlier in range(index)
            if infos[earlier].exact and not infos[earlier].dynamic
            for space in effective[earlier]
        ]
        covered_by: List[int] = []
        for region in regions:
            cover = covering_region(region, [space for _i, space in coverers])
            if cover is None:
                covered_by = []
                break
            for earlier, space in coverers:
                if space == cover:
                    covered_by.append(earlier)
                    break
        if covered_by:
            verdicts[index] = DeadVerdict(
                covered_by=tuple(sorted(set(covered_by))),
                witness_space=regions[0])
    context._dead_cache[key] = verdicts
    return verdicts


def clause_overlaps(clauses: Sequence,
                    infos: Sequence[ClauseRegions]
                    ) -> List[Tuple[int, int, Packet, bool]]:
    """(winner, loser, witness, exact) clause pairs that can both match.

    The raw (pre-join) regions are compared — an overlap matters even
    for destinations outside today's RIB, because routes change. For
    exact pairs the witness is verified against both predicates; pairs
    involving negation are reported as possible overlaps.
    """
    overlaps: List[Tuple[int, int, Packet, bool]] = []
    for first in range(len(infos)):
        for second in range(first + 1, len(infos)):
            witness_space = first_intersection(
                infos[first].regions, infos[second].regions)
            if witness_space is None:
                continue
            witness = witness_packet(witness_space)
            exact = infos[first].exact and infos[second].exact
            if exact and not (clauses[first].predicate.holds(witness)
                              and clauses[second].predicate.holds(witness)):
                continue
            overlaps.append((first, second, witness, exact))
    return overlaps


@dataclass(frozen=True)
class HopDecision:
    """How one exchange disposes of one concrete packet.

    ``kind`` is ``"fwd"`` (outbound clause ``clause_index`` wins toward
    ``target``), ``"default"`` (the best-route default toward
    ``target``), ``"drop"`` (outbound drop clause ``clause_index`` wins),
    ``"inbound-drop"`` (inbound clause ``clause_index`` of the egress
    ``target`` refuses the packet), ``"nofib"`` (no announced prefix with
    a best route covers the destination — the border router never emits
    the packet), ``"dynamic"`` (a dynamic clause blocks point-wise
    reasoning), or ``"ambiguous"`` (nested announced prefixes make the
    FIB gate order-dependent).
    """

    kind: str
    clause_index: Optional[int] = None
    target: Optional[str] = None


def outbound_decision(context: StaticsContext, sender: Participant,
                      packet: Packet) -> Optional[HopDecision]:
    """The sender's outbound clause that takes ``packet``, point-wise.

    Clauses apply in installation order: a matching drop clause wins; a
    matching forward wins only when its target exports the sender a
    prefix covering the destination (the BGP join of Section 4.1), and
    is passed over otherwise. ``None``: no clause takes the packet, so it
    follows the best-route default.
    """
    dstip = packet.get("dstip")
    for index, info in enumerate(context.clause_info(sender, "out")):
        if info.dynamic:
            return HopDecision(kind="dynamic", clause_index=index)
        clause = info.clause
        if not clause.predicate.holds(packet):
            continue
        if clause.drops:
            return HopDecision(kind="drop", clause_index=index)
        if any(prefix.contains_address(dstip) for prefix in reachable(
                context.route_server, sender.name, clause.target)):
            return HopDecision(kind="fwd", clause_index=index,
                               target=clause.target)
    return None


def inbound_decision(context: StaticsContext, egress: Participant,
                     packet: Packet) -> Optional[HopDecision]:
    """How the egress's inbound policy disposes of ``packet``.

    ``"inbound-drop"`` when the first matching inbound clause drops it,
    ``"dynamic"`` when a dynamic clause comes first, ``None`` when the
    egress accepts it (a forwarding clause or the default delivery).
    """
    for index, info in enumerate(context.clause_info(egress, "in")):
        if info.dynamic:
            return HopDecision(kind="dynamic", clause_index=index,
                               target=egress.name)
        if info.clause.predicate.holds(packet):
            if not info.clause.drops:
                return None
            return HopDecision(kind="inbound-drop", clause_index=index,
                               target=egress.name)
    return None


def _unique_covering(context: StaticsContext,
                     dstip: IPv4Address) -> Tuple[Optional[IPv4Prefix], bool]:
    """(the single announced prefix covering ``dstip``, soundness flag).

    Returns ``(None, True)`` when nothing covers the address and
    ``(None, False)`` when several announced prefixes nest over it (the
    reference resolves that by list order the analyzer cannot see).
    """
    covering = [prefix for prefix in context.route_server.all_prefixes()
                if prefix.contains_address(dstip)]
    if len(covering) > 1:
        return None, False
    return (covering[0] if covering else None), True


def decide_hop(context: StaticsContext, sender: Participant,
               packet: Packet) -> HopDecision:
    """Point-wise disposition of one packet at one exchange.

    Mirrors the reference interpreter's bands: the border FIB gate, then
    :func:`outbound_decision`, then the best-route default; a packet
    steered to an egress then meets that egress's
    :func:`inbound_decision`.
    """
    dstip = packet.get("dstip")
    if dstip is None:
        return HopDecision(kind="nofib")
    covering, sound = _unique_covering(context, dstip)
    if not sound:
        return HopDecision(kind="ambiguous")
    best = (context.route_server.best_route_for(sender.name, covering)
            if covering is not None else None)
    if best is None:
        return HopDecision(kind="nofib")
    decision = (outbound_decision(context, sender, packet)
                or HopDecision(kind="default", target=best.learned_from))
    if decision.target is None:
        return decision
    egress = context.topology.participant(decision.target)
    return inbound_decision(context, egress, packet) or decision


class Check:
    """Base class: stable ID, human name, and a ``run`` generator."""

    check_id: str = ""
    name: str = ""
    default_severity: Severity = Severity.WARNING

    def run(self, context: StaticsContext) -> Iterator[Diagnostic]:
        """Yield findings over ``context``."""
        raise NotImplementedError

    def _diagnostic(self, location: SourceLocation, message: str, *,
                    severity: Optional[Severity] = None,
                    witness: Optional[Packet] = None,
                    data: Sequence[Tuple[str, Any]] = ()) -> Diagnostic:
        return Diagnostic(
            check_id=self.check_id, check_name=self.name,
            severity=severity if severity is not None else self.default_severity,
            location=location, message=message, witness=witness,
            data=tuple(data))


class DeadClauseCheck(Check):
    """SDX001: a clause no packet can ever reach (fully shadowed)."""

    check_id = "SDX001"
    name = "dead-clause"
    default_severity = Severity.ERROR

    def run(self, context: StaticsContext) -> Iterator[Diagnostic]:
        for participant in context.participants():
            for direction in context.directions(participant):
                verdicts = dead_clause_map(context, participant, direction)
                clauses = context.clauses(participant, direction)
                for index in sorted(verdicts):
                    verdict = verdicts[index]
                    shadows = ", ".join(f"#{i}" for i in verdict.covered_by)
                    yield self._diagnostic(
                        SourceLocation(participant.name, direction, index),
                        f"clause {clauses[index].describe()} is dead: every "
                        f"packet it could match is taken by earlier clause(s) "
                        f"{shadows}",
                        witness=witness_packet(verdict.witness_space),
                        data=(("covered_by", list(verdict.covered_by)),))


class ShadowOverlapCheck(Check):
    """SDX002: clause pairs that compete for the same packets."""

    check_id = "SDX002"
    name = "shadowed-overlap"
    default_severity = Severity.WARNING

    def run(self, context: StaticsContext) -> Iterator[Diagnostic]:
        for participant in context.participants():
            for direction in context.directions(participant):
                dead = dead_clause_map(context, participant, direction)
                for winner, loser, witness, exact in clause_overlaps(
                        context.clauses(participant, direction),
                        context.clause_info(participant, direction)):
                    if loser in dead:
                        continue  # fully dead: SDX001 already reports it
                    certainty = "overlaps" if exact else "possibly overlaps"
                    yield self._diagnostic(
                        SourceLocation(participant.name, direction, loser),
                        f"clause #{winner} {certainty} this clause and wins "
                        f"by priority",
                        witness=witness,
                        data=(("winner", winner), ("exact", exact)))


class RoutelessForwardCheck(Check):
    """SDX003: fwd(peer) clauses the BGP join erases entirely."""

    check_id = "SDX003"
    name = "routeless-forward"
    default_severity = Severity.ERROR

    def run(self, context: StaticsContext) -> Iterator[Diagnostic]:
        peers = frozenset(context.route_server.peers())
        for participant in context.participants():
            if participant.is_remote:
                continue
            infos = context.clause_info(participant, "out")
            effective = context.effective(participant, "out")
            for index, info in enumerate(infos):
                clause = info.clause
                if info.dynamic or clause.drops:
                    continue
                if not isinstance(clause.target, str):
                    continue
                if clause.target not in peers:
                    yield self._diagnostic(
                        SourceLocation(participant.name, "out", index),
                        f"forwards to {clause.target!r}, which is not a "
                        f"route-server peer",
                        data=(("target", clause.target),))
                    continue
                if not info.regions:
                    continue  # vacuous predicate; nothing to erase
                if effective[index]:
                    continue
                eligible = context.route_server.reachable_prefixes(
                    participant.name, via=clause.target)
                witness = witness_packet(info.regions[0])
                yield self._diagnostic(
                    SourceLocation(participant.name, "out", index),
                    f"fwd({clause.target!r}) matches no prefix "
                    f"{clause.target!r} exported to {participant.name!r} "
                    f"({len(eligible)} eligible prefix(es)); the BGP join "
                    f"erases this clause and traffic falls to the default "
                    f"route",
                    witness=witness,
                    data=(("target", clause.target),
                          ("eligible_prefixes", [str(p) for p in eligible])))


def _vmac_constraints(predicate: Predicate) -> List[Tuple[str, MacAddress]]:
    """(field, value) pairs in the predicate that sit in the VMAC range."""
    found: List[Tuple[str, MacAddress]] = []
    stack = [predicate]
    while stack:
        node = stack.pop()
        if isinstance(node, Match):
            for name, value in node.space.items_sorted():
                if isinstance(value, MacAddress) and value.is_virtual:
                    found.append((name, value))
        stack.extend(node.children())
    return found


class IsolationCheck(Check):
    """SDX004: matches/actions on fields a participant may not control."""

    check_id = "SDX004"
    name = "isolation-violation"
    default_severity = Severity.ERROR

    def run(self, context: StaticsContext) -> Iterator[Diagnostic]:
        # Raw documents: the main surface — install-time validation has
        # not seen these yet.
        for document in context.raw_policies:
            yield from self._check_raw(document)
        # Installed clauses: defense in depth. Install-time validation
        # should have rejected these, so any finding here means a code
        # path bypassed the participant API.
        for participant in context.participants():
            for direction in context.directions(participant):
                for index, clause in enumerate(
                        context.clauses(participant, direction)):
                    fields = (_predicate_fields(clause.predicate)
                              | {name for name, _v in clause.modifications})
                    reserved = sorted(fields & RESERVED_FIELDS)
                    if reserved:
                        yield self._diagnostic(
                            SourceLocation(participant.name, direction, index),
                            f"installed clause touches reserved field(s) "
                            f"{reserved}; install-time validation was "
                            f"bypassed",
                            data=(("fields", reserved),))

    def _check_raw(self, document: RawPolicyDocument) -> Iterator[Diagnostic]:
        from repro.config import clause_to_policy
        from repro.core.clauses import normalize_policy

        try:
            clauses = normalize_policy(clause_to_policy(dict(document.clause)))
        except ReproError:
            return  # unparseable: SDX006's territory
        for clause in clauses:
            fields = (_predicate_fields(clause.predicate)
                      | {name for name, _v in clause.modifications})
            reserved = sorted(fields & RESERVED_FIELDS)
            if reserved:
                yield self._diagnostic(
                    document.location,
                    f"policy document touches reserved field(s) {reserved}; "
                    f"the SDX manages ports and MAC tags itself",
                    data=(("fields", reserved),))
            for name, value in _vmac_constraints(clause.predicate):
                yield self._diagnostic(
                    document.location,
                    f"match on {name}={value!s} targets the SDX virtual-MAC "
                    f"range (OUI a2:00:00); participants cannot address VMAC "
                    f"tags directly",
                    data=(("field", name), ("value", str(value))))
            if document.direction == "out":
                if isinstance(clause.target, int):
                    yield self._diagnostic(
                        document.location,
                        f"outbound forward to raw switch port "
                        f"{clause.target}; outbound policies must name a "
                        f"participant",
                        data=(("target", clause.target),))
                elif clause.target == document.participant:
                    yield self._diagnostic(
                        document.location,
                        "outbound policy forwards to its own participant",
                        data=(("target", clause.target),))


class BlackholeCheck(Check):
    """SDX005: A steers traffic into B, whose inbound policy drops it."""

    check_id = "SDX005"
    name = "inter-participant-blackhole"
    default_severity = Severity.WARNING

    def run(self, context: StaticsContext) -> Iterator[Diagnostic]:
        participants = {p.name: p for p in context.participants()}
        for sender in context.participants():
            if sender.is_remote:
                continue
            infos = context.clause_info(sender, "out")
            effective = context.effective(sender, "out")
            for index, info in enumerate(infos):
                clause = info.clause
                if info.dynamic or clause.drops:
                    continue
                target = clause.target
                if not isinstance(target, str) or target not in participants:
                    continue
                egress = participants[target]
                finding = self._blackhole_witness(
                    context, sender, index, effective[index], egress)
                if finding is None:
                    continue
                drop_index, witness = finding
                yield self._diagnostic(
                    SourceLocation(sender.name, "out", index),
                    f"steers traffic into {target!r}, whose inbound clause "
                    f"#{drop_index} drops it",
                    witness=witness,
                    data=(("target", target), ("drop_clause", drop_index)))

    def _blackhole_witness(self, context: StaticsContext, sender: Participant,
                           index: int, regions: Sequence[HeaderSpace],
                           egress: Participant
                           ) -> Optional[Tuple[int, Packet]]:
        inbound = context.clause_info(egress, "in")
        if not any(info.clause.drops for info in inbound):
            return None
        steered = HopDecision(kind="fwd", clause_index=index,
                              target=egress.name)
        for drop_index, drop_info in enumerate(inbound):
            if not drop_info.clause.drops or drop_info.dynamic:
                continue
            refused = HopDecision(kind="inbound-drop", clause_index=drop_index,
                                  target=egress.name)
            for region in regions:
                witness_space = first_intersection([region], drop_info.regions)
                if witness_space is None:
                    continue
                witness = witness_packet(witness_space)
                if (outbound_decision(context, sender, witness) == steered
                        and inbound_decision(
                            context, egress, witness) == refused):
                    return drop_index, witness
        return None


class FieldSanityCheck(Check):
    """SDX006: raw policy documents that fail type/field validation."""

    check_id = "SDX006"
    name = "field-sanity"
    default_severity = Severity.ERROR

    def run(self, context: StaticsContext) -> Iterator[Diagnostic]:
        for document in context.raw_policies:
            yield from self._check_document(document)

    def _check_document(self, document: RawPolicyDocument
                        ) -> Iterator[Diagnostic]:
        from repro.config import ConfigError, clause_to_policy

        clause = document.clause
        if document.direction not in ("in", "out"):
            yield self._diagnostic(
                document.location,
                f"policy direction must be 'in' or 'out', got "
                f"{document.direction!r}")
            return
        if not isinstance(clause, dict) or "match" not in clause:
            yield self._diagnostic(
                document.location,
                "clause document must be an object with a 'match' predicate")
            return
        if clause.get("drop") and "fwd" in clause:
            yield self._diagnostic(
                document.location,
                "clause both drops and forwards; pick one disposition")
            return
        try:
            clause_to_policy(dict(clause))
        except FieldError as error:
            yield self._diagnostic(
                document.location,
                f"field/type error before coerce_constraint: "
                f"{_strip_quotes(error)}")
        except AddressError as error:
            yield self._diagnostic(
                document.location, f"bad address or prefix: {error}")
        except (ConfigError, KeyError, TypeError, ValueError) as error:
            yield self._diagnostic(
                document.location, f"malformed clause document: {error!r}")


def _strip_quotes(error: BaseException) -> str:
    # KeyError-derived exceptions repr their message; unwrap one level.
    if error.args and isinstance(error.args[0], str):
        return error.args[0]
    return str(error)


class UnreachableDefaultCheck(Check):
    """SDX007: destinations with no default fabric rule for a sender."""

    check_id = "SDX007"
    name = "unreachable-default"
    default_severity = Severity.INFO

    #: Prefixes named explicitly in one message; the rest are counted.
    _MESSAGE_LIMIT = 6

    def run(self, context: StaticsContext) -> Iterator[Diagnostic]:
        server = context.route_server
        peers = frozenset(server.peers())
        withheld = self._withheld(server)
        for participant in context.participants():
            if participant.is_remote:
                continue
            own = set(participant.local_prefixes)
            if participant.name in peers:
                own.update(server.announced_set(participant.name))
                unrouted = withheld.get(participant.name, [])
            else:
                # Left the route server, not the topology: given nothing,
                # announcing nothing.
                unrouted = server.prefix_set()
            unrouted = sorted(prefix for prefix in unrouted
                              if prefix not in own)
            if not unrouted:
                continue
            policy_hit = self._policy_intersects(context, participant, unrouted)
            shown = ", ".join(str(p) for p in unrouted[:self._MESSAGE_LIMIT])
            if len(unrouted) > self._MESSAGE_LIMIT:
                shown += f" and {len(unrouted) - self._MESSAGE_LIMIT} more"
            if policy_hit is not None:
                prefix, index = policy_hit
                yield self._diagnostic(
                    SourceLocation(participant.name, "out", index),
                    f"outbound clause #{index} matches destinations in "
                    f"{prefix} but no route covers them — neither policy "
                    f"nor default tagging installs a fabric rule (no "
                    f"default route for: {shown})",
                    severity=Severity.WARNING,
                    witness=HeaderSpace(dstip=prefix).concretise(port=0),
                    data=(("prefixes", [str(p) for p in unrouted]),
                          ("clause_index", index)))
            else:
                yield self._diagnostic(
                    SourceLocation(participant.name),
                    f"no best route (and so no default fabric rule) toward: "
                    f"{shown}",
                    data=(("prefixes", [str(p) for p in unrouted]),))

    @staticmethod
    def _withheld(server: RouteServer) -> Dict[str, List[IPv4Prefix]]:
        """Per receiver, the prefixes it is given no route for, unordered.

        A :class:`~repro.bgp.routeserver.Decision` gives every peer its best
        route except the keys of ``exceptions``, so a peer goes without
        exactly where it maps to ``None`` there: one pass over the kept
        decisions, not one ``route_for`` per peer and prefix."""
        withheld: Dict[str, List[IPv4Prefix]] = {}
        for prefix in server.prefix_set():
            for receiver, route in server.decide(prefix).exceptions.items():
                if route is None:
                    withheld.setdefault(receiver, []).append(prefix)
        return withheld

    def _policy_intersects(self, context: StaticsContext,
                           participant: Participant, prefixes):
        """(prefix, clause index) of the first outbound clause whose raw
        region reaches an unrouted prefix, or ``None``."""
        infos = context.clause_info(participant, "out")
        for prefix in prefixes:
            space = HeaderSpace(dstip=prefix)
            for index, info in enumerate(infos):
                if info.dynamic or info.clause.drops:
                    continue  # an intersecting drop is intentional
                if first_intersection([space], info.regions) is not None:
                    return prefix, index
        return None
