"""Standing invariants checked after every fuzzed trace step.

Each checker returns a list of :class:`Violation` records (empty =
invariant holds), so the oracle can fold them into its failure report
and the migrated integration tests can assert on them directly:

- :func:`check_single_delivery` — totality/no-loops: every probe yields
  at most one delivery, at a physical port, accepted by the router;
- :func:`check_bgp_consistency` — delivered traffic always has an
  announced-and-exported route at the egress participant (Section 4.1);
- :func:`check_default_conformance` — border-router FIBs agree with the
  route server, and emitted packets carry the VNH's virtual MAC tag
  (the Section 4.2 encoding the whole data plane keys on);
- :func:`check_table_is_compilation` — the main table is exactly the
  installed compilation's rules under the compiler's keys, and those keys
  order every pair of overlapping rules as the classifier does;
- :func:`check_loc_rib` — what the route server keeps from its writes (the
  ranked Loc-RIB, every route's export class, the kept decisions) is what
  the Adj-RIB-Ins and the current peers would give if worked out now;
- :class:`SwapMonitor` — the southbound two-phase swap never drops a
  probe mid-swap that is deliverable both before and after, and every
  intermediate observation equals the old or the new outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bgp.decision import preference_key
from repro.bgp.rib import PrefixTrie, RouteEntry
from repro.core.controller import SdxController
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.mac import MacAddress
from repro.net.packet import Packet
from repro.policy.flowrules import FlowRule
from repro.southbound.diff import PRIORITY_CEILING

#: A forwarding outcome: (egress participant, delivery port) or dropped.
Outcome = Optional[Tuple[str, int]]


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which invariant, and what happened."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


def _physical_senders(controller: SdxController) -> List[str]:
    return [participant.name
            for participant in controller.topology.participants()
            if not participant.is_remote]


def outcome_of(controller: SdxController, sender: str,
               packet: Packet) -> Outcome:
    """One probe's (egress, delivery port), or ``None`` when dropped."""
    accepted = [delivery for delivery in controller.send(sender, packet)
                if delivery.accepted]
    if not accepted:
        return None
    return accepted[0].participant, accepted[0].switch_port


def check_single_delivery(controller: SdxController,
                          probes: Sequence[Packet]) -> List[Violation]:
    """Every probe: at most one delivery, physical port, accepted."""
    violations: List[Violation] = []
    physical = set(controller.topology.physical_ports())
    for sender in _physical_senders(controller):
        for index, probe in enumerate(probes):
            deliveries = controller.send(sender, probe)
            if len(deliveries) > 1:
                violations.append(Violation(
                    "single-delivery",
                    f"{sender} probe#{index} delivered {len(deliveries)} "
                    f"times"))
            for delivery in deliveries:
                if delivery.switch_port not in physical:
                    violations.append(Violation(
                        "single-delivery",
                        f"{sender} probe#{index} exited virtual port "
                        f"{delivery.switch_port}"))
                if not delivery.accepted:
                    violations.append(Violation(
                        "single-delivery",
                        f"{sender} probe#{index} refused by "
                        f"{delivery.participant} (MAC mismatch)"))
    return violations


def check_bgp_consistency(controller: SdxController,
                          probes: Sequence[Packet]) -> List[Violation]:
    """Delivered traffic has an announced+exported covering route."""
    violations: List[Violation] = []
    server = controller.route_server
    for sender in _physical_senders(controller):
        for index, probe in enumerate(probes):
            egress = controller.egress_of(sender, probe)
            if egress is None:
                continue
            dstip = probe.get("dstip")
            covering = [prefix for prefix in server.announced_by(egress)
                        if prefix.contains_address(dstip)]
            if not covering:
                violations.append(Violation(
                    "bgp-consistency",
                    f"{sender} probe#{index} to {dstip} egressed at "
                    f"{egress}, which announced no covering route"))
            elif not server.exports_to(egress, sender):
                violations.append(Violation(
                    "bgp-consistency",
                    f"{sender} probe#{index} delivered to {egress}, which "
                    f"does not export to {sender}"))
    return violations


def _conformance(name: str, prefix: IPv4Prefix, best: Optional[RouteEntry],
                 emitted: Optional[Packet], vmac: Optional[MacAddress],
                 resolve: Callable[[IPv4Address], Optional[MacAddress]]
                 ) -> Optional[Violation]:
    """One router's breach on one prefix, judged from what it emitted: a
    tagged prefix must carry its VMAC, an untagged one the MAC of the next
    hop of the route it is given (``resolve``: ARP)."""
    if best is None:
        if emitted is None:
            return None
        return Violation(
            "default-conformance",
            f"{name} routes {prefix} with no best route at the route server")
    if emitted is None:
        return Violation(
            "default-conformance",
            f"{name} has no FIB entry for {prefix} despite a best route via "
            f"{best.learned_from}")
    if vmac is not None:
        if emitted.get("dstmac") != vmac:
            return Violation(
                "default-conformance",
                f"{name} tags {prefix} with {emitted.get('dstmac')}, "
                f"allocator says {vmac}")
        return None
    next_hop = best.attributes.next_hop
    if emitted.get("dstmac") != resolve(next_hop):
        return Violation(
            "default-conformance",
            f"{name} sends {prefix} to {emitted.get('dstmac')}, not to its "
            f"next hop {next_hop} via {best.learned_from}")
    return None


def check_default_conformance(controller: SdxController) -> List[Violation]:
    """Router FIBs and VMAC tags agree with the route server + allocator.

    For every (participant, prefix): a FIB entry exists exactly when the
    route server has a best route for that participant, and packets the
    router emits toward the prefix carry — when it is VNH-tagged — the
    allocator's virtual MAC, the tag every default and policy rule matches
    on, or else the MAC of the next hop of the route the server gives that
    participant, which the fabric's MAC-learning rules forward on. A
    participant given no route for the prefix is judged by the longest
    announced cover of the probe it is given one for (none: it must drop
    the probe) — it rightly forwards a withheld /24 by the /16 it holds.
    Every verdict reads a router's own :meth:`emit`, once per distinct
    overlay: a router whose
    :attr:`~repro.dataplane.router.BorderRouter.overlay` covers the probe
    address is asked itself, the others once per shared table they read —
    and they are judged one by one only where the route server gives them
    something else than the best route, or that one is breached.
    """
    if controller.fabric is None:
        return []
    server = controller.route_server
    resolve = controller.fabric.arp.resolve
    prefixes = server.all_prefixes()
    announced: PrefixTrie[None] = PrefixTrie()
    for prefix in prefixes:
        announced.insert(prefix, None)
    # Only check prefixes that are the most specific cover of their own
    # probe address, so overlapping announcements don't cross-talk.
    checked = []
    for prefix in prefixes:
        probe_ip = prefix.first_address + 1
        cover = announced.longest_match(probe_ip)
        if cover is not None and cover[0] == prefix:
            checked.append((prefix, probe_ip))
    routers = {participant.name: participant.router
               for participant in controller.topology.participants()
               if participant.router is not None}
    place = {name: index for index, name in enumerate(routers)}
    overlaid: PrefixTrie[List[str]] = PrefixTrie()
    tables: Dict[object, List[str]] = {}
    for name, router in routers.items():
        tables.setdefault(router.shared, []).append(name)
        for prefix in router.overlay:
            held = overlaid.exact(prefix)
            if held is None:
                overlaid.insert(prefix, [name])
            else:
                held.append(name)

    def given_cover(name: str, probe_ip: IPv4Address
                    ) -> Tuple[Optional[RouteEntry], Optional[MacAddress]]:
        """The route ``name`` is given for the longest announced cover of
        ``probe_ip`` it is given one for, and that cover's tag; ``None``s
        when it is given none."""
        for cover, _none in announced.matching(probe_ip):
            route = server.decide(cover).route_for(name)
            if route is not None:
                return route, controller.allocator.vmac_for_prefix(cover)
        return None, None

    found: List[Tuple[int, int, Violation]] = []
    peers, absent = None, []
    for at, (prefix, probe_ip) in enumerate(checked):
        decision = server.decide(prefix)
        probe = Packet(dstip=probe_ip)
        vmac = controller.allocator.vmac_for_prefix(prefix)
        if decision.peers is not peers:
            peers = decision.peers
            absent = [name for name in routers if name not in peers]
        own = {name for _prefix, names in overlaid.matching(probe_ip)
               for name in names}
        # (router, what it emitted) for each router judged on its own.
        judged = [(name, routers[name].emit(probe)) for name in own]
        given_other = {name for name in (*decision.exceptions, *absent)
                       if name in routers and name not in own}
        for shared, names in tables.items():
            plain = next((name for name in names if name not in own), None)
            if plain is None:
                continue
            emitted = routers[plain].emit(probe)
            judged.extend((name, emitted) for name in given_other
                          if routers[name].shared is shared)
            if _conformance("", prefix, decision.best, emitted,
                            vmac, resolve) is not None:
                judged.extend((name, emitted) for name in names
                              if name not in own and name not in given_other)
        for name, emitted in judged:
            route, tag = decision.route_for(name), vmac
            if route is None:
                route, tag = given_cover(name, probe_ip)
            breach = _conformance(name, prefix, route, emitted, tag, resolve)
            if breach is not None:
                found.append((place[name], at, breach))
    found.sort(key=itemgetter(0, 1))
    return [breach for _place, _at, breach in found]


def check_table_is_compilation(controller: SdxController) -> List[Violation]:
    """The table is a function of the compilation, not of how it got there.

    Outside a swap (nothing queued: between its two phases the old rules
    are), the main table — what lies under the fast-path band — holds the
    installed compilation's rules, key for key and action for action,
    whether it was started, edited, swapped or rolled back into that state.
    And the keys mean what the classifier means: of two rules that share a
    packet the earlier has the higher priority, so no packet's fate hangs
    on which of two equal-priority rules was installed first.
    """
    compiled = controller.last_compilation
    if compiled is None or controller.southbound.pending:
        return []
    violations: List[Violation] = []
    main = [rule for rule in controller.table.rules
            if rule.priority < PRIORITY_CEILING]
    stray = set(main) ^ set(compiled.rules)
    if stray or len(main) != len(compiled.rules):
        violations.append(Violation(
            "table-is-compilation",
            f"{len(main)} main-table rules vs {len(compiled.rules)} compiled;"
            f" on one side only: {[r.describe() for r in stray][:3]}"))
    above: Dict[Optional[int], List[FlowRule]] = {}
    for rule in compiled.rules:
        port = rule.match.get("port")
        for earlier in chain.from_iterable(
                above.values() if port is None
                else (above.get(port, ()), above.get(None, ()))):
            if (earlier.priority <= rule.priority
                    and earlier.match.overlaps(rule.match)):
                violations.append(Violation(
                    "table-is-compilation",
                    f"[{earlier.describe()}] precedes [{rule.describe()}] "
                    "in the classifier, shares packets with it and does not "
                    "outrank it"))
        above.setdefault(port, []).append(rule)
    return violations


def check_loc_rib(controller: SdxController) -> List[Violation]:
    """The route server's kept state is a function of its Adj-RIB-Ins.

    However it got there — updates, a bulk load, session resets and
    failures, a stuck route, peers joining and leaving — the Loc-RIB ranks,
    for every prefix some peer announces and for no other, the very entries
    the Adj-RIB-Ins hold, in :func:`~repro.bgp.decision.preference_key`
    order; every stored route's export class is the one the peers of this
    moment give it; and where the ranking is right, the kept decision gives
    every peer the very route a read of that ranking for it does. The
    Adj-RIB-Ins are read peer by peer, not through the Loc-RIB this judges.
    """
    server = controller.route_server
    violations: List[Violation] = []
    peers = server.peers()
    member_asns = {server.session(peer).asn for peer in peers}
    announced: Dict[IPv4Prefix, List[RouteEntry]] = {}
    for peer in peers:
        for entry in server.routes_from(peer):
            announced.setdefault(entry.prefix, []).append(entry)
            fresh = (peer, server.export_control_communities(entry.attributes),
                     frozenset(asn for asn in entry.attributes.as_path.asns
                               if asn in member_asns))
            if entry.export_class != fresh:
                violations.append(Violation(
                    "loc-rib", f"{entry!r} is classed {entry.export_class}, "
                               f"its peers now make it {fresh}"))
    for prefix in announced.keys() | set(server.all_prefixes()):
        kept = server.ranked_routes(prefix)
        ranked = sorted(announced.get(prefix, ()), key=preference_key)
        if not ranked or len(kept) != len(ranked) or any(
                mine is not theirs for mine, theirs in zip(kept, ranked)):
            violations.append(Violation(
                "loc-rib", f"{prefix} is ranked {list(kept)}, the "
                           f"Adj-RIB-Ins rank {ranked}"))
            continue
        decision = server.decide(prefix)
        stale = [peer for peer in peers if decision.route_for(peer)
                 is not server.best_route_for(peer, prefix)]
        if stale:
            violations.append(Violation(
                "loc-rib", f"{prefix}'s kept decision is stale for {stale}"))
    return violations


def check_all(controller: SdxController,
              probes: Sequence[Packet]) -> List[Violation]:
    """Every standing invariant, concatenated."""
    return (check_single_delivery(controller, probes)
            + check_bgp_consistency(controller, probes)
            + check_default_conformance(controller)
            + check_table_is_compilation(controller)
            + check_loc_rib(controller))


class SwapMonitor:
    """Observes a consistency-preserving table swap, probe by probe.

    Attach around a recompilation (``with SwapMonitor(...) as monitor:``),
    and the monitor re-forwards every probe after each southbound batch.
    :meth:`violations` then reports two kinds of breach of the two-phase
    guarantee:

    * a probe deliverable both before and after the swap that dropped at
      some intermediate table state (transient blackhole);
    * an intermediate outcome that matches neither the old nor the new
      forwarding (transient misrouting onto a stale mid-priority rule).
    """

    def __init__(self, controller: SdxController,
                 probes: Sequence[Packet]):
        self.controller = controller
        self.probes = tuple(probes)
        self.baseline: Dict[Tuple[str, int], Outcome] = {}
        self.final: Dict[Tuple[str, int], Outcome] = {}
        self.intermediate: List[Dict[Tuple[str, int], Outcome]] = []
        self._probing = False

    def _snapshot(self) -> Dict[Tuple[str, int], Outcome]:
        return {
            (sender, index): outcome_of(self.controller, sender, probe)
            for sender in _physical_senders(self.controller)
            for index, probe in enumerate(self.probes)
        }

    def _on_batch(self, batch) -> None:
        if self._probing:  # pragma: no cover - defensive reentrancy guard
            return
        self._probing = True
        try:
            self.intermediate.append(self._snapshot())
        finally:
            self._probing = False

    def __enter__(self) -> "SwapMonitor":
        self.baseline = self._snapshot()
        self.controller.southbound.add_observer(self._on_batch)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.controller.southbound.remove_observer(self._on_batch)
        self.final = self._snapshot()

    def violations(self) -> List[Violation]:
        """Breaches of the old-path-or-new-path guarantee."""
        out: List[Violation] = []
        for key, before in self.baseline.items():
            after = self.final.get(key)
            allowed = {before, after}
            for stage, snapshot in enumerate(self.intermediate):
                seen = snapshot.get(key)
                if seen in allowed:
                    continue
                sender, index = key
                kind = ("transient blackhole" if seen is None
                        else "transient misroute")
                out.append(Violation(
                    "two-phase-swap",
                    f"{kind}: {sender} probe#{index} saw {seen} at batch "
                    f"{stage} (old={before}, new={after})"))
        return out
