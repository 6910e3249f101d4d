"""Transformation 3: default forwarding along the best BGP route.

Every packet enters the fabric with a destination MAC that encodes where
BGP would send it (Section 4.1/4.2):

* packets for *policy-touched* prefixes carry the **VMAC** of their prefix
  group (the border router learned a virtual next hop); the default rule
  for the group forwards to the group's default next-hop participant;
* packets for *untouched* prefixes carry the **real MAC** of the next-hop
  router port (the route server left the next hop unchanged); one
  MAC-learning rule per physical port forwards them.

Default next hops are shared across ingress participants whenever the
route server would pick the same best route for everyone — only the
exceptions (typically the best route's own announcer, plus participants
excluded by export filters) get per-ingress rules, which keeps the
default table linear in groups + ports instead of groups × participants.

Both rule families forward to the *virtual* port of the next-hop
participant, so that participant's inbound policies still apply before
final delivery. All output is in clause form (:mod:`repro.core.clauses`)
so the compiler's single clause-to-rules path handles policies and
defaults identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.bgp.routeserver import Decision, RouteServer
from repro.core.clauses import Clause
from repro.core.fec import PrefixGroup
from repro.core.participant import Participant
from repro.core.vnh import VnhAllocator
from repro.core.vswitch import VirtualTopology
from repro.policy.policies import Conjunction, match
from repro.policy.predicates import match_any_value


def default_next_hop(decision: Decision, participant: str) -> Optional[str]:
    """The participant's default next hop for a prefix group.

    ``decision`` is the route server's decision for the group's
    representative prefix, taken once per group — sound because grouping
    guarantees identical selection (same ranking, same export behaviour)
    for every member.
    """
    best = decision.route_for(participant)
    return None if best is None else best.learned_from


@dataclass
class DefaultForwarding:
    """The two priority layers of the default-forwarding policy."""

    #: Per-(ingress, group) overrides; must shadow the shared layer.
    exceptions: List[Clause]
    #: Ingress-wildcard per-group clauses plus per-port MAC-learning clauses.
    shared: List[Clause]

    @property
    def clause_count(self) -> int:
        """Total number of default clauses (for table-size accounting)."""
        return len(self.exceptions) + len(self.shared)


def _mac_learning_clauses(participants: Sequence[Participant],
                          topology: VirtualTopology,
                          guard=None) -> Iterable[Clause]:
    """One clause per physical port: real next-hop MAC → owner's vswitch."""
    for participant in participants:
        if participant.is_remote:
            continue
        for port in participant.router.ports:
            predicate = match(dstmac=port.mac)
            if guard is not None:
                predicate = Conjunction((guard, predicate))
            yield Clause(predicate=predicate,
                         target=topology.vport(participant.name))


def build_default_forwarding(participants: Sequence[Participant],
                             groups: Sequence[PrefixGroup],
                             allocator: VnhAllocator,
                             topology: VirtualTopology,
                             route_server: RouteServer) -> DefaultForwarding:
    """Build the shared default-forwarding clauses for the current state."""
    exceptions: List[Clause] = []
    shared: List[Clause] = []
    physical = [p for p in participants if not p.is_remote]

    for group in groups:
        vmac = allocator.vmac_for_group(group.group_id)
        ranking = group.ranked_announcers
        common = ranking[0] if ranking else None
        decision = route_server.decide(group.representative)
        if common is not None:
            shared.append(Clause(predicate=match(dstmac=vmac),
                                 target=topology.vport(common)))
        # Participants whose best differs from the shared choice: always
        # the common announcer itself; everyone when it restricts exports.
        if common is None:
            candidates: Iterable[Participant] = ()
        elif route_server.has_export_restrictions(common):
            candidates = physical
        else:
            candidates = [p for p in physical if p.name == common]
        for participant in candidates:
            specific = default_next_hop(decision, participant.name)
            if specific == common:
                continue
            predicate = Conjunction((
                match_any_value("port", participant.switch_ports),
                match(dstmac=vmac)))
            if specific is None:
                exceptions.append(Clause(predicate=predicate, drops=True))
            else:
                exceptions.append(Clause(
                    predicate=predicate, target=topology.vport(specific)))

    shared.extend(_mac_learning_clauses(physical, topology))
    return DefaultForwarding(exceptions=exceptions, shared=shared)


def build_participant_defaults(participant: Participant,
                               participants: Sequence[Participant],
                               groups: Sequence[PrefixGroup],
                               allocator: VnhAllocator,
                               topology: VirtualTopology,
                               route_server: RouteServer) -> List[Clause]:
    """One participant's fully ingress-guarded default clauses.

    This is the paper's literal ``defA`` construction (Section 4.1): every
    clause matches the participant's own ports, so the naive composition
    path can parallel-compose participants without cross-talk. The price
    is groups × participants total clauses — the redundancy the shared
    layer of :func:`build_default_forwarding` eliminates.
    """
    guard = match_any_value("port", participant.switch_ports)
    clauses: List[Clause] = []
    for group in groups:
        vmac = allocator.vmac_for_group(group.group_id)
        best = route_server.best_route_for(
            participant.name, group.representative)
        next_hop = None if best is None else best.learned_from
        predicate = Conjunction((guard, match(dstmac=vmac)))
        if next_hop is None:
            clauses.append(Clause(predicate=predicate, drops=True))
        else:
            clauses.append(Clause(predicate=predicate,
                                  target=topology.vport(next_hop)))
    clauses.extend(_mac_learning_clauses(
        [p for p in participants if not p.is_remote], topology, guard=guard))
    return clauses
