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
route server picks the same best route for everyone — only the exceptions
of its decision (the best route's own announcer, members whose AS is on
its path, members its export policy or communities exclude) get
per-ingress rules, which keeps the default table linear in groups + ports
instead of groups × participants.

Both rule families forward to the *virtual* port of the next-hop
participant, so that participant's inbound policies still apply before
final delivery. All output is in clause form (:mod:`repro.core.clauses`)
so the compiler's single clause-to-rules path handles policies and
defaults identically.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bgp.routeserver import Decision
from repro.core.clauses import Clause
from repro.core.participant import Participant
from repro.core.vswitch import VirtualTopology
from repro.net.mac import MacAddress
from repro.policy.policies import Conjunction, Predicate, match
from repro.policy.predicates import match_any

#: One prefix group as the default layer sees it: its VMAC tag and the
#: route server's decision for (a representative of) its prefixes.
Entry = Tuple[MacAddress, Decision]


def ingress_guard(participant: Participant) -> Predicate:
    """Transformation 1 for outbound traffic: the packet entered on one of
    the participant's own physical ports."""
    return match_any("port", participant.switch_ports)


def default_next_hop(decision: Decision, participant: str) -> Optional[str]:
    """The participant's default next hop for a prefix group.

    ``decision`` is the route server's decision for the group's
    representative prefix, taken once per group — sound because grouping
    guarantees identical selection (same ranking, same export behaviour)
    for every member.
    """
    best = decision.route_for(participant)
    return None if best is None else best.learned_from


def default_clause(ingress: Predicate, tag: MacAddress,
                   next_hop: Optional[str],
                   topology: VirtualTopology) -> Clause:
    """One participant's own default for traffic tagged ``tag`` (``ingress``
    is its :func:`ingress_guard`): on to ``next_hop``'s virtual switch, or
    dropped when it has no route."""
    predicate = Conjunction((ingress, match(dstmac=tag)))
    if next_hop is None:
        return Clause(predicate=predicate, drops=True)
    return Clause(predicate=predicate, target=topology.vport(next_hop))


def mac_learning_clauses(participants: Sequence[Participant],
                         topology: VirtualTopology,
                         guard=None) -> Iterable[Clause]:
    """One clause per physical port: real next-hop MAC → owner's vswitch.
    They go under a whole table's shared default clauses."""
    for participant in participants:
        if participant.is_remote:
            continue
        for port in participant.router.ports:
            predicate = match(dstmac=port.mac)
            if guard is not None:
                predicate = Conjunction((guard, predicate))
            yield Clause(predicate=predicate,
                         target=topology.vport(participant.name))


def build_default_forwarding(entries: Iterable[Entry],
                             topology: VirtualTopology,
                             ) -> Iterator[Tuple[List[Clause], List[Clause]]]:
    """The default layer, entry by entry, as two priority layers each.

    First an entry's per-ingress exceptions, which must shadow the second:
    its one ingress-wildcard clause. ``entries`` is consumed lazily — an
    entry is decided when its clauses are asked for — and every entry's
    clauses stand alone, so a table's default layer is the exceptions of
    all its groups stacked over their shared clauses, whichever of them
    were built when. An entry costs its exceptions, looked up by name, not
    a pass over the membership.
    """
    for tag, decision in entries:
        if decision.best is None:
            yield [], []
            continue
        common = decision.best.learned_from
        # Whoever the decision gives another route than the shared one, or
        # none — in name order: set order must not reach the classifier.
        yield [default_clause(ingress_guard(member), tag, hop, topology)
               for name in sorted(decision.exceptions)
               if (member := topology.physical(name)) is not None
               and (hop := default_next_hop(decision, name)) != common], [
            Clause(predicate=match(dstmac=tag), target=topology.vport(common))]


def build_participant_defaults(participant: Participant,
                               participants: Sequence[Participant],
                               entries: Iterable[Entry],
                               topology: VirtualTopology) -> List[Clause]:
    """One participant's fully ingress-guarded default clauses.

    This is the paper's literal ``defA`` construction (Section 4.1): every
    clause matches the participant's own ports, so the naive composition
    path can parallel-compose participants without cross-talk. The price
    is groups × participants total clauses — the redundancy the shared
    layer of :func:`build_default_forwarding` eliminates.
    """
    guard = ingress_guard(participant)
    clauses = [
        default_clause(guard, tag,
                       default_next_hop(decision, participant.name), topology)
        for tag, decision in entries]
    clauses.extend(mac_learning_clauses(participants, topology, guard=guard))
    return clauses
