"""Forwarding equivalence classes via Minimum Disjoint Subsets.

Section 4.2 of the paper groups prefixes that "share the same forwarding
behavior throughout the SDX fabric" so that one rule per group replaces
one rule per prefix. The grouping input is a collection of prefix sets:

* one set per *outbound-policy context* — the prefixes eligible for a
  policy's next hop (pass 1 of the paper's three-pass description);
* the route server's default-routing behaviour (pass 2), captured here as
  the preference-ranked announcer list per prefix, which determines every
  participant's default next hop at once.

The paper's pass 3 — computing the Minimum Disjoint Subsets (MDS) of the
combined collection — reduces to a single hashing pass: give each prefix
the *signature* of which sets contain it (plus its ranking), and group
prefixes by signature. Two prefixes share a group iff they co-occur in
every set, which is exactly the paper's maximality condition, and the
pass is O(total set size) — comfortably inside the promised polynomial
bound.

Prefixes touched by no policy keep their real BGP next hop and are
deliberately excluded (the runtime "simply behaves like a normal route
server" for them).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from repro.bgp.routeserver import RouteServer
from repro.core.participant import Participant
from repro.net.addresses import IPv4Prefix

#: Identifies one outbound-policy context: (participant name, next-hop name).
ContextId = Tuple[str, str]


@dataclass(frozen=True)
class PrefixGroup:
    """One forwarding equivalence class.

    ``contexts`` records which policy contexts the whole group is eligible
    for; ``ranked_announcers`` is the shared default-routing signature.
    """

    group_id: int
    prefixes: FrozenSet[IPv4Prefix]
    contexts: FrozenSet[ContextId]
    ranked_announcers: Tuple[str, ...]

    @cached_property
    def representative(self) -> IPv4Prefix:
        """A deterministic member prefix.

        Because grouping guarantees identical forwarding behaviour for
        every member, per-participant questions about the group (e.g.
        its default next hop) can be answered for the representative.
        """
        return min(self.prefixes)

    def __len__(self) -> int:
        return len(self.prefixes)

    def __repr__(self) -> str:
        sample = ", ".join(str(p) for p in sorted(self.prefixes)[:3])
        suffix = ", ..." if len(self.prefixes) > 3 else ""
        return f"PrefixGroup(#{self.group_id}, {{{sample}{suffix}}})"


def minimum_disjoint_subsets(
        sets: Iterable[Iterable[IPv4Prefix]]) -> List[FrozenSet[IPv4Prefix]]:
    """The Minimum Disjoint Subsets of a collection of prefix sets.

    Returns the coarsest partition of the union such that every input set
    is a union of whole parts — i.e. the groups of prefixes that always
    appear together. This is the pure algorithm evaluated in Figure 6.
    """
    membership: Dict[IPv4Prefix, List[int]] = {}
    for set_index, prefix_set in enumerate(sets):
        for prefix in prefix_set:
            membership.setdefault(prefix, []).append(set_index)
    grouped: Dict[Tuple[int, ...], List[IPv4Prefix]] = {}
    for prefix, indices in membership.items():
        grouped.setdefault(tuple(indices), []).append(prefix)
    return [frozenset(prefixes) for prefixes in grouped.values()]


def policy_contexts(participants: Iterable[Participant],
                    route_server: RouteServer) -> Dict[ContextId, FrozenSet[IPv4Prefix]]:
    """The eligible-prefix set for every (participant, next-hop) pair that
    appears in some outbound policy.

    Multiple policies of one participant toward the same next hop share a
    context: their eligibility filter is identical (it depends only on
    what the next hop exported), so splitting them would only fragment
    groups without changing behaviour.
    """
    contexts: Dict[ContextId, FrozenSet[IPv4Prefix]] = {}
    for participant in participants:
        for target in participant.outbound_targets():
            key = (participant.name, target)
            if key not in contexts:
                contexts[key] = route_server.reachable_prefix_set(
                    participant.name, via=target)
        if participant.is_remote:
            # Prefixes originated by a remote participant have no physical
            # next-hop MAC, so they must always be VNH-tagged: give them a
            # synthetic context even when no outbound policy names them.
            originated = frozenset(route_server.announced_by(participant.name))
            if originated:
                contexts[("@origin", participant.name)] = originated
    return contexts


def compute_prefix_groups(participants: Iterable[Participant],
                          route_server: RouteServer,
                          rankings: Optional[Dict[IPv4Prefix, tuple]] = None
                          ) -> List[PrefixGroup]:
    """The forwarding equivalence classes of the current SDX state.

    Groups are deterministic: sorted by their smallest member prefix and
    numbered from 0, so repeated compilations assign identical VMACs for
    identical state. ``rankings`` carries each prefix's ranking signature
    over from earlier calls; it reads only route-server state and the
    participants' AS numbers, so the caller drops it when either moves.
    """
    participant_list = list(participants)
    participant_asns = {p.asn for p in participant_list}
    if rankings is None:
        rankings = {}
    # Thousands of prefixes share a few hundred signatures: keep one each.
    shared = {signature: signature for signature in rankings.values()}
    contexts = policy_contexts(participant_list, route_server)
    signature_to_prefixes: Dict[Hashable, List[IPv4Prefix]] = {}
    signature_parts: Dict[Hashable, Tuple[FrozenSet[ContextId], Tuple[str, ...]]] = {}
    membership: Dict[IPv4Prefix, List[ContextId]] = {}
    for context_id in sorted(contexts):
        for prefix in contexts[context_id]:
            membership.setdefault(prefix, []).append(context_id)
    for prefix, context_ids in membership.items():
        ranking = rankings.get(prefix)
        if ranking is None:
            ranked_routes = route_server.ranked_routes(prefix)
            # Export-control communities — and participant ASNs appearing
            # in a route's path (loop prevention withholds such routes
            # from that participant) — make otherwise-identical rankings
            # behave differently per receiver, so they join the signature.
            signature = (
                tuple(entry.learned_from for entry in ranked_routes),
                tuple(
                    (route_server.export_control_communities(entry.attributes),
                     frozenset(asn for asn in entry.attributes.as_path.asns
                               if asn in participant_asns))
                    for entry in ranked_routes))
            ranking = rankings[prefix] = shared.setdefault(
                signature, signature)
        signature = (tuple(context_ids), ranking)
        signature_to_prefixes.setdefault(signature, []).append(prefix)
        signature_parts[signature] = (frozenset(context_ids), ranking[0])
    groups: List[PrefixGroup] = []
    ordered = sorted(signature_to_prefixes.items(),
                     key=lambda item: min(item[1]))
    for group_id, (signature, prefixes) in enumerate(ordered):
        context_ids, ranked = signature_parts[signature]
        groups.append(PrefixGroup(
            group_id=group_id,
            prefixes=frozenset(prefixes),
            contexts=context_ids,
            ranked_announcers=ranked))
    return groups


def groups_for_context(groups: Iterable[PrefixGroup],
                       context: ContextId) -> List[PrefixGroup]:
    """The groups eligible under one outbound-policy context."""
    return [group for group in groups if context in group.contexts]
