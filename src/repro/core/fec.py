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

from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Tuple)

from repro.bgp.rib import PrefixTrie, RouteEntry
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
    ``signature`` — the contexts plus the full ranking signature, export
    control included — is what makes the group: it names the same class
    from one compilation to the next, whereas ``group_id`` renumbers
    whenever a group appears or vanishes before it.
    """

    group_id: int
    prefixes: FrozenSet[IPv4Prefix]
    contexts: FrozenSet[ContextId]
    ranked_announcers: Tuple[str, ...]
    signature: Hashable = None
    #: The smallest member prefix. Grouping guarantees identical forwarding
    #: behaviour for every member, so per-participant questions about the
    #: group (e.g. its default next hop) can be answered for this one.
    representative: IPv4Prefix = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.representative is None:
            object.__setattr__(self, "representative", min(self.prefixes))

    def __len__(self) -> int:
        return len(self.prefixes)

    def __repr__(self) -> str:
        sample = ", ".join(str(p) for p in sorted(self.prefixes)[:3])
        suffix = ", ..." if len(self.prefixes) > 3 else ""
        return f"PrefixGroup(#{self.group_id}, {{{sample}{suffix}}})"


@dataclass
class Grouping:
    """What :func:`compute_prefix_groups` keeps to patch its last answer:
    every policy-touched prefix's signature (as a trie, which also finds
    the groups a ``dstip`` constraint overlaps) and each signature's group."""

    signatures: "PrefixTrie[Hashable]" = field(default_factory=PrefixTrie)
    groups: Dict[Hashable, PrefixGroup] = field(default_factory=dict)

    def copy(self) -> "Grouping":
        """An independent copy (the groups themselves are immutable)."""
        return Grouping(self.signatures.copy(), dict(self.groups))


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


def outbound_contexts(participants: Iterable[Participant],
                      route_server: RouteServer) -> Iterator[ContextId]:
    """Every (holder, target) an outbound clause forwards along.

    A target that is not a route-server peer — a member that left the
    route server but not the topology — reaches nothing, so it makes no
    context: its clauses match no prefix and their traffic keeps its
    default route.
    """
    for participant in participants:
        for target in participant.outbound_targets():
            if route_server.is_peer(target):
                yield participant.name, target


def compute_prefix_groups(participants: Iterable[Participant],
                          route_server: RouteServer,
                          kept: Optional[Grouping] = None,
                          dirty: Optional[Iterable[IPv4Prefix]] = None
                          ) -> List[PrefixGroup]:
    """The forwarding equivalence classes of the current SDX state.

    Groups are deterministic: sorted by their smallest member prefix and
    numbered from 0, so repeated compilations assign identical VMACs for
    identical state.

    Each dirty prefix is given the *signature* of which contexts contain it
    (asked of the routes that announce it: only a context's target can make
    it eligible) plus its ranking, and moved to that signature's group.
    The signature reads nothing of a route but its export class, so it is
    worked out once per distinct tuple of ranked classes — thousands of
    prefixes share a few hundred — and a prefix costs a read of the Loc-RIB
    and one of that memo. ``kept``, updated in place, is what an earlier
    call left and ``dirty`` the prefixes whose routes or contexts may have
    changed since; without ``dirty`` every prefix is, which is the
    computation from scratch. Signatures also read the peers' AS numbers
    (through the classes) and the export policy: the caller starts over
    when those move.
    """
    toward: Dict[str, List[ContextId]] = {}
    for holder, target in outbound_contexts(participants, route_server):
        toward.setdefault(target, []).append((holder, target))
    for participant in participants:
        if participant.is_remote:
            # Prefixes originated by a remote participant have no physical
            # next-hop MAC, so they must always be VNH-tagged: give them a
            # synthetic context even when no outbound policy names them.
            toward.setdefault(participant.name, []).append(
                ("@origin", participant.name))
    kept = kept if kept is not None else Grouping()
    if dirty is None:  # whatever is grouped or a context's target announces
        dirty = set().union(kept.signatures, *map(route_server.announced_set, toward))
    # Equal signatures are one object: the kept ones, then those made here.
    shared = {signature: signature for signature in kept.groups}
    by_classes: Dict[tuple, Optional[Hashable]] = {}

    def signature_of(ranked: Tuple[RouteEntry, ...]) -> Optional[Hashable]:
        classes = tuple(entry.export_class for entry in ranked)
        if classes in by_classes:
            return by_classes[classes]
        contexts = frozenset(
            context for entry in ranked
            for context in toward.get(entry.learned_from, ())
            if context[0] == "@origin"
            or route_server.route_exported(entry, context[0]))
        signature = None  # untouched by policy: keeps its real next hop
        if contexts:
            # Export-control communities — and member ASNs appearing in a
            # route's path (loop prevention withholds such routes from that
            # member) — make otherwise-identical rankings behave
            # differently per receiver, so they join the signature.
            signature = (contexts, (
                tuple(announcer for announcer, _control, _members in classes),
                tuple(export_class[1:] for export_class in classes)))
            signature = shared.setdefault(signature, signature)
        by_classes[classes] = signature
        return signature

    # signature -> (the prefixes that left it, those that joined it)
    moved: Dict[Hashable, Tuple[set, set]] = defaultdict(lambda: (set(), set()))
    for prefix in dirty:
        old = kept.signatures.exact(prefix)
        new = signature_of(route_server.ranked_routes(prefix))
        if old == new:
            continue
        if old is not None:
            moved[old][0].add(prefix)
            kept.signatures.remove(prefix)
        if new is not None:
            moved[new][1].add(prefix)
            kept.signatures.insert(prefix, new)
    for signature, (left, joined) in moved.items():
        group = kept.groups.pop(signature, None)
        prefixes = (group.prefixes - left if group else frozenset()) | joined
        if prefixes:
            kept.groups[signature] = PrefixGroup(
                -1, prefixes, signature[0], signature[1][0], signature)
    ordered = sorted(kept.groups.values(), key=lambda g: g.representative)
    for group_id, group in enumerate(ordered):
        if group.group_id != group_id:
            ordered[group_id] = kept.groups[group.signature] = PrefixGroup(
                group_id, group.prefixes, group.contexts,
                group.ranked_announcers, group.signature, group.representative)
    return ordered


def groups_for_context(groups: Iterable[PrefixGroup],
                       context: ContextId) -> List[PrefixGroup]:
    """The groups eligible under one outbound-policy context."""
    return [group for group in groups if context in group.contexts]
