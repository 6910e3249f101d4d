"""Header-space regions of policy clauses, and the BGP-refined variant.

The analyzer reasons about a clause through its *positive region set*:
the identity-rule matches of the compiled predicate. For the conjunctive
clause fragment (matches, prefix/value sets, and/or) the union of those
spaces is the exact match set; negation makes it an over-approximation
(``exact=False``), and dynamic RIB predicates have no static region at
all (``dynamic=True``).

For outbound ``fwd(peer)`` clauses, the region that actually reaches the
fabric is further refined by the BGP-consistency filter of Section 4.1:
the clause only forwards destinations inside prefixes the peer announced
*and* exports to the sender. :func:`effective_regions` computes that
refinement — one region per (clause region, eligible prefix) pair,
exactly mirroring how both the production compiler and the reference
interpreter expand clauses, which is what makes dead-clause verdicts
checkable against the reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bgp.routeserver import RouteServer
from repro.core.clauses import Clause
from repro.net.addresses import IPv4Prefix
from repro.net.packet import Packet
from repro.policy.headerspace import HeaderSpace
from repro.policy.policies import Negation, Policy, Predicate


def contains_negation(predicate: Predicate) -> bool:
    """True if any node of the predicate tree is a negation."""
    stack: List[Policy] = [predicate]
    while stack:
        node = stack.pop()
        if isinstance(node, Negation):
            return True
        stack.extend(node.children())
    return False


def positive_regions(predicate: Predicate) -> Tuple[HeaderSpace, ...]:
    """The identity-rule matches of the compiled predicate.

    Exact for negation-free predicates; an over-approximation of the
    match set otherwise (the negative masks are ignored).
    """
    classifier = predicate.compile()
    return tuple(rule.match for rule in classifier.rules if rule.is_identity)


@dataclass(frozen=True)
class ClauseRegions:
    """The static match-region summary of one clause."""

    clause: Clause
    regions: Tuple[HeaderSpace, ...]
    exact: bool
    dynamic: bool


def clause_regions(clause: Clause) -> ClauseRegions:
    """Region summary for one clause (empty region set when dynamic)."""
    if clause.dynamic:
        return ClauseRegions(clause=clause, regions=(), exact=False, dynamic=True)
    return ClauseRegions(
        clause=clause,
        regions=positive_regions(clause.predicate),
        exact=not contains_negation(clause.predicate),
        dynamic=False)


def effective_regions(info: ClauseRegions, sender: str,
                      route_server: RouteServer) -> Tuple[HeaderSpace, ...]:
    """The regions of a clause that survive the BGP join, for ``sender``.

    Drop clauses apply unconditionally, so their raw regions pass
    through. Forwarding clauses are refined per eligible prefix of the
    target — the same (clause, eligible prefix) expansion the reference
    interpreter installs — so an empty result means the BGP join erases
    the clause entirely (a route-less forward, or one whose target
    :func:`reachable` says reaches nothing).
    """
    clause = info.clause
    if info.dynamic:
        return ()
    if clause.drops:
        return info.regions
    refined: List[HeaderSpace] = []
    for prefix in reachable(route_server, sender, clause.target):
        for region in info.regions:
            narrowed = region.with_constraint("dstip", prefix)
            if narrowed is not None:
                refined.append(narrowed)
    return tuple(refined)


def reachable(route_server: RouteServer, sender: str,
              target: object) -> Tuple[IPv4Prefix, ...]:
    """The prefixes ``sender`` may forward to ``target``: the BGP join.

    A target that is not a route-server peer — a member that left the
    route server, or a raw port, which outbound policies cannot name —
    reaches nothing, exactly as the compiler treats it.
    """
    if not isinstance(target, str) or not route_server.is_peer(target):
        return ()
    return route_server.reachable_prefixes(sender, via=target)


def first_intersection(left: Sequence[HeaderSpace],
                       right: Sequence[HeaderSpace]) -> Optional[HeaderSpace]:
    """The first non-empty pairwise intersection of two region sets."""
    for space_l in left:
        for space_r in right:
            merged = space_l.intersect(space_r)
            if merged is not None:
                return merged
    return None


def covering_region(space: HeaderSpace,
                    candidates: Sequence[HeaderSpace]) -> Optional[HeaderSpace]:
    """A candidate that single-handedly covers ``space``, if any.

    Single-cover is deliberately conservative: a region covered only by
    the *union* of several candidates is not reported. That keeps dead
    verdicts sound (no false positives) at the price of missing some
    unions — the fuzz cross-check relies on this direction.
    """
    for candidate in candidates:
        if candidate.covers(space):
            return candidate
    return None


#: Defaults used to concretise witness packets from regions; constrained
#: fields always override these.
WITNESS_DEFAULTS = {"port": 0}


def witness_packet(space: HeaderSpace) -> Packet:
    """A representative packet inside ``space`` for diagnostics."""
    return space.concretise(**WITNESS_DEFAULTS)


def probe_packets(regions: Sequence[HeaderSpace],
                  prefixes: Sequence[IPv4Prefix]) -> List[Packet]:
    """Witness packets of ``regions`` that reach the fabric.

    A region without a destination constraint (a port-only match, say)
    concretises to a packet no border router emits — no announced prefix
    covers it — so such a region is refined with each of ``prefixes``
    first, one probe per prefix it meets.
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
