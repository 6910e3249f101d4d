"""The per-(receiver, prefix) decision process, kept as the tests' oracle.

This is the algorithm the route server ran before it decided once per
prefix: build the receiver's own candidate list, take the minimum. It
reads the Adj-RIB-Ins peer by peer and shares only the export predicate
and ``preference_key`` with the implementation under test — not the
Loc-RIB, the ranking, the partition or the diff.
"""

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bgp.decision import preference_key
from repro.bgp.messages import Update
from repro.bgp.rib import RouteEntry
from repro.bgp.routeserver import BestRouteChange, RouteServer
from repro.net.addresses import IPv4Prefix

BestTable = Dict[Tuple[str, IPv4Prefix], Optional[RouteEntry]]


def best_route(candidates: Iterable[RouteEntry]) -> Optional[RouteEntry]:
    """The single best route among ``candidates`` (``None`` if empty)."""
    best: Optional[RouteEntry] = None
    best_key: Optional[Tuple] = None
    for entry in candidates:
        key = preference_key(entry)
        if best_key is None or key < best_key:
            best, best_key = entry, key
    return best


def announced_routes(server: RouteServer,
                     prefix: IPv4Prefix) -> List[RouteEntry]:
    """Every route for ``prefix``, off each peer's own Adj-RIB-In."""
    return [entry for peer in server.peers()
            for entry in server.routes_from(peer) if entry.prefix == prefix]


def reference_best(server: RouteServer, receiver: str,
                   prefix: IPv4Prefix) -> Optional[RouteEntry]:
    """``best_route`` of the routes ``receiver`` may be given for
    ``prefix``, the old way."""
    return best_route(entry for entry in announced_routes(server, prefix)
                      if server.route_exported(entry, receiver))


def reference_table(server: RouteServer, receivers: Sequence[str],
                    prefixes: Sequence[IPv4Prefix]) -> BestTable:
    """Every receiver's best route for every prefix."""
    return {(receiver, prefix): reference_best(server, receiver, prefix)
            for receiver in receivers for prefix in prefixes}


def reference_sends(server: RouteServer, changes: Iterable[BestRouteChange],
                    rewrite=None) -> Dict[str, List[Update]]:
    """Per peer, the UPDATEs one send per change puts on its session — the
    per-peer sender re-advertisement was: each change in order, on an
    established session only, its next hop rewritten by ``rewrite``."""
    sends: Dict[str, List[Update]] = {}
    for change in changes:
        if not server.session(change.participant).is_established:
            continue
        if change.new is None:
            update = Update.withdraw("route-server", change.prefix)
        else:
            attributes = change.new.attributes
            update = Update.announce(
                "route-server", change.prefix, attributes.with_next_hop(
                    attributes.next_hop if rewrite is None
                    else rewrite(change.prefix, change.new)))
        sends.setdefault(change.participant, []).append(update)
    return sends


def reference_changes(before: BestTable, after: BestTable,
                      receivers: Sequence[str],
                      update: Update) -> List[BestRouteChange]:
    """The before/after diff over (receiver, prefix), in the order the
    old ``_apply_and_diff`` reported it: peering order, then the touched
    set's own iteration order."""
    touched = set(update.prefixes)
    return [BestRouteChange(receiver, prefix, before[receiver, prefix],
                            after[receiver, prefix])
            for receiver in receivers for prefix in touched
            if before[receiver, prefix] != after[receiver, prefix]]
