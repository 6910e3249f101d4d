"""The BGP decision process: pick one best route per prefix.

Implements the standard route-server subset of RFC 4271 tie-breaking:

1. highest LOCAL_PREF;
2. shortest AS path;
3. lowest ORIGIN (IGP < EGP < INCOMPLETE);
4. lowest MED — compared across *all* candidates rather than only between
   routes from the same neighbouring AS ("always-compare-med", the common
   route-server configuration; documented deviation from strict RFC 4271);
5. lowest NEXT_HOP address, then lowest peer name — deterministic stand-ins
   for the router-ID tie-breakers.

The function is a pure total order, so repeated runs over the same
candidate set always pick the same route — a property the SDX relies on
when recompiling policies incrementally, and one the tests assert.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.bgp.rib import RouteEntry


def preference_key(entry: RouteEntry) -> Tuple:
    """Sort key such that the minimum is the best route."""
    attributes = entry.attributes
    return (
        -attributes.local_pref,
        attributes.as_path.length,
        int(attributes.origin),
        attributes.med,
        int(attributes.next_hop),
        entry.learned_from,
    )


def rank_routes(candidates: Iterable[RouteEntry]) -> List[RouteEntry]:
    """All candidates ordered best-first — the route server's one ranking."""
    ranked = list(candidates)
    if len(ranked) > 1:  # most prefixes have a single announcer
        ranked.sort(key=preference_key)
    return ranked
