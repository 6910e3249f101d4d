"""BGP substrate: messages, RIBs, decision process, and a route server.

The SDX integrates a BGP route server (Section 3.2): participants peer
with it exactly as they would with a conventional IXP route server, and
the SDX controller reads its state to (a) restrict participant policies to
BGP-advertised paths and (b) compute default forwarding. This subpackage
implements everything that requires — from wire-level update messages up
to the multi-participant route server with per-peer export control and
next-hop rewriting hooks.
"""

from repro.bgp.asn import AsPath, AsPathPattern
from repro.bgp.attributes import Origin, RouteAttributes
from repro.bgp.messages import Announcement, Update, Withdrawal
from repro.bgp.rib import AdjRibIn, PrefixTrie, RibView, RouteEntry
from repro.bgp.decision import rank_routes
from repro.bgp.session import BgpSession, SessionState
from repro.bgp.routeserver import (
    BestRouteChange, BestRouteChanges, Decision, RouteServer)

__all__ = [
    "AdjRibIn",
    "Announcement",
    "AsPath",
    "AsPathPattern",
    "BestRouteChange",
    "BestRouteChanges",
    "BgpSession",
    "Decision",
    "Origin",
    "PrefixTrie",
    "RibView",
    "RouteAttributes",
    "RouteEntry",
    "RouteServer",
    "SessionState",
    "Update",
    "Withdrawal",
    "rank_routes",
]
