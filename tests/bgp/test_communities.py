"""Tests for per-announcement export control via BGP communities."""

from repro.bgp.asn import AsPath
from repro.bgp.attributes import RouteAttributes
from repro.bgp.routeserver import RouteServer
from repro.net.addresses import IPv4Address, IPv4Prefix

P1 = IPv4Prefix("11.0.0.0/8")
P2 = IPv4Prefix("12.0.0.0/8")


def attrs(path, communities=()):
    return RouteAttributes(next_hop=IPv4Address("172.0.0.2"),
                           as_path=AsPath(path),
                           communities=frozenset(communities))


def make_server():
    server = RouteServer(asn=64_496)
    server.add_peer("A", 65001)
    server.add_peer("B", 65002)
    server.add_peer("C", 65003)
    return server


class TestBlockingCommunities:
    def test_block_one_peer(self):
        server = make_server()
        server.announce("B", P1, attrs([65002], communities={(0, 65001)}))
        assert server.best_route_for("A", P1) is None
        assert server.best_route_for("C", P1) is not None

    def test_block_everyone(self):
        server = make_server()
        server.announce("B", P1, attrs([65002], communities={(0, 0)}))
        assert server.best_route_for("A", P1) is None
        assert server.best_route_for("C", P1) is None

    def test_allow_list_mode(self):
        server = make_server()
        server.announce("B", P1, attrs([65002],
                                       communities={(64_496, 65003)}))
        assert server.best_route_for("A", P1) is None
        assert server.best_route_for("C", P1) is not None

    def test_unrelated_communities_ignored(self):
        server = make_server()
        server.announce("B", P1, attrs([65002], communities={(65002, 99)}))
        assert server.best_route_for("A", P1) is not None

    def test_per_prefix_granularity(self):
        """Figure 1b at announcement granularity: B hides only p1 from A."""
        server = make_server()
        server.announce("B", P1, attrs([65002], communities={(0, 65001)}))
        server.announce("B", P2, attrs([65002]))
        assert server.reachable_prefixes("A", via="B") == (P2,)
        assert server.reachable_prefixes("C", via="B") == (P1, P2)
        assert server.is_reachable("C", P1, via="B")
        assert not server.is_reachable("A", P1, via="B")

    def test_blocked_peer_is_an_exception_of_the_decision(self):
        server = make_server()
        server.announce("B", P1, attrs([65002]))
        assert set(server.decide(P1).exceptions) == {"B"}
        server.announce("B", P1, attrs([65002], communities={(0, 65001)}))
        assert server.decide(P1).exceptions == {"A": None, "B": None}

    def test_export_control_communities_helper(self):
        server = make_server()
        mixed = attrs([65002], communities={(0, 65001), (65002, 7)})
        assert server.export_control_communities(mixed) == {(0, 65001)}

    def test_session_policy_still_wins(self):
        server = make_server()
        server.set_export_policy("B", deny={"C"})
        server.announce("B", P1, attrs([65002]))
        assert server.best_route_for("C", P1) is None


class TestLoopPrevention:
    def test_route_with_receiver_asn_not_exported(self):
        """RFC 4271 loop prevention: a path containing the receiver's AS
        is withheld from that receiver (and only that receiver)."""
        server = make_server()
        server.announce("B", P1, attrs([65002, 65001, 900]))
        assert server.best_route_for("A", P1) is None       # 65001 = A
        assert server.best_route_for("C", P1) is not None
        assert not server.is_reachable("A", P1, via="B")
        assert server.reachable_prefixes("A", via="B") == ()
        assert server.reachable_prefixes("C", via="B") == (P1,)

    def test_loop_free_path_exported(self):
        server = make_server()
        server.announce("B", P1, attrs([65002, 900]))
        assert server.best_route_for("A", P1) is not None

    def test_transit_cover_route_never_returned_to_owner(self):
        """A transit re-announcing X's prefix (path ending at X) must not
        offer that route back to X."""
        server = make_server()
        server.announce("B", P1, attrs([65002, 64700, 65001]))  # via A
        assert server.best_route_for("A", P1) is None
        assert server.best_route_for("C", P1) is not None


class TestCommunitiesThroughSdx:
    def make_sdx(self):
        from repro.core.controller import SdxController
        sdx = SdxController()
        sdx.add_participant("A", 65001)
        sdx.add_participant("B", 65002)
        sdx.add_participant("C", 65003)
        return sdx

    def packet(self, dstip, dstport=80):
        from repro.net.packet import Packet
        return Packet(dstip=dstip, dstport=dstport, srcip="10.0.0.1",
                      protocol=6)

    def test_default_forwarding_respects_communities(self):
        """A route hidden from A must not become A's default next hop,
        while C keeps using it — per-participant default exceptions."""
        from repro.policy.policies import fwd, match
        sdx = self.make_sdx()
        sdx.announce_route("B", P1, AsPath([65002, 100]),
                           communities={(0, 65001)})
        sdx.announce_route("C", P1, AsPath([65003, 200, 300, 100]))
        # A policy so p1 is grouped (tagged) rather than MAC-learned.
        sdx.participant("A").participant.add_outbound(
            match(dstport=9999) >> fwd("C"))
        sdx.start()
        # A cannot use B (community-blocked): default falls to C.
        assert sdx.egress_of("A", self.packet("11.0.0.1", dstport=22)) == "C"
        # C still defaults to B (shorter path, exported to C).
        assert sdx.egress_of("C", self.packet("11.0.0.1", dstport=22)) == "B"

    def test_policy_eligibility_respects_communities(self):
        from repro.policy.policies import fwd, match
        sdx = self.make_sdx()
        sdx.announce_route("B", P1, AsPath([65002, 100]),
                           communities={(0, 65001)})
        sdx.announce_route("C", P1, AsPath([65003, 200, 100]))
        sdx.participant("A").participant.add_outbound(
            match(dstport=80) >> fwd("B"))
        sdx.start()
        # B's route exists but is hidden from A: the policy is ineligible.
        assert sdx.egress_of("A", self.packet("11.0.0.1", dstport=80)) == "C"

    def test_groups_split_by_export_communities(self):
        """Two prefixes with identical rankings but different export
        communities must land in different FECs."""
        from repro.policy.policies import fwd, match
        sdx = self.make_sdx()
        sdx.announce_route("B", P1, AsPath([65002, 100]),
                           communities={(0, 65001)})
        sdx.announce_route("B", P2, AsPath([65002, 100]))
        sdx.participant("C").participant.add_outbound(
            match(dstport=80) >> fwd("B"))
        result = sdx.start()
        groups = {g.group_id for g in result.groups
                  for p in g.prefixes if p in (P1, P2)}
        by_prefix = {}
        for group in result.groups:
            for prefix in group.prefixes:
                by_prefix[prefix] = group.group_id
        assert by_prefix[P1] != by_prefix[P2]
