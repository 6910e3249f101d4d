"""Failure injection: the SDX under churn, staleness, and misbehaviour.

Covers the failure modes DESIGN.md calls out: session resets mid-flow,
ARP staleness, unknown VNH queries, policies naming missing participants,
and churn racing the background re-optimisation.
"""

import pytest

from repro.bgp.asn import AsPath
from repro.exceptions import PolicyError
from repro.net.addresses import IPv4Address
from repro.policy.policies import fwd, match

from tests.core.scenarios import P1, P3, P5, figure1_controller, packet


class TestSessionChurn:
    def test_reset_mid_flow_blackholes_then_recovers(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        assert sdx.egress_of("A", packet("15.0.0.1")) == "E"
        sdx.route_server.reset_session("E")
        # The withdrawal reaches A's router immediately: traffic stops.
        assert sdx.egress_of("A", packet("15.0.0.1")) is None
        sdx.announce_route("E", P5, AsPath([65005, 600]))
        assert sdx.egress_of("A", packet("15.0.0.1")) == "E"

    def test_flapping_route_remains_consistent(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        for _ in range(5):
            sdx.withdraw_route("B", P1)
            assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "C"
            sdx.announce_route("B", P1, AsPath([65002, 300, 100]))
            assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "B"

    def test_background_recompilation_between_flaps(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        for _ in range(3):
            sdx.withdraw_route("B", P1)
            sdx.run_background_recompilation()
            sdx.announce_route("B", P1, AsPath([65002, 300, 100]))
            sdx.run_background_recompilation()
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "B"
        assert sdx.engine.fast_path_rules_live == 0

    def test_remove_peer_cleans_forwarding(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        sdx.route_server.remove_peer("E")
        sdx.run_background_recompilation()
        assert sdx.egress_of("A", packet("15.0.0.1")) is None


class TestArpAndVnhStaleness:
    def test_unknown_vnh_query_unanswered(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        ghost = IPv4Address("172.16.200.200")
        assert sdx.allocator.responder.owns(ghost)
        assert sdx.fabric.arp.resolve(ghost) is None

    def test_stale_arp_cache_recovers_after_refresh(self):
        """A router with a flushed ARP cache re-resolves the VNHs it
        already knows from the RIB — the shared table's too, so a route
        written there before its VNH resolved is mended."""
        sdx, *_ = figure1_controller()
        sdx.start()
        router = sdx.fabric.router("A")
        assert P1 not in router.overlay
        vnh = sdx.shared_routes.rib.exact(P1)
        sdx.shared_routes.install(P1, vnh, None)
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) is None
        router.flush_arp()
        router.refresh_fib()
        assert sdx.shared_routes.fib.exact(P1).next_hop == vnh
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "B"

    def test_released_vnh_is_unresolvable(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        sdx.withdraw_route("C", P1)          # fast path assigns new VNH
        ephemeral_vnh = sdx.allocator.next_hop_for_prefix(P1)
        sdx.run_background_recompilation()   # reclaims the ephemeral
        new_vnh = sdx.allocator.next_hop_for_prefix(P1)
        assert new_vnh is not None
        assert new_vnh != ephemeral_vnh
        # The reclaimed ephemeral no longer resolves; the steady-state
        # binding does. (The prefix's *pre-update* group VNH may still
        # resolve — stable assignment keeps it for the prefixes that
        # stayed behind in that group.)
        live = set(sdx.allocator.responder.bindings())
        assert new_vnh in live
        assert ephemeral_vnh not in live


class TestBadPolicies:
    def test_policy_to_unknown_participant_rejected(self):
        sdx, a, *_ = figure1_controller()
        sdx.start()
        with pytest.raises(PolicyError):
            a.add_outbound(match(dstport=80) >> fwd("Nonexistent"))
        # The rejection left no partial state behind.
        assert len(a.participant.outbound_policies) == 1

    def test_inbound_policy_to_unknown_participant_rejected(self):
        sdx, *_ = figure1_controller()
        remote = sdx.add_participant("R", 65099, ports=0)
        with pytest.raises(PolicyError):
            remote.add_inbound(match(dstport=80) >> fwd("Nonexistent"))

    def test_policy_toward_peer_that_never_announces(self):
        """Forwarding to a silent participant is legal but matches no
        traffic: the eligibility guard is empty."""
        sdx, a, *_ = figure1_controller()
        silent = sdx.add_participant("Silent", 65050)
        sdx.start()
        a.add_outbound(match(dstport=8080) >> fwd("Silent"))
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=8080)) == "C"

    def test_failed_install_keeps_table_consistent(self):
        sdx, a, *_ = figure1_controller()
        sdx.start()
        rules_before = len(sdx.table)
        with pytest.raises(PolicyError):
            a.add_outbound(match(dstport=80))  # no fwd()
        assert len(sdx.table) == rules_before
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "B"


class TestTrafficDuringChurn:
    def test_forwarding_consistent_at_every_step_of_a_burst(self):
        """After every single update the data plane agrees with the
        control plane's current best routes — the paper's core
        correctness claim for the incremental path."""
        sdx, *_ = figure1_controller()
        sdx.start()
        moves = [
            ("withdraw", "C", P1),
            ("withdraw", "B", P3),
            ("announce", "C", P1),
            ("announce", "B", P3),
            ("withdraw", "C", P1),
        ]
        for action, who, prefix in moves:
            if action == "withdraw":
                sdx.withdraw_route(who, prefix)
            else:
                sdx.announce_route(who, prefix, AsPath([65000 + 2, 1, 100]))
            probe = packet(str(prefix.first_address + 1), dstport=22)
            expected = sdx.route_server.best_route_for("A", prefix)
            observed = sdx.egress_of("A", probe)
            if expected is None:
                assert observed is None
            else:
                assert observed == expected.learned_from
