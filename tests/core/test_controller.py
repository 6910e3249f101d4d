"""Tests for the top-level controller: lifecycle, ownership, policy churn."""

import pytest

from repro.bgp.asn import AsPath
from repro.exceptions import OwnershipError, ParticipantError
from repro.net.addresses import IPv4Prefix
from repro.policy.policies import drop, fwd, match

from tests.core.scenarios import P1, figure1_controller, packet


class TestConstruction:
    def test_build_convenience(self):
        from repro.core.controller import SdxController
        sdx = SdxController.build({"A": 65001, "B": 65002})
        assert [h.name for h in sdx.participants()] == ["A", "B"]
        assert sdx.participant("A").asn == 65001

    def test_unknown_participant(self):
        from repro.core.controller import SdxController
        with pytest.raises(ParticipantError):
            SdxController().participant("Z")

    def test_switch_ports_assigned_sequentially(self):
        sdx, a, b, c, e = figure1_controller()
        assert a.port(0) == 1
        assert b.participant.switch_ports == (2, 3)
        assert c.port(0) == 4

    def test_local_prefixes_registered_and_announced(self):
        from repro.core.controller import SdxController
        sdx = SdxController()
        home = IPv4Prefix("20.0.0.0/8")
        sdx.add_participant("A", 65001, local_prefixes=[home])
        sdx.add_participant("B", 65002)
        assert sdx.route_server.best_route_for("B", home).learned_from == "A"
        assert sdx.ownership.owner_of(home) == "A"

    def test_no_dataplane_mode(self):
        sdx, *_ = figure1_controller(with_dataplane=False)
        result = sdx.start()
        assert result.flow_rule_count > 0
        with pytest.raises(ParticipantError):
            sdx.send("A", packet("11.0.0.1"))


class TestOwnership:
    def test_originate_requires_registration(self):
        sdx, a, *_ = figure1_controller()
        sdx.start()
        with pytest.raises(OwnershipError):
            a.announce(IPv4Prefix("74.125.1.0/24"))

    def test_originate_rejects_foreign_prefix(self):
        sdx, a, b, *_ = figure1_controller()
        sdx.register_ownership(IPv4Prefix("74.125.0.0/16"), "B")
        sdx.start()
        with pytest.raises(OwnershipError):
            a.announce(IPv4Prefix("74.125.1.0/24"))

    def test_originate_subnet_of_owned_space(self):
        sdx, a, *_ = figure1_controller()
        sdx.register_ownership(IPv4Prefix("74.125.0.0/16"), "A")
        sdx.start()
        a.announce(IPv4Prefix("74.125.1.0/24"))
        assert sdx.route_server.best_route_for(
            "B", IPv4Prefix("74.125.1.0/24")) is not None

    def test_withdraw_origination(self):
        sdx, a, *_ = figure1_controller()
        sdx.register_ownership(IPv4Prefix("74.125.0.0/16"), "A")
        sdx.start()
        a.announce(IPv4Prefix("74.125.1.0/24"))
        a.withdraw(IPv4Prefix("74.125.1.0/24"))
        assert sdx.route_server.best_route_for(
            "B", IPv4Prefix("74.125.1.0/24")) is None

    def test_conflicting_registration_rejected(self):
        sdx, *_ = figure1_controller()
        sdx.register_ownership(IPv4Prefix("74.125.0.0/16"), "A")
        with pytest.raises(OwnershipError):
            sdx.register_ownership(IPv4Prefix("74.125.0.0/16"), "B")


class TestLivePolicyChanges:
    def test_policy_installation_recompiles(self):
        sdx, a, b, c, e = figure1_controller(with_policies=False)
        sdx.start()
        assert sdx.egress_of("A", packet("13.0.0.1", dstport=80)) == "B"
        # p1's best is C; install app-specific peering: web via B.
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "C"
        a.add_outbound(match(dstport=80) >> fwd("B"))
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "B"

    def test_policy_removal_restores_default(self):
        sdx, a, *_ = figure1_controller(with_policies=False)
        sdx.start()
        policy = match(dstport=80) >> fwd("B")
        a.add_outbound(policy)
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "B"
        a.remove_outbound(policy)
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "C"

    def test_drop_policy_blocks_traffic(self):
        sdx, a, *_ = figure1_controller()
        sdx.start()
        a.add_outbound(match(srcip="10.0.0.0/24") >> drop)
        blocked = packet("11.0.0.1", dstport=22, srcip="10.0.0.5")
        assert sdx.egress_of("A", blocked) is None
        allowed = packet("11.0.0.1", dstport=22, srcip="99.0.0.5")
        assert sdx.egress_of("A", allowed) == "C"

    def test_negated_clause_falls_through_to_later_clause(self):
        """Traffic masked out of clause 1 by negation must be tried
        against clause 2, not jump straight to the BGP default."""
        sdx, a, *_ = figure1_controller(with_policies=False)
        sdx.start()
        a.add_outbound((match(dstport=80) & ~match(srcip="10.0.0.0/8"))
                       >> fwd("B"))
        a.add_outbound(match(dstport=80) >> fwd("C"))
        masked = packet("11.0.0.1", dstport=80, srcip="10.0.0.5")
        unmasked = packet("13.0.0.1", dstport=80, srcip="99.0.0.5")
        assert sdx.egress_of("A", masked) == "C"    # clause 2
        assert sdx.egress_of("A", unmasked) == "B"  # clause 1

    def test_clause_priority_is_installation_order(self):
        """Earlier clauses win on overlap: A's pre-existing web policy
        still applies to web traffic from the blocked source."""
        sdx, a, *_ = figure1_controller()
        sdx.start()
        a.add_outbound(match(srcip="10.0.0.0/24") >> drop)
        web = packet("11.0.0.1", dstport=80, srcip="10.0.0.5")
        assert sdx.egress_of("A", web) == "B"

    def test_clear_policies_live(self):
        sdx, a, b, *_ = figure1_controller()
        sdx.start()
        a.clear_policies()
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "C"

    def test_rib_view_and_filter(self):
        sdx, a, *_ = figure1_controller()
        sdx.start()
        view = a.rib
        assert len(view) == 5
        originated_by_100 = a.filter_rib("as_path", r".*100$")
        assert P1 in originated_by_100

    def test_handle_accessors(self):
        sdx, a, *_ = figure1_controller()
        assert a.name == "A"
        assert a.asn == 65001
        assert "A" in repr(a)


class TestSummary:
    def test_summary_counts(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        summary = sdx.summary()
        assert summary["participants"] == 4
        assert summary["remote_participants"] == 0
        assert summary["policies"] == 2
        assert summary["announced_prefixes"] == 5
        assert summary["flow_rules"] == len(sdx.table)
        assert summary["prefix_groups"] >= 2
        assert summary["fast_path_rules"] == 0

    def test_summary_tracks_churn(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        sdx.withdraw_route("C", P1)
        summary = sdx.summary()
        assert summary["fast_path_rules"] > 0
        assert summary["ephemeral_vnhs"] == 1
        sdx.run_background_recompilation()
        after = sdx.summary()
        assert after["fast_path_rules"] == 0
        assert after["ephemeral_vnhs"] == 0


class TestSessionResilience:
    def test_session_reset_flushes_and_recovers(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        changes = sdx.route_server.reset_session("E")
        assert changes
        sdx.run_background_recompilation()
        assert sdx.egress_of("A", packet("15.0.0.1")) is None
        sdx.announce_route("E", IPv4Prefix("15.0.0.0/8"), AsPath([65005, 600]))
        assert sdx.egress_of("A", packet("15.0.0.1")) == "E"
