"""Tests for the two-stage incremental update path."""

from repro.bgp.asn import AsPath
from repro.core.incremental import FAST_PATH_BASE
from repro.net.addresses import IPv4Prefix

from tests.core.scenarios import P1, P3, P4, figure1_controller, packet


class TestFastPath:
    def test_update_installs_shadow_rules(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        base_rules = len(sdx.table)
        sdx.withdraw_route("C", P1)
        assert len(sdx.table) > base_rules
        assert any(rule.priority > FAST_PATH_BASE for rule in sdx.table.rules)
        assert sdx.engine.dirty
        assert sdx.fast_path_log
        assert sdx.fast_path_log[-1].prefixes == (P1,)
        assert sdx.fast_path_log[-1].seconds > 0

    def test_withdrawal_shifts_default_immediately(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=22)) == "C"
        sdx.withdraw_route("C", P1)
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=22)) == "B"

    def test_withdrawal_disables_policy_eligibility(self):
        """Figure 5a's route-withdrawal event: when the policy's next hop
        loses the route, policy traffic follows the remaining path."""
        sdx, *_ = figure1_controller()
        sdx.start()
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "B"
        sdx.withdraw_route("B", P1)
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "C"

    def test_reannouncement_restores_policy(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        sdx.withdraw_route("B", P1)
        sdx.announce_route("B", P1, AsPath([65002, 300, 100]))
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "B"

    def test_full_withdrawal_blackholes(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        sdx.withdraw_route("C", P4)
        assert sdx.egress_of("A", packet("14.0.0.1", dstport=443)) is None
        assert sdx.egress_of("A", packet("14.0.0.1", dstport=22)) is None

    def test_new_prefix_announcement(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        fresh = IPv4Prefix("16.0.0.0/8")
        sdx.announce_route("B", fresh, AsPath([65002, 700]))
        assert sdx.egress_of("A", packet("16.0.0.1", dstport=22)) == "B"
        # Policy eligibility applies to the new prefix too.
        assert sdx.egress_of("A", packet("16.0.0.1", dstport=80)) == "B"

    def test_fast_path_rules_constrained_to_new_vmac(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        sdx.withdraw_route("C", P1)
        vmac = sdx.allocator.vmac_for_prefix(P1)
        fast_rules = [r for r in sdx.table.rules if r.priority > FAST_PATH_BASE]
        assert fast_rules
        for rule in fast_rules:
            assert rule.match.get("dstmac") == vmac

    def test_redundant_update_still_fast_pathed(self):
        """Prefix-level granularity: even a no-best-change announcement
        refreshes eligibility rules."""
        sdx, *_ = figure1_controller()
        sdx.start()
        invocations = sdx.engine.fast_path_invocations
        sdx.announce_route("C", P3, AsPath([65003, 400, 300]))
        assert sdx.engine.fast_path_invocations == invocations + 1


class TestBackgroundRecompilation:
    def test_reclaims_fast_path_rules(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        sdx.withdraw_route("C", P1)
        assert sdx.engine.fast_path_rules_live > 0
        result = sdx.run_background_recompilation()
        assert result is not None
        assert sdx.engine.fast_path_rules_live == 0
        assert all(rule.priority < FAST_PATH_BASE for rule in sdx.table.rules)
        assert not sdx.engine.dirty

    def test_noop_when_clean(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        assert sdx.run_background_recompilation() is None

    def test_forwarding_stable_across_recompilation(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        sdx.withdraw_route("B", P1)
        before = {
            (dstip, dstport): sdx.egress_of("A", packet(dstip, dstport=dstport))
            for dstip in ("11.0.0.1", "12.0.0.1", "13.0.0.1", "14.0.0.1", "15.0.0.1")
            for dstport in (80, 443, 22)
        }
        sdx.run_background_recompilation()
        after = {
            key: sdx.egress_of("A", packet(key[0], dstport=key[1]))
            for key in before
        }
        assert before == after

    def test_ephemeral_vnhs_released(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        sdx.withdraw_route("C", P1)
        assert sdx.allocator.ephemeral_prefixes()
        sdx.run_background_recompilation()
        assert sdx.allocator.ephemeral_prefixes() == ()


class TestBurstBehaviour:
    def test_burst_size_scales_rules(self):
        """Figure 9's mechanism: each updated prefix adds its own rules."""
        sdx, *_ = figure1_controller()
        sdx.start()
        sdx.withdraw_route("C", P1)
        single = sdx.engine.fast_path_rules_live
        sdx.run_background_recompilation()
        sdx.withdraw_route("C", P1)
        sdx.withdraw_route("B", P3)
        double = sdx.engine.fast_path_rules_live
        assert double > single


class TestFastPathInstallsNoDeadRules:
    def test_no_shadowed_rule_after_a_trace(self):
        """The fast path never ran a reduction pass, and composition
        followed every rule with same-match drops: more than half of the
        installed shadow rules could never fire (SDX010)."""
        from repro.statics.dataplane import analyze_controller_dataplane
        from repro.workloads.policies import generate_policies, install_assignments
        from repro.workloads.topology import generate_ixp
        from repro.workloads.updates import generate_trace
        ixp = generate_ixp(12, 120, seed=0)
        sdx = ixp.build_controller()
        install_assignments(sdx, generate_policies(ixp, seed=1))
        sdx.start()
        for event in generate_trace(ixp, seed=2, max_updates=40):
            sdx.submit_update(event.update)
        assert sdx.engine.fast_path_rules_live > 0
        report = analyze_controller_dataplane(sdx)
        assert [d for d in report.sorted() if d.check_id == "SDX010"] == []
