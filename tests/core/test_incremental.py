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


def churned_exchange(updates=40, pin_last=False):
    """A generated 12 x 120 exchange with the Section 6.1 policy mix after
    ``updates`` trace updates, and the prefix each fast-path VMAC tags.
    ``pin_last`` adds one clause pinned to the prefix announced last."""
    from repro.policy.policies import fwd, match
    from repro.workloads.policies import generate_policies, install_assignments
    from repro.workloads.topology import generate_ixp
    from repro.workloads.updates import generate_trace
    ixp = generate_ixp(12, 120, seed=0)
    sdx = ixp.build_controller()
    install_assignments(sdx, generate_policies(ixp, seed=1))
    events = generate_trace(ixp, seed=2, max_updates=updates)
    if pin_last:
        last = events[-1].update
        holder = next(handle for handle in sdx.participants()
                      if handle.name != last.sender)
        holder.add_outbound(
            match(dstip=last.announcements[0].prefix) >> fwd(last.sender))
    sdx.start()
    tagged = {}
    for event in events:
        sdx.submit_update(event.update)
        for prefix in event.update.prefixes:
            tagged[sdx.allocator.vmac_for_prefix(prefix)] = prefix
    assert sdx.engine.fast_path_rules_live > 0
    return sdx, tagged


class TestFastPathInstallsNoDeadRules:
    def test_no_shadowed_rule_after_a_trace(self):
        """The fast path never ran a reduction pass, and composition
        followed every rule with same-match drops: more than half of the
        installed shadow rules could never fire (SDX010)."""
        from repro.statics.dataplane import analyze_controller_dataplane
        sdx, _tagged = churned_exchange()
        report = analyze_controller_dataplane(sdx)
        assert [d for d in report.sorted() if d.check_id == "SDX010"] == []

    def test_no_rule_pinned_to_another_prefix(self):
        """A clause pinned to ``dstip=q`` cannot fire under the VMAC of a
        prefix disjoint from ``q`` — the full compiler never emitted such a
        rule; the fast path's own clause loop did."""
        sdx, tagged = churned_exchange(pin_last=True)
        pinned = [rule for rule in sdx.table.rules
                  if rule.priority > FAST_PATH_BASE
                  and rule.match.get("dstip") is not None]
        assert pinned
        for rule in pinned:
            prefix = tagged[rule.match.get("dstmac")]
            assert rule.match.get("dstip").overlaps(prefix), (rule, prefix)


class TestFastPathAsksOnlyPolicyHolders:
    def test_an_update_reads_no_clause_of_a_member_without_policy(
            self, monkeypatch):
        """The policy holders are kept on the topology: the fast path runs
        each holder's clauses, never the membership's."""
        from repro.core.participant import Participant
        sdx, _tagged = churned_exchange(updates=5)
        holders = {p.name for p in sdx.topology.policy_holders()}
        assert holders and len(holders) < len(sdx.topology)
        read = []
        clauses = Participant.outbound_clauses

        def counted(participant):
            read.append(participant.name)
            return clauses(participant)

        monkeypatch.setattr(Participant, "outbound_clauses", counted)
        prefix = sdx.route_server.all_prefixes()[0]
        announcer = next(p for p in sdx.topology.participants()
                         if not p.is_remote and p.name not in holders)
        invocations = sdx.engine.fast_path_invocations
        sdx.announce_route(announcer.name, prefix,
                           AsPath([announcer.asn, 7, 8]))
        assert sdx.engine.fast_path_invocations == invocations + 1
        assert read and set(read) <= holders

    def test_the_kept_holders_follow_edits_suspension_and_undo(self):
        from repro.policy.policies import fwd, match
        sdx, *_ = figure1_controller()
        sdx.start()
        topology = sdx.topology

        def holders():
            return [p.name for p in topology.policy_holders()]

        def fresh():
            return [p.name for p in topology.participants()
                    if not p.is_remote and p.outbound_clauses()]

        assert holders() == fresh() and "B" not in holders()
        policy = match(dstport=8080) >> fwd("C")
        sdx.participant("B").add_outbound(policy)
        assert "B" in holders() and holders() == fresh()
        sdx.suspend_policies()
        assert holders() == fresh() == []
        sdx.restore_policies()
        sdx.participant("B").remove_outbound(policy)
        assert holders() == fresh() and "B" not in holders()
        b = topology.participant("B")
        state = b.policy_state()
        b.add_outbound(policy)
        assert "B" in holders()
        b.restore_policy_state(state)
        assert holders() == fresh() and "B" not in holders()


class TestFastPathLeavesTheMemoAlone:
    def test_reuse_entries_survive_an_update(self):
        """The fast path runs the compiler's builders outside a
        compilation; going through the memo there would overwrite the
        installed result's entries with singleton blocks."""
        sdx, *_ = figure1_controller()
        sdx.start()
        before = dict(sdx.last_compilation.reuse)
        assert ("outbound", "A") in before
        sdx.withdraw_route("C", P1)
        sdx.announce_route("B", P4, AsPath([65002, 500]))
        after = sdx.last_compilation.reuse
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)


class TestFastPathLogIsBounded:
    def test_log_keeps_a_window_not_a_history(self):
        from repro.core.controller import FAST_PATH_LOG_SIZE
        sdx, *_ = figure1_controller(with_dataplane=False)
        sdx.start()
        paths = (AsPath([65003, 100]), AsPath([65003, 101]))
        for index in range(5000):
            sdx.announce_route("C", P1, paths[index % 2])
        assert sdx.engine.fast_path_invocations == 5000
        assert len(sdx.fast_path_log) == FAST_PATH_LOG_SIZE < 5000
        assert sdx.fast_path_log[-1].prefixes == (P1,)
