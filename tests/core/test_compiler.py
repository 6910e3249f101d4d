"""Tests for the SDX compiler on the paper's Figure 1 scenario."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.policy.strategies import packets, predicates

from repro.core.compiler import compile_clause_rules, stack_pieces
from repro.exceptions import CompilationError
from repro.net.packet import Packet
from repro.policy.classifier import Action, Classifier, Rule
from repro.policy.headerspace import WILDCARD, HeaderSpace
from repro.policy.policies import drop, fwd, match

from tests.core.scenarios import P5, figure1_controller, packet


class TestCompileClauseRules:
    def test_positive_predicate(self):
        rules = compile_clause_rules(
            match(dstport=80), (Action(port=2),), None)
        assert len(rules) == 1
        assert rules[0].actions == (Action(port=2),)

    def test_unsatisfiable_predicate_gives_no_rules(self):
        pred = match(dstport=80) & match(dstport=443)
        assert compile_clause_rules(pred, (Action(port=2),), None) == []

    def test_trailing_drops_removed(self):
        rules = compile_clause_rules(match(dstport=80), (Action(port=2),), None)
        assert all(not rule.is_drop for rule in rules)

    def test_negation_mask_kept_without_fallback(self):
        pred = match(dstport=80) & ~match(srcport=22)
        rules = compile_clause_rules(pred, (Action(port=2),), None)
        # Mask for (dstport=80, srcport=22) must precede the action rule.
        assert rules[0].is_drop
        assert rules[-1].actions == (Action(port=2),)

    def test_negation_mask_expands_against_fallback(self):
        pred = match(dstport=80) & ~match(srcport=22)
        fallback = fwd(9).compile()
        rules = compile_clause_rules(pred, (Action(port=2),), fallback)
        classifier = Classifier(rules + [Rule(WILDCARD, ())])
        masked = Packet(port=1, dstport=80, srcport=22)
        assert classifier.eval(masked) == {masked.at_port(9)}
        plain = Packet(port=1, dstport=80, srcport=443)
        assert classifier.eval(plain) == {plain.at_port(2)}


class TestClauseStackSemantics:
    """Property: a stack of compiled clauses behaves exactly like
    "first clause whose predicate holds wins, otherwise fall through"."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(predicates(max_depth=3), min_size=1, max_size=4),
           packets())
    def test_stacked_clauses_first_match_property(self, preds, pkt):
        from repro.core.compiler import compile_guarded_clauses
        from repro.core.composition import stack_fallback
        fallback = fwd(99).compile()
        stacked = stack_fallback([
            compile_guarded_clauses(
                [(predicate, (Action(port=100 + index),))
                 for index, predicate in enumerate(preds)],
                fallback),
            fallback,
        ])
        expected_port = 99
        for index, predicate in enumerate(preds):
            if predicate.holds(pkt):
                expected_port = 100 + index
                break
        result = stacked.eval(pkt)
        assert result == {pkt.at_port(expected_port)}


class TestFigure1Compilation:
    def test_compiles_and_reports(self):
        sdx, *_ = figure1_controller()
        result = sdx.start()
        assert result.flow_rule_count > 0
        assert result.prefix_group_count >= 2
        assert result.total_seconds > 0
        assert set(result.timings) >= {
            "fec", "vnh", "defaults", "outbound", "inbound", "composition"}

    def test_web_traffic_to_b_when_eligible(self):
        """A's port-80 policy sends p1..p3 via B, but not p4 (Figure 1b)."""
        sdx, *_ = figure1_controller()
        sdx.start()
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "B"
        assert sdx.egress_of("A", packet("12.0.0.1", dstport=80)) == "B"
        assert sdx.egress_of("A", packet("13.0.0.1", dstport=80)) == "B"
        # p4 is only announced by C: web policy via B must not apply.
        assert sdx.egress_of("A", packet("14.0.0.1", dstport=80)) == "C"

    def test_https_traffic_to_c(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        for dstip in ("11.0.0.1", "12.0.0.1", "13.0.0.1", "14.0.0.1"):
            assert sdx.egress_of("A", packet(dstip, dstport=443)) == "C"

    def test_default_traffic_follows_best_route(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        # Best routes: C for p1/p2/p4 (shorter paths), B for p3.
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=22)) == "C"
        assert sdx.egress_of("A", packet("12.0.0.1", dstport=22)) == "C"
        assert sdx.egress_of("A", packet("13.0.0.1", dstport=22)) == "B"
        assert sdx.egress_of("A", packet("14.0.0.1", dstport=22)) == "C"

    def test_untouched_prefix_uses_real_next_hop(self):
        """p5 keeps its real next hop: no VNH is advertised for it."""
        sdx, *_ = figure1_controller()
        sdx.start()
        assert sdx.allocator.next_hop_for_prefix(P5) is None
        assert sdx.egress_of("A", packet("15.0.0.1", dstport=22)) == "E"
        assert sdx.egress_of("A", packet("15.0.0.1", dstport=80)) == "E"

    def test_inbound_te_selects_b_port(self):
        """B's inbound policy splits by source halves (Figure 1a)."""
        sdx, a, b, *_ = figure1_controller()
        sdx.start()
        low = packet("13.0.0.1", dstport=22, srcip="10.0.0.1")
        high = packet("13.0.0.1", dstport=22, srcip="200.0.0.1")
        low_delivery = sdx.send("A", low)[0]
        high_delivery = sdx.send("A", high)[0]
        assert low_delivery.switch_port == b.port(0)
        assert high_delivery.switch_port == b.port(1)
        assert low_delivery.accepted and high_delivery.accepted

    def test_delivered_packets_carry_real_macs(self):
        """Egress frames carry the destination router's interface MAC —
        the rewrite without which "AS B would drop the traffic"."""
        sdx, a, b, *_ = figure1_controller()
        sdx.start()
        delivery = sdx.send("A", packet("13.0.0.1", dstport=80))[0]
        macs = {port.mac for port in b.participant.router.ports}
        assert delivery.packet["dstmac"] in macs

    def test_traffic_between_non_policy_participants(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        assert sdx.egress_of("C", packet("15.0.0.1")) == "E"
        assert sdx.egress_of("E", packet("14.0.0.1")) == "C"

    def test_no_route_traffic_dropped(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        assert sdx.egress_of("A", packet("99.0.0.1")) is None

    def test_every_flow_rule_outputs_physical_port_or_drops(self):
        """The paper's invariant: packets reach a physical port or die."""
        sdx, *_ = figure1_controller()
        result = sdx.start()
        physical = set(sdx.topology.physical_ports())
        for rule in result.classifier.rules:
            for action in rule.actions:
                port = action.output_port
                assert port is not None
                assert port in physical


class TestCompilerModes:
    @pytest.mark.parametrize("use_vnh", [True, False])
    @pytest.mark.parametrize("optimized", [True, False])
    def test_all_modes_agree_on_forwarding(self, use_vnh, optimized):
        sdx, *_ = figure1_controller(use_vnh=use_vnh, optimized=optimized)
        sdx.start()
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=80)) == "B"
        assert sdx.egress_of("A", packet("14.0.0.1", dstport=80)) == "C"
        assert sdx.egress_of("A", packet("11.0.0.1", dstport=22)) == "C"
        assert sdx.egress_of("A", packet("13.0.0.1", dstport=22)) == "B"

    def test_naive_vnh_off_has_prefix_rules(self):
        """Without VNH grouping, eligibility is matched per dstip prefix."""
        sdx, *_ = figure1_controller(use_vnh=False)
        result = sdx.start()
        assert any(
            "dstip" in rule.match for rule in result.classifier.rules)
        assert sdx.allocator.assignments == 0

    def test_optimized_examines_fewer_pairs(self):
        sdx_opt, *_ = figure1_controller(optimized=True)
        sdx_naive, *_ = figure1_controller(optimized=False)
        opt = sdx_opt.start().report.stats.rule_pairs_examined
        naive = sdx_naive.start().report.stats.rule_pairs_examined
        assert opt < naive

    def test_inbound_cache_reused(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        physical = [p for p in sdx.topology.participants() if not p.is_remote]
        before = [sdx.compiler._inbound_pipeline(p) for p in physical]
        sdx.recompile()
        after = [sdx.compiler._inbound_pipeline(p) for p in physical]
        assert all(new is old for new, old in zip(after, before))


def covered_rules(classifier):
    """Rules covered by an earlier rule — the quadratic loop, kept here as
    the independent oracle for the compiler's indexed, per-block pass."""
    seen, covered = [], []
    for rule in classifier.rules:
        if any(earlier.covers(rule.match) for earlier in seen):
            covered.append(rule)
        seen.append(rule.match)
    return covered


class TestOnlyRulesThatCanFire:
    def test_large_table_is_reduced(self):
        """250 x 8 000 compiled to 4 885 rules at the parent — above the
        old 4 000-rule limit, so none of its dead rules were removed."""
        from repro.workloads.policies import generate_policies, install_assignments
        from repro.workloads.topology import generate_ixp
        ixp = generate_ixp(250, 8_000, seed=0)
        sdx = ixp.build_controller(with_dataplane=False)
        install_assignments(sdx, generate_policies(ixp, seed=1))
        result = sdx.start()
        assert result.prefix_group_count > 300
        assert covered_rules(result.classifier) == []

    def test_default_exception_under_a_catch_all_clause(self):
        """B is the best announcer of p3, so the default layer carries an
        exception for B's own ports; B's catch-all clause covers it. The
        two sit in different blocks — only the final pass sees both."""
        sdx, _a, b, *_ = figure1_controller()
        b.add_outbound(match() >> fwd("C"))
        unreduced, *_ = figure1_controller(reduce_table=False)
        unreduced.participant("B").add_outbound(match() >> fwd("C"))
        table = sdx.start().classifier
        assert covered_rules(table) == []
        assert any(
            rule.match.get("port") in b.participant.switch_ports
            for rule in covered_rules(unreduced.start().classifier))
        assert sdx.egress_of("B", packet("13.0.0.1", dstport=22)) == "C"

    def test_composition_emits_no_rule_below_a_covering_one(self):
        """Every stage-1 rule used to be followed by stage 2's fall-through
        drop pulled back to the same match."""
        sdx, *_ = figure1_controller(reduce_table=False)
        rules = sdx.start().classifier.rules
        assert not any(
            later.is_drop and later.match == earlier.match
            for earlier, later in zip(rules, rules[1:]))


def misordered(rules):
    """Pairs the keys get wrong — the quadratic loop, as oracle: an earlier
    rule that shares packets with a later one and does not outrank it."""
    return [(earlier, later) for index, later in enumerate(rules)
            for earlier in rules[:index]
            if earlier.priority <= later.priority
            and earlier.match.intersect(later.match) is not None]


class TestPrioritiesAreOverlapDepths:
    """A rule's key is a function of the compilation: band top less the
    rule's overlap depth within its block."""

    @pytest.mark.parametrize("kwargs", [
        {}, {"use_vnh": False}, {"optimized": False}, {"reduce_table": False},
        {"use_vnh": False, "optimized": False, "reduce_table": False}],
        ids=lambda kwargs: ",".join(kwargs) or "default")
    def test_every_mode_is_numbered_by_the_same_rule(self, kwargs):
        from repro.southbound.diff import (
            DEFAULT_BAND_TOP, DROP_PRIORITY, PRIORITY_CEILING)
        from repro.workloads.policies import generate_policies, install_assignments
        from repro.workloads.topology import generate_ixp
        ixp = generate_ixp(30, 300, seed=0)
        sdx = ixp.build_controller(with_dataplane=False, **kwargs)
        install_assignments(sdx, generate_policies(ixp, seed=1))
        rules = sdx.start().rules
        assert misordered(rules) == []
        assert len({(r.priority, r.match) for r in rules}) == len(rules)
        *body, drop = rules
        assert (drop.priority, drop.match, drop.actions) == (
            DROP_PRIORITY, WILDCARD, ())
        assert all(DROP_PRIORITY < r.priority < PRIORITY_CEILING for r in body)
        if sdx.compiler.optimized:
            holders = {port for p in sdx.topology.participants()
                       if p.outbound_clauses() for port in p.switch_ports}
            upper = [r for r in body if r.priority > DEFAULT_BAND_TOP]
            assert upper and all(r.match.get("port") in holders for r in upper)
        else:  # one block, one band
            assert all(r.priority <= DEFAULT_BAND_TOP for r in body)
        assert [(r.match, r.actions) for r in rules] == [
            (r.match, r.actions) for r in sdx.last_compilation.classifier.rules]
        assert len(sdx.table) == len(rules)

    def test_a_handful_of_levels_hold_the_table(self):
        """250 x 8 000: thousands of rules, and no chain of overlaps among
        them longer than a clause list is deep."""
        from repro.workloads.policies import generate_policies, install_assignments
        from repro.workloads.topology import generate_ixp
        ixp = generate_ixp(250, 8_000, seed=0)
        sdx = ixp.build_controller(with_dataplane=False)
        install_assignments(sdx, generate_policies(ixp, seed=1))
        rules = sdx.start().rules
        assert len(rules) > 2_000
        assert len({rule.priority for rule in rules}) <= 16

    def test_a_full_band_is_an_error_not_a_renumbering(self, monkeypatch):
        from repro.core import compiler
        sdx, a, *_ = figure1_controller()
        for port in (1, 2, 3):  # each catch-all-ish clause sits one deeper
            a.add_outbound(match(srcport=port) >> fwd("B"))
        assert sdx.start() is not None
        monkeypatch.setattr(compiler, "DEFAULT_BAND_TOP",
                            compiler.PRIORITY_CEILING - 3)
        with pytest.raises(CompilationError, match="band is full"):
            sdx.compiler.invalidate_inbound_cache()
            sdx.compiler.compile()

    def test_an_untouched_block_keeps_its_rule_objects(self):
        """Numbers live in the block's ``reduction`` entry: a one-clause
        change numbers one block."""
        sdx, a, b, c, _e = figure1_controller()
        c.add_outbound(match(dstport=22) >> fwd("B"))
        before = sdx.start().rules
        c.add_outbound(match(dstport=23) >> fwd("B"))
        after = sdx.last_compilation.rules
        kept = {id(rule) for rule in before} & {id(rule) for rule in after}
        a_port = a.port()
        assert kept and all(
            id(rule) in kept for rule in after
            if rule.match.get("port") == a_port and rule.priority > 500_000)


class TestStageOneIsCompositional:
    """What the fast path rests on: stage 1 built for one group alone is the
    full table's stage 1 under that group's VMAC."""

    @staticmethod
    def slices(*extra_clauses):
        """Per group of a compiled 40 x 400 exchange: its VMAC, stage 1
        built for it alone, and the full table's stage 1 restricted to it.

        The generated Section 6.1 mix only forwards on positive matches, so
        a holder and a member without policies also get a drop, a drop
        pinned to one prefix and ``extra_clauses(target)``.
        """
        from repro.core.composition import strip_drop_tail
        from repro.workloads.policies import (
            generate_policies, install_assignments)
        from repro.workloads.topology import generate_ixp
        ixp = generate_ixp(40, 400, seed=3)
        sdx = ixp.build_controller(with_dataplane=False)
        install_assignments(sdx, generate_policies(ixp, seed=4))
        compiler = sdx.compiler
        holder = sdx.topology.policy_holders()[0]
        target = holder.outbound_targets()[0]
        pinned = sdx.route_server.reachable_prefixes(holder.name, via=target)[0]
        for name in (holder.name, "AS1"):
            sdx.participant(name).add_outbound(
                (match(dstport=4321) >> drop)
                + ((match(dstip=pinned) & match(dstport=4322)) >> drop))
            for clause in extra_clauses:
                sdx.participant(name).add_outbound(clause(target))
        result = sdx.start()
        holders = sdx.topology.policy_holders()
        assert len(result.groups) > 20 and len(holders) == 3

        def built(stage, name):
            return result.reuse[stage, name][1]

        def stacked(parts):
            return [rule for part in parts for rule in strip_drop_tail(part)]

        full_stage1 = stacked([built("outbound", p.name).classifier for p in holders]
                              + [built("defaults", None).classifier])
        _groups, grouping, by_context = built("groups", None)
        everywhere = compiler._eligibility(grouping, by_context)

        for group in result.groups:
            vmac = sdx.allocator.vmac_for_group(group.group_id)
            tag = HeaderSpace(dstmac=vmac)

            def eligible(participant, clauses):
                return tuple((vmac,) if tags is None or vmac in tags else ()
                             for tags in everywhere(participant, clauses))

            defaults = stack_pieces(compiler._default_pieces(
                [(vmac, sdx.route_server.decide(group.representative))],
                None))
            alone = stacked(
                [compiler._outbound_part(
                    p, p.outbound_clauses(),
                    eligible(p, p.outbound_clauses()), defaults, None,
                    {}).classifier
                 for p in holders] + [defaults])
            under_tag = [
                Rule(space, rule.actions) for rule in full_stage1
                for space in [rule.match.intersect(tag)] if space is not None]
            yield group, vmac, holders, alone, under_tag

    def test_each_group_alone_gives_its_slice_of_the_full_table(self):
        """Same rules, same order."""
        for group, _vmac, _holders, alone, under_tag in self.slices():
            assert alone == under_tag, group

    def test_negation_agrees_packet_by_packet(self):
        """A negation's masks are expanded against everything below the
        clause — in the full table also under tags the clause is not
        eligible for, where the copies repeat what lies below them. There
        the rule lists differ, the first match of every packet does not."""
        differ = 0
        for group, vmac, holders, alone, under_tag in self.slices(
                lambda target: (~match(srcport=7) & match(dstport=4323))
                >> fwd(target)):
            differ += alone != under_tag
            one, whole = (Classifier(rules + [Rule(WILDCARD, ())])
                          for rules in (alone, under_tag))
            address = str(group.representative.first_address + 1)
            ports = [p.switch_ports[0] for p in holders] + [39]
            for port in ports:
                for dstport in (80, 443, 4321, 4322, 4323, 22):
                    for srcport in (7, 8):
                        probe = packet(address, dstport=dstport, port=port,
                                       srcport=srcport, dstmac=vmac)
                        assert one.eval(probe) == whole.eval(probe), (
                            group, probe)
        assert differ
