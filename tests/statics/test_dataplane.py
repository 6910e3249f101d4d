"""The dataplane verifier: atoms, partitions, SDX010-SDX014, gating.

Spatial checks are exercised on small hand-built tables where the right
answer is obvious, then the incremental path is held to byte-identity
with a fresh whole-table analysis on a real compiled workload (the same
contract the fuzz harness enforces at scale).
"""

from unittest import mock

import pytest

from repro.bgp.asn import AsPath
from repro.core.controller import SdxController
from repro.core.vnh import vmac_for_fec
from repro.dataplane.flowtable import FlowTable
from repro.dataplane.multiswitch import SdxTopology
from repro.exceptions import StaticDataplaneError
from repro.net.addresses import IPv4Prefix
from repro.net.mac import MacAddress
from repro.net.packet import Packet
from repro.policy.classifier import Action, Classifier, Rule
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import HeaderSpace
from repro.policy.policies import fwd, match
from repro.southbound.diff import FlowMod
from repro.statics.dataplane import (
    CommittedSpace,
    DataplaneVerifier,
    analyze_controller_dataplane,
    analyze_flowtable,
    committed_spaces_from_controller,
    walk_classes,
)
from repro.statics.diagnostics import Severity
from repro.workloads.policies import generate_policies, install_assignments
from repro.workloads.topology import generate_ixp

from tests.policy.test_matchindex import filing


def rule(priority, actions=(), **constraints):
    return FlowRule(priority=priority, match=HeaderSpace(**constraints),
                    actions=actions)


def table_of(*rules):
    table = FlowTable()
    for entry in rules:
        table.install(entry)
    return table


def diags(report, check_id):
    return [d for d in report.diagnostics if d.check_id == check_id]


FWD1 = (Action(port=1),)
FWD2 = (Action(port=2),)


def budget(blocks):
    """Judge at most ``blocks`` blocks of a class walk per check."""
    return mock.patch("repro.statics.dataplane.CLASS_BUDGET", blocks)


class TestSubpartition:
    """The classes :func:`walk_classes` walks, block by block."""

    def test_exact_field_splits_into_values_plus_remainder(self):
        blocks = list(walk_classes(HeaderSpace(), [
            rule(2, FWD1, dstport=80), rule(1, FWD1, dstport=443)]))
        assert [(packet.get("dstport"), winner and winner.priority, classes)
                for packet, winner, classes in blocks] == [
                    (80, 2, 1), (443, 1, 1), (0, None, 1)]

    def test_nested_prefixes_split_into_rings(self):
        blocks = list(walk_classes(
            HeaderSpace(),
            [rule(2, FWD1, dstip=IPv4Prefix("10.0.0.0/8")),
             rule(1, FWD1, dstip=IPv4Prefix("10.0.0.0/24"))]))
        # /24, the /8 minus the /24, and everything else.
        assert sum(classes for _, _, classes in blocks) == 3
        assert [winner and winner.priority
                for _, winner, _ in blocks] == [2, 2, None]

    def test_base_constraint_pins_unsplit_fields(self):
        blocks = walk_classes(HeaderSpace(srcport=53),
                              [rule(1, FWD1, dstport=80)])
        assert all(packet.get("srcport") == 53 for packet, _, _ in blocks)

    def test_port_domain_restricts_ingress_atoms(self):
        blocks = list(walk_classes(HeaderSpace(), [rule(1, FWD1, port=1)],
                                   port_domain=(1, 2, 3)))
        assert [(packet.get("port"), classes)
                for packet, _, classes in blocks] == [(1, 1), (2, 1)]

    def test_a_rule_closing_the_open_fields_ends_the_walk(self):
        """Below a choice whose first rule leaves every open field alone,
        the walk yields one block for all the classes under it."""
        blocks = list(walk_classes(HeaderSpace(), [
            rule(3, FWD1, dstport=80),
            rule(2, FWD1, dstport=443, srcport=53),
            rule(1, FWD1, srcport=22)]))
        # dstport 80 closes on the first rule; 443 and the rest split
        # srcport (53, 22, the rest).
        assert [(winner and winner.priority, classes)
                for _, winner, classes in blocks] == [
                    (3, 3), (2, 1), (1, 1), (None, 1),
                    (None, 1), (1, 1), (None, 1)]


class TestShadowedRule:
    def test_identical_match_lower_priority_is_shadowed(self):
        table = table_of(rule(10, FWD1, dstport=80),
                         rule(5, FWD2, dstport=80))
        report = analyze_flowtable(table)
        found = diags(report, "SDX010")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING
        assert found[0].location.clause_index == 5

    def test_union_shadow_is_detected(self):
        table = table_of(
            rule(10, FWD1, dstip=IPv4Prefix("10.0.0.0/9")),
            rule(9, FWD1, dstip=IPv4Prefix("10.128.0.0/9")),
            rule(5, FWD2, dstip=IPv4Prefix("10.0.0.0/8")))
        found = diags(analyze_flowtable(table), "SDX010")
        assert [d.location.clause_index for d in found] == [5]

    def test_partial_overlap_is_not_shadowed(self):
        table = table_of(rule(10, FWD1, dstip=IPv4Prefix("10.0.0.0/9")),
                         rule(5, FWD2, dstip=IPv4Prefix("10.0.0.0/8")))
        assert not diags(analyze_flowtable(table), "SDX010")

    def test_witness_is_stolen_by_a_higher_rule(self):
        table = table_of(rule(10, FWD1, dstport=80),
                         rule(5, FWD2, dstport=80))
        diag = diags(analyze_flowtable(table), "SDX010")[0]
        assert diag.witness is not None
        winner = table.lookup(diag.witness)
        assert winner is not None and winner.priority == 10


class TestCommittedMiss:
    VMAC = vmac_for_fec(7)
    SPACE = CommittedSpace(
        label="test", space=HeaderSpace(dstmac=VMAC,
                                        dstip=IPv4Prefix("10.0.0.0/24")),
        ports=(1, 2))

    def test_uncovered_committed_space_is_an_error(self):
        report = analyze_flowtable(table_of(), committed_spaces=[self.SPACE])
        found = diags(report, "SDX011")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR
        assert found[0].witness is not None

    def test_covered_committed_space_is_clean(self):
        table = table_of(rule(10, FWD1, dstmac=self.VMAC))
        report = analyze_flowtable(table, committed_spaces=[self.SPACE])
        assert not diags(report, "SDX011")

    def test_wildcard_drop_counts_as_eaten(self):
        table = table_of(rule(0))
        report = analyze_flowtable(table, committed_spaces=[self.SPACE])
        assert len(diags(report, "SDX011")) == 1

    def test_specific_drop_is_a_decision_not_a_miss(self):
        table = table_of(rule(10, (), dstmac=self.VMAC))
        report = analyze_flowtable(table, committed_spaces=[self.SPACE])
        assert not diags(report, "SDX011")

    def test_a_tagged_install_re_judges_an_untagged_space(self):
        """Spaces are looked up by the tag they pin; one pinning none is
        met by every mod."""
        table = table_of(rule(1))
        space = CommittedSpace(label="any-web", space=HeaderSpace(dstport=80),
                               ports=(1, 2))
        verifier = DataplaneVerifier(table, committed_spaces=lambda: [space],
                                     mode="off")
        mods = [FlowMod.add(rule(10, FWD2, dstmac=self.VMAC, dstport=80,
                                 port=1))]
        table.apply_delta(mods)
        verifier.verify_delta(mods)
        assert (verifier.state_report().to_json() == analyze_flowtable(
            table, committed_spaces=[space]).to_json())

    def test_spaces_that_go_leave_nothing_filed(self):
        """Committed spaces come and go for as long as the exchange runs:
        prefixes nesting both ways, arriving and leaving in either order,
        beside one that stays. The verifier's index of them keeps exactly
        the live ones, and every verdict is a fresh analysis's."""
        table = table_of(rule(10, FWD1, dstmac=self.VMAC, dstport=80),
                         rule(1))
        prefixes = ["10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16",
                    "10.1.2.0/24", "0.0.0.0/0"]
        churned = [CommittedSpace(label=f"c{n}", ports=(1,), space=HeaderSpace(
            dstmac=self.VMAC, dstip=IPv4Prefix(prefix)))
            for n, prefix in enumerate(prefixes)]
        live = [self.SPACE]
        verifier = DataplaneVerifier(table, committed_spaces=lambda: live,
                                     mode="off")
        mods = [FlowMod.add(rule(5, FWD2, dstmac=self.VMAC))]
        for arriving in (churned, churned[::-1]):
            for leaving in (arriving, arriving[::-1]):
                for space in arriving:
                    live.append(space)
                    verifier.verify_delta([])
                assert len(verifier._space_index) == 1 + len(churned)
                table.apply_delta(mods)
                verifier.verify_delta(mods)
                for space in leaving:
                    live.remove(space)
                    verifier.verify_delta([])
                table.apply_delta([FlowMod.delete(mods[0].rule)])
                verifier.verify_delta([FlowMod.delete(mods[0].rule)])
                assert filing(verifier._space_index) == {
                    (self.VMAC.value, None): [(24, 0x0A000000)]}
                assert (verifier.state_report().to_json()
                        == analyze_flowtable(
                            table, committed_spaces=live).to_json())
        live.clear()
        verifier.verify_delta([])
        assert len(verifier._space_index) == 0
        assert filing(verifier._space_index) == {}

    def test_witness_falls_to_the_miss(self):
        diag = diags(analyze_flowtable(table_of(rule(0)),
                                       committed_spaces=[self.SPACE]),
                     "SDX011")[0]
        table = table_of(rule(0))
        winner = table.lookup(diag.witness)
        assert winner is None or (winner.is_drop and winner.match.is_wildcard)


class TestClassBudget:
    """Past ``CLASS_BUDGET`` blocks a check degrades to a conservative
    answer — counted per site, never silent."""

    def exceeded(self, telemetry, check):
        return telemetry.registry.get(
            "sdx_statics_dataplane_budget_exceeded_total", check=check).value

    def test_reachability_falls_back_to_single_cover(self):
        from repro.telemetry import Telemetry

        # Two halves shadow rule 5 only as a union; rule 8 alone covers 4.
        table = table_of(
            rule(10, FWD1, dstip=IPv4Prefix("10.0.0.0/9")),
            rule(9, FWD1, dstip=IPv4Prefix("10.128.0.0/9")),
            rule(8, FWD1, dstport=80),
            rule(5, FWD2, dstip=IPv4Prefix("10.0.0.0/8")),
            rule(4, FWD2, dstip=IPv4Prefix("10.0.0.0/8"), dstport=80))
        assert [d.location.clause_index for d in diags(
            analyze_flowtable(table), "SDX010")] == [4, 5]
        telemetry = Telemetry()
        with budget(1):
            report = analyze_flowtable(table, telemetry=telemetry)
        # The union shadow is missed — never a false one reported — and the
        # single cover is still found.
        assert [d.location.clause_index
                for d in diags(report, "SDX010")] == [4]
        assert self.exceeded(telemetry, "SDX010") == 3  # rules 8, 5 and 4
        assert self.exceeded(telemetry, "SDX011") == 0

    def test_committed_space_check_is_skipped_and_counted(self):
        from repro.telemetry import Telemetry

        table = table_of(rule(10, FWD1, dstport=80), rule(9, FWD1, dstport=443))
        telemetry = Telemetry()
        with budget(1):
            report = analyze_flowtable(
                table, committed_spaces=[TestCommittedMiss.SPACE],
                telemetry=telemetry)
        assert not diags(report, "SDX011")  # a real miss, not looked for
        assert self.exceeded(telemetry, "SDX011") == 1
        assert diags(analyze_flowtable(
            table, committed_spaces=[TestCommittedMiss.SPACE]), "SDX011")

    def test_a_walk_under_the_budget_judges_a_product_past_it(self):
        """Two /9 halves shadow the /8 at priority 5 as a union. The
        single-value rules ahead of it make a product of 9**4 * 2 classes,
        but each block closes on a /9 once ``srcip`` is chosen: 1,458
        blocks, within the budget, so the union shadow is found."""
        from repro.telemetry import Telemetry

        rules = [rule(100, FWD1, srcip=IPv4Prefix("10.0.0.0/9")),
                 rule(99, FWD1, srcip=IPv4Prefix("10.128.0.0/9"))]
        for priority, fieldname in zip((90, 89, 88, 87), (
                "dstport", "srcport", "protocol", "ethtype")):
            rules.extend(rule(priority, FWD2, **{fieldname: 1000 + value})
                         for value in range(8))
        rules.append(rule(5, FWD2, srcip=IPv4Prefix("10.0.0.0/8")))
        blocks = list(walk_classes(rules[-1].match, rules[:-1]))
        assert sum(classes for _, _, classes in blocks) == 9 ** 4 * 2
        assert len(blocks) == 1458
        telemetry = Telemetry()
        report = analyze_flowtable(table_of(*rules), telemetry=telemetry)
        assert [d.location.clause_index
                for d in diags(report, "SDX010")] == [5]
        assert self.exceeded(telemetry, "SDX010") == 0


class TestDeadVmac:
    LIVE = vmac_for_fec(1)
    DEAD = vmac_for_fec(999)

    def index(self):
        return {self.LIVE: "10.0.0.0/24"}

    def test_rewrite_to_dead_vmac_is_an_error(self):
        table = table_of(FlowRule(
            10, HeaderSpace(dstport=80),
            (Action(dstmac=self.DEAD, port=1),)))
        found = diags(analyze_flowtable(table, vmac_index=self.index()),
                      "SDX012")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR

    def test_rewrite_to_live_vmac_is_clean(self):
        table = table_of(FlowRule(
            10, HeaderSpace(dstport=80),
            (Action(dstmac=self.LIVE, port=1),)))
        assert not diags(analyze_flowtable(table, vmac_index=self.index()),
                         "SDX012")

    def test_match_on_dead_vmac_is_a_warning(self):
        table = table_of(rule(10, FWD1, dstmac=self.DEAD))
        found = diags(analyze_flowtable(table, vmac_index=self.index()),
                      "SDX012")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_real_mac_rewrite_is_ignored(self):
        table = table_of(FlowRule(
            10, HeaderSpace(dstport=80),
            (Action(dstmac=MacAddress("02:00:00:00:00:05"), port=1),)))
        assert not diags(analyze_flowtable(table, vmac_index=self.index()),
                         "SDX012")

    def test_shadowed_rule_is_not_double_reported(self):
        # The blackhole rewrite sits on a rule that can never win: the
        # shadow verdict wins and the rewrite is not reported.
        table = table_of(
            rule(10, FWD1, dstport=80),
            FlowRule(5, HeaderSpace(dstport=80),
                     (Action(dstmac=self.DEAD, port=1),)))
        report = analyze_flowtable(table, vmac_index=self.index())
        assert len(diags(report, "SDX010")) == 1
        assert not diags(report, "SDX012")


class TestFabricLoop:
    MAC = MacAddress("02:00:00:00:00:42")

    def looped_fabric(self):
        topology = SdxTopology()
        topology.add_switch("s1")
        topology.add_switch("s2")
        topology.assign_port(1, "s1")
        topology.add_link("s1", 100, "s2", 101)
        tables = {
            "s1": Classifier([Rule(HeaderSpace(dstmac=self.MAC),
                                   (Action(port=100),))]),
            "s2": Classifier([Rule(HeaderSpace(dstmac=self.MAC),
                                   (Action(port=101),))]),
        }
        return topology, tables

    def test_mutual_trunk_forwarding_is_a_loop(self):
        topology, tables = self.looped_fabric()
        report = analyze_flowtable(table_of(), topology=topology,
                                   tables=tables)
        found = diags(report, "SDX013")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR
        assert "s1" in found[0].message and "s2" in found[0].message

    def test_loop_packet_overruns_the_real_fabric(self):
        from repro.dataplane.multiswitch import MultiSwitchDataPlane
        from repro.exceptions import FabricError

        topology, tables = self.looped_fabric()
        plane = MultiSwitchDataPlane(topology, tables, max_hops=8)
        with pytest.raises(FabricError, match="loop"):
            plane.process(Packet(port=1, dstmac=self.MAC))

    def test_terminating_forwarding_is_clean(self):
        topology, tables = self.looped_fabric()
        tables["s2"] = Classifier([Rule(HeaderSpace(dstmac=self.MAC),
                                        (Action(port=7),))])
        report = analyze_flowtable(table_of(), topology=topology,
                                   tables=tables)
        assert not diags(report, "SDX013")


class TestPhaseOrdering:
    def test_install_after_delete_is_flagged(self):
        verifier = DataplaneVerifier(table_of(), mode="off")
        mods = [FlowMod.delete(rule(5, FWD1, dstport=80)),
                FlowMod.add(rule(7, FWD2, dstport=443))]
        report = verifier.verify_delta(mods)
        found = diags(report, "SDX014")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR

    def test_two_phase_order_is_clean(self):
        verifier = DataplaneVerifier(table_of(), mode="off")
        mods = [FlowMod.add(rule(7, FWD2, dstport=443)),
                FlowMod.delete(rule(5, FWD1, dstport=80))]
        assert not diags(verifier.verify_delta(mods), "SDX014")

    def test_window_findings_are_not_cached(self):
        verifier = DataplaneVerifier(table_of(), mode="off")
        mods = [FlowMod.delete(rule(5, FWD1, dstport=80)),
                FlowMod.add(rule(7, FWD2, dstport=443))]
        assert diags(verifier.verify_delta(mods), "SDX014")
        assert not diags(verifier.state_report(), "SDX014")


def workload_controller(seed=0, mode="warn"):
    ixp = generate_ixp(8, 16, seed=seed)
    controller = ixp.build_controller(dataplane_statics_mode=mode)
    install_assignments(controller, generate_policies(ixp, seed=seed + 1))
    controller.start()
    return controller


class TestPinnedWorkload:
    def test_rules_and_diagnostics_are_pinned(self):
        """The seeded workload's installed table size and its verdict are
        work counts, fixed for the seed: pinned exactly."""
        ixp = generate_ixp(24, 160, seed=5)
        controller = ixp.build_controller(dataplane_statics_mode="warn")
        install_assignments(controller, generate_policies(ixp, seed=6))
        controller.start()
        report = analyze_controller_dataplane(controller)
        assert len(controller.table.rules) == 156
        assert report.diagnostics == []


def exchange_with(bystanders, *, small=False):
    """The generated 12 x 80 exchange (or, ``small``, members A, B with two
    ports and C, two clauses of A's), plus ``bystanders`` members that
    announce a prefix of their own: each brings its own port and MAC, and
    no clause names them."""
    if small:
        sdx = SdxController(with_dataplane=True,
                            dataplane_statics_mode="strict")
        for name, asn in (("A", 65001), ("B", 65002), ("C", 65003)):
            sdx.add_participant(name, asn, ports=2 if name == "B" else 1)
            sdx.announce_route(name, IPv4Prefix(f"10.{asn - 65001}.0.0/24"),
                               AsPath([asn]))
    else:
        ixp = generate_ixp(12, 80, seed=3)
        sdx = ixp.build_controller(with_dataplane=True,
                                   dataplane_statics_mode="strict")
    for index in range(bystanders):
        sdx.add_participant(f"X{index}", 65500 + index)
        sdx.announce_route(f"X{index}", IPv4Prefix(f"172.{16 + index}.0.0/16"),
                           AsPath([65500 + index]))
    if small:
        sdx.participant("A").add_outbound(match(dstport=80) >> fwd("B"))
        sdx.participant("A").add_outbound(match(dstport=443) >> fwd("C"))
    else:
        install_assignments(sdx, generate_policies(ixp, seed=4))
    sdx.start()
    return sdx


def one_update(sdx):
    """The best route of the first prefix gets longer: one gated fast-path
    window, shadow rules under a fresh tag. Returns the rules it added and
    the rules the verifier examined for it."""
    examined = sdx.telemetry.registry.get(
        "sdx_statics_dataplane_rules_examined_total")
    before, size = examined.value, len(sdx.table)
    prefix = sdx.route_server.all_prefixes()[0]
    announcer = sdx.route_server.decide(prefix).best.learned_from
    asn = sdx.topology.participant(announcer).asn
    sdx.announce_route(announcer, prefix, AsPath([asn, 64_999, 7]))
    return len(sdx.table) - size, examined.value - before


class TestWhatAWindowExamines:
    """``sdx_statics_dataplane_rules_examined_total`` counts the installed
    rules whose match the verifier tests: the rules under the guards a
    window's mods, its changed committed spaces and its changed tags can
    share. A work count, so pinned exactly."""

    def test_one_update_window_is_pinned(self):
        sdx = exchange_with(0)
        assert len(sdx.table) == 44
        assert one_update(sdx) == (5, 46)

    def test_members_the_window_cannot_meet_cost_it_nothing(self):
        crowded = exchange_with(20)
        assert len(crowded.table) == 64
        assert one_update(crowded) == (5, 46)

    def test_a_catch_all_is_judged_by_one_lookup(self):
        """With so few clauses the catch-all drop's classes fit the budget,
        so every window that adds ahead of it takes its verdict again. It
        pins no guard field, so it would meet every rule ahead; the lookup
        of its representative settles it instead, whatever the table holds."""
        small, crowded = exchange_with(0, small=True), exchange_with(
            10, small=True)
        assert len(crowded.table) - len(small.table) == 10
        assert one_update(small) == (2, 13)
        assert one_update(crowded) == (2, 13)


def lengthen(sdx, count):
    """The best routes of the first ``count`` prefixes get longer: gated
    fast-path windows, each under a fresh tag."""
    for prefix in sdx.route_server.all_prefixes()[:count]:
        announcer = sdx.route_server.decide(prefix).best.learned_from
        asn = sdx.topology.participant(announcer).asn
        sdx.announce_route(announcer, prefix, AsPath([asn, 64_999, 7]))


class TestWhatAPolicyChangeExamines:
    """One gated policy change after a few fast-path updates: its swap
    re-verifies the rules its FlowMods reach and the committed spaces that
    moved, reading each moved tag's rules once. Both work counts are pinned
    exactly, and neither grows with members the change cannot meet."""

    @staticmethod
    def one_policy_change(sdx):
        lengthen(sdx, 3)
        registry = sdx.telemetry.registry
        counters = (registry.get("sdx_statics_dataplane_rules_examined_total"),
                    registry.get("sdx_statics_dataplane_checks_total"))
        before = [counter.value for counter in counters]
        holder, target = sdx.route_server.peers()[:2]
        sdx.participant(holder).add_outbound(match(dstport=8080) >> fwd(target))
        return tuple(counter.value - value
                     for counter, value in zip(counters, before))

    def test_one_policy_change_is_pinned(self):
        sdx = exchange_with(0)
        assert self.one_policy_change(sdx) == (271, 130)
        assert len(sdx.table) == 47

    def test_members_the_change_cannot_meet_cost_it_nothing(self):
        crowded = exchange_with(20)
        assert self.one_policy_change(crowded) == (271, 130)
        assert len(crowded.table) == 67


def tagless_exchange():
    """A 20 x 300 exchange without tags (``use_vnh=False``), its table
    verified live: ``dstip`` prefixes, not VMACs, keep one port's rules
    apart, so every class walk splits prefixes. Returns the controller,
    the clause holder and the two members it forwards to."""
    ixp = generate_ixp(20, 300, seed=0)
    sdx = ixp.build_controller(use_vnh=False, dataplane_statics_mode="warn")
    big = [spec.name for spec in ixp.top_by_prefixes(2)]
    client = next(spec.name for spec in ixp.participants
                  if spec.name not in big)
    for port, target in ((80, big[0]), (443, big[1]), (8080, big[0])):
        sdx.participant(client).add_outbound(
            match(dstport=port) >> fwd(target))
    sdx.start()
    return sdx, client, big


class TestTheTaglessPlane:
    """The verifier on a table whose rules pin ``dstip`` prefixes rather
    than tags: nested prefixes, the atoms the class walk splits them into
    and the witnesses it renders."""

    @staticmethod
    def work(sdx):
        registry = sdx.telemetry.registry
        return tuple(registry.get(name).value for name in (
            "sdx_statics_dataplane_classes_total",
            "sdx_statics_dataplane_rules_examined_total"))

    @staticmethod
    def assert_identical(sdx):
        assert (analyze_flowtable(sdx.table).to_json()
                == sdx.dataplane_verifier.state_report().to_json())

    def test_incremental_equals_full_across_a_policy_add_and_remove(self):
        sdx, client, big = tagless_exchange()
        assert len(sdx.table) == 368
        self.assert_identical(sdx)
        clause = match(dstport=8443) >> fwd(big[1])
        sdx.participant(client).add_outbound(clause)
        assert len(sdx.table) == 423
        self.assert_identical(sdx)
        sdx.participant(client).remove_outbound(clause)
        assert len(sdx.table) == 368
        self.assert_identical(sdx)

    def test_the_work_is_pinned(self):
        sdx, client, big = tagless_exchange()
        assert self.work(sdx) == (48, 26248)
        clause = match(dstport=8443) >> fwd(big[1])
        sdx.participant(client).add_outbound(clause)
        assert self.work(sdx) == (96, 37352)
        sdx.participant(client).remove_outbound(clause)
        assert self.work(sdx) == (144, 47020)

    def test_a_shadowed_install_is_found_with_a_witness(self):
        from repro.workloads.policies import inject_shadowed_install

        sdx, _, _ = tagless_exchange()
        defect = inject_shadowed_install(sdx, seed=0)
        report = analyze_flowtable(sdx.table)
        assert report.to_json() == sdx.dataplane_verifier.state_report(
        ).to_json()
        [found] = diags(report, "SDX010")
        assert found.location.clause_index == defect.clause_index
        witness = found.witness
        assert witness == Packet(dstip="16.9.9.0", dstport=443, port=1)
        assert dict(found.data)["rule_match"].matches(witness)
        assert sdx.table.lookup(witness).priority == defect.clause_index + 1


class TestIncrementalEqualsFull:
    def assert_identical(self, controller):
        incremental = controller.dataplane_verifier.state_report()
        fresh = analyze_controller_dataplane(controller)
        assert incremental.to_json() == fresh.to_json()

    def test_identical_after_start(self):
        self.assert_identical(workload_controller())

    def test_identical_after_fast_path_churn(self):
        from repro.workloads.topology import generate_ixp
        from repro.workloads.updates import generate_trace

        ixp = generate_ixp(8, 16, seed=3)
        controller = ixp.build_controller(dataplane_statics_mode="warn")
        install_assignments(controller,
                            generate_policies(ixp, seed=4))
        controller.start()
        for event in generate_trace(ixp, seed=5, max_updates=30):
            controller.submit_update(event.update)
        self.assert_identical(controller)

    def test_identical_after_background_recompilation(self):
        controller = workload_controller(seed=7)
        controller.run_background_recompilation()
        self.assert_identical(controller)

    def test_committed_spaces_cover_policy_prefixes_only(self):
        controller = workload_controller()
        spaces = committed_spaces_from_controller(controller)
        index = controller.allocator.vmac_index()
        assert all(space.space.get("dstmac") in index for space in spaces)

    # Spaces of one tag share an SDX011 verdict within a pass when they
    # differ only in their prefix: the cases where they must not, or where
    # a shared verdict must still speak per space.

    TAG = vmac_for_fec(9)

    def space(self, label, prefix, ports=(1, 2)):
        return CommittedSpace(label=label, ports=ports, space=HeaderSpace(
            dstmac=self.TAG, dstip=IPv4Prefix(prefix)))

    def judged(self, table, spaces):
        """The verifier's report after a window that touches every space,
        held to a fresh analysis; its SDX011s by label."""
        verifier = DataplaneVerifier(table, committed_spaces=lambda: spaces,
                                     mode="off")
        mods = [FlowMod.add(rule(50, FWD1, dstmac=self.TAG, dstport=9))]
        table.apply_delta(mods)
        verifier.verify_delta(mods)
        report = verifier.state_report()
        assert report.to_json() == analyze_flowtable(
            table, committed_spaces=spaces).to_json()
        return {dict(d.data)["label"]: d for d in diags(report, "SDX011")}

    def test_a_rule_cutting_a_prefix_keeps_it_from_its_siblings_verdict(self):
        """The /16 and the /8 holding it meet the same rules, but the rule
        pinning the /16 cuts the /8: judged first, the /16's clean verdict
        must not be lent to the /8, whose remainder falls to the drop."""
        table = table_of(rule(10, FWD1, dstmac=self.TAG,
                              dstip=IPv4Prefix("10.0.0.0/16")), rule(0))
        found = self.judged(table, [self.space("a", "10.0.0.0/16"),
                                    self.space("b", "10.0.0.0/8")])
        assert sorted(found) == ["b"]
        assert not IPv4Prefix("10.0.0.0/16").contains_address(
            found["b"].witness.get("dstip"))

    def test_only_the_eaten_space_of_a_tag_is_reported(self):
        table = table_of(rule(10, FWD1, dstmac=self.TAG,
                              dstip=IPv4Prefix("10.0.0.0/16")), rule(0))
        found = self.judged(table, [self.space("a", "10.0.0.0/16"),
                                    self.space("b", "10.1.0.0/16")])
        assert sorted(found) == ["b"]
        assert IPv4Prefix("10.1.0.0/16").contains_address(
            found["b"].witness.get("dstip"))

    def test_a_shared_eaten_verdict_carries_each_label_and_witness(self):
        table = table_of(rule(10, FWD1, dstmac=self.TAG, dstport=80),
                         rule(0))
        prefixes = ("10.0.0.0/16", "10.1.0.0/16", "10.2.0.0/16")
        found = self.judged(table, [self.space(str(index), prefix)
                                    for index, prefix in enumerate(prefixes)])
        assert sorted(found) == ["0", "1", "2"]
        for index, prefix in enumerate(prefixes):
            assert IPv4Prefix(prefix).contains_address(
                found[str(index)].witness.get("dstip"))

    def test_a_class_budget_overrun_is_shared_and_counted_per_space(self):
        from repro.telemetry import Telemetry

        table = table_of(rule(10, FWD1, dstmac=self.TAG, dstport=80),
                         rule(9, FWD1, dstmac=self.TAG, dstport=443), rule(0))
        spaces = [self.space("a", "10.0.0.0/16"),
                  self.space("b", "10.1.0.0/16")]
        telemetry = Telemetry()
        with budget(2):
            assert self.judged(table, spaces) == {}
            analyze_flowtable(table, committed_spaces=spaces,
                              telemetry=telemetry)
        assert telemetry.registry.get(
            "sdx_statics_dataplane_budget_exceeded_total",
            check="SDX011").value == 2

    def test_identical_after_a_clause_cuts_a_group_prefix(self):
        """A group holding a /8 and a /16 inside it; a gated edit installs
        a clause whose ``dstip`` is the /16, cutting the /8."""
        sdx = SdxController(with_dataplane=True,
                            dataplane_statics_mode="strict")
        for name, asn in (("A", 65001), ("B", 65002), ("C", 65003)):
            sdx.add_participant(name, asn)
        for prefix in ("10.0.0.0/8", "10.1.0.0/16", "20.0.0.0/16"):
            for name, asn in (("B", 65002), ("C", 65003)):
                sdx.announce_route(name, IPv4Prefix(prefix), AsPath([asn]))
        sdx.participant("A").add_outbound(match(dstport=80) >> fwd("B"))
        sdx.start()
        sdx.participant("A").add_outbound(
            (match(dstip="10.1.0.0/16") & match(dstport=443)) >> fwd("C"))
        groups = [group.prefixes for group in sdx.last_compilation.groups
                  if IPv4Prefix("10.0.0.0/8") in group.prefixes]
        assert IPv4Prefix("10.1.0.0/16") in groups[0]
        self.assert_identical(sdx)

    def test_identical_after_a_gated_policy_change_after_fast_path_churn(self):
        from repro.workloads.updates import generate_trace

        ixp = generate_ixp(12, 80, seed=3)
        sdx = ixp.build_controller(with_dataplane=True, statics_mode="strict",
                                   dataplane_statics_mode="strict")
        install_assignments(sdx, generate_policies(ixp, seed=4))
        sdx.start()
        for event in generate_trace(ixp, seed=5, max_updates=20):
            sdx.submit_update(event.update)
        holder, target = sdx.route_server.peers()[:2]
        clause = match(dstport=8080) >> fwd(target)
        sdx.participant(holder).add_outbound(clause)
        self.assert_identical(sdx)
        sdx.participant(holder).remove_outbound(clause)
        self.assert_identical(sdx)


class TestGating:
    def blackhole_rule(self):
        return FlowRule(
            900_000, HeaderSpace(dstip=IPv4Prefix("99.99.0.0/16")),
            (Action(dstmac=vmac_for_fec(999_999), port=1),))

    def test_warn_mode_installs_and_reports(self):
        controller = workload_controller(mode="warn")
        controller.southbound.push_rules([self.blackhole_rule()])
        report = controller.dataplane_verifier.state_report()
        assert diags(report, "SDX012")

    def test_strict_mode_rejects_and_rolls_back(self):
        controller = workload_controller(mode="strict")
        before = controller.table.render()
        with pytest.raises(StaticDataplaneError) as excinfo:
            controller.southbound.push_rules([self.blackhole_rule()])
        assert excinfo.value.report is not None
        assert controller.table.render() == before
        # The cache is restored too: state still renders clean.
        report = controller.dataplane_verifier.state_report()
        assert not any(d.severity is Severity.ERROR
                       for d in report.diagnostics)

    def test_strict_mode_passes_clean_updates(self):
        from repro.workloads.topology import generate_ixp
        from repro.workloads.updates import generate_trace

        ixp = generate_ixp(6, 12, seed=11)
        controller = ixp.build_controller(dataplane_statics_mode="strict")
        install_assignments(controller, generate_policies(ixp, seed=12))
        controller.start()
        for event in generate_trace(ixp, seed=13, max_updates=20):
            controller.submit_update(event.update)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SdxController(dataplane_statics_mode="bogus")
        with pytest.raises(ValueError):
            DataplaneVerifier(table_of(), mode="bogus")

    def test_lint_dataplane_enforce_raises_on_errors(self):
        controller = workload_controller(mode="off")
        assert controller.dataplane_verifier is None
        controller.southbound.push_rules([self.blackhole_rule()])
        with pytest.raises(StaticDataplaneError):
            controller.lint_dataplane(enforce=True)


class TestTelemetry:
    def test_counters_and_spans_are_recorded(self):
        controller = workload_controller(mode="warn")
        rendered = controller.telemetry.registry.render()
        assert "sdx_statics_dataplane_runs_total" in rendered
        assert "sdx_statics_dataplane_classes_total" in rendered
        assert "sdx_statics_dataplane_batches_total" in rendered
