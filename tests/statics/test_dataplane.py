"""The dataplane verifier: atoms, partitions, SDX010-SDX014, gating.

Spatial checks are exercised on small hand-built tables where the right
answer is obvious, then the incremental path is held to byte-identity
with a fresh whole-table analysis on a real compiled workload (the same
contract the fuzz harness enforces at scale).
"""

import pytest

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
from repro.southbound.diff import FlowMod
from repro.statics.dataplane import (
    ClassBudgetExceeded,
    CommittedSpace,
    DataplaneVerifier,
    Subpartition,
    analyze_controller_dataplane,
    analyze_flowtable,
    committed_spaces_from_controller,
)
from repro.statics.diagnostics import Severity
from repro.workloads.policies import generate_policies, install_assignments
from repro.workloads.topology import generate_ixp


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


class TestSubpartition:
    def test_exact_field_splits_into_values_plus_remainder(self):
        part = Subpartition(HeaderSpace(), [rule(2, FWD1, dstport=80),
                                            rule(1, FWD1, dstport=443)])
        reps = sorted(c.representative.get("dstport") for c in part.classes)
        assert len(part.classes) == 3
        assert 80 in reps and 443 in reps

    def test_nested_prefixes_split_into_rings(self):
        part = Subpartition(
            HeaderSpace(),
            [rule(2, FWD1, dstip=IPv4Prefix("10.0.0.0/8")),
             rule(1, FWD1, dstip=IPv4Prefix("10.0.0.0/24"))])
        # /24, the /8 minus the /24, and everything else.
        assert len(part.classes) == 3

    def test_classify_agrees_with_representatives(self):
        part = Subpartition(HeaderSpace(),
                            [rule(2, FWD1, dstip=IPv4Prefix("10.0.0.0/8")),
                             rule(1, FWD1, dstport=80)])
        for cls in part.classes:
            assert part.classify(cls.representative) == cls.key

    def test_classify_outside_base_is_none(self):
        part = Subpartition(HeaderSpace(dstport=80), [rule(1, FWD1)])
        assert part.classify(Packet(dstport=443)) is None

    def test_base_constraint_pins_unsplit_fields(self):
        part = Subpartition(HeaderSpace(srcport=53),
                            [rule(1, FWD1, dstport=80)])
        assert all(c.representative.get("srcport") == 53
                   for c in part.classes)

    def test_budget_exceeded_raises(self):
        busy = [rule(i, FWD1, dstport=1000 + i, srcport=2000 + i)
                for i in range(8)]
        with pytest.raises(ClassBudgetExceeded):
            Subpartition(HeaderSpace(), busy, budget=16)

    def test_port_domain_restricts_ingress_atoms(self):
        part = Subpartition(HeaderSpace(), [rule(1, FWD1, port=1)],
                            port_domain=(1, 2, 3))
        ports = {c.representative.get("port") for c in part.classes}
        assert 1 in ports
        assert ports <= {1, 2, 3}


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

    def test_witness_falls_to_the_miss(self):
        diag = diags(analyze_flowtable(table_of(rule(0)),
                                       committed_spaces=[self.SPACE]),
                     "SDX011")[0]
        table = table_of(rule(0))
        winner = table.lookup(diag.witness)
        assert winner is None or (winner.is_drop and winner.match.is_wildcard)


class TestClassBudget:
    """Past ``class_budget`` a check degrades to a conservative answer —
    counted per site, never silent."""

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
        report = analyze_flowtable(table, class_budget=1, telemetry=telemetry)
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
        report = analyze_flowtable(
            table, committed_spaces=[TestCommittedMiss.SPACE], class_budget=1,
            telemetry=telemetry)
        assert not diags(report, "SDX011")  # a real miss, not looked for
        assert self.exceeded(telemetry, "SDX011") == 1
        assert diags(analyze_flowtable(
            table, committed_spaces=[TestCommittedMiss.SPACE]), "SDX011")


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

    def test_incremental_reuses_cached_classes(self):
        controller = workload_controller(mode="warn")
        registry = controller.telemetry.registry
        reused = registry.counter(
            "sdx_statics_dataplane_classes_reused_total",
            "Cached equivalence classes reused by incremental verification")
        controller.southbound.push_rules(
            [rule(900_001, FWD1,
                  dstmac=MacAddress("02:00:00:00:00:77"), dstport=65_000)])
        assert reused.value > 0
