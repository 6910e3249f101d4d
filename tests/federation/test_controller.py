"""Tests for the FederatedController change surface and statics gate."""

import pytest

from repro import drop, fwd, match
from repro.bgp.asn import AsPath
from repro.exceptions import ParticipantError, StaticPolicyError
from repro.federation import FederatedController
from repro.net.addresses import IPv4Prefix
from repro.net.packet import Packet
from repro.statics import analyze_controller
from repro.verification.federation import reference_walk

from tests.federation.scenarios import PORT, PREFIX, loop_scenario

DSTIP = "198.51.100.9"


def empty_federation(**kwargs):
    kwargs.setdefault("with_dataplane", False)
    federation = FederatedController(**kwargs)
    federation.add_exchange("IXP-A")
    federation.add_exchange("IXP-B")
    return federation


class TestRegistration:
    def test_participant_mirrors_to_member_exchanges(self):
        federation = empty_federation()
        federation.add_participant("T", 65001, exchanges=("IXP-A", "IXP-B"))
        federation.add_participant("C", 65002, exchanges=("IXP-A",))
        assert set(federation.exchange("IXP-A").topology.names()) == {"T", "C"}
        assert set(federation.exchange("IXP-B").topology.names()) == {"T"}

    def test_default_presence_is_every_exchange(self):
        federation = empty_federation()
        federation.add_participant("T", 65001)
        assert federation.presence("T") == ("IXP-A", "IXP-B")
        assert federation.shared_participants() == ("T",)

    def test_ports_by_exchange_override(self):
        federation = empty_federation()
        federation.add_participant(
            "T", 65001, ports=1, ports_by_exchange={"IXP-A": 2})
        assert len(federation.handle("IXP-A", "T").participant.router.ports) == 2
        assert len(federation.handle("IXP-B", "T").participant.router.ports) == 1

    def test_unknown_exchange_rejected(self):
        federation = empty_federation()
        with pytest.raises(ParticipantError):
            federation.exchange("IXP-Z")
        with pytest.raises(ParticipantError):
            federation.add_participant("T", 65001, exchanges=("IXP-Z",))

    def test_invalid_statics_mode_rejected(self):
        with pytest.raises(ValueError):
            FederatedController(statics_mode="paranoid")

    def test_member_exchanges_never_self_gate(self):
        federation = empty_federation(statics_mode="strict")
        assert federation.exchange("IXP-A").statics_mode == "off"
        assert federation.exchange("IXP-B").statics_mode == "off"


class TestStrictGate:
    def make_loop_prone(self, statics_mode):
        """A federation one policy away from a loop.

        Without ``West``'s steering clause at IXP-B, traffic East hands
        to West at IXP-A crosses to IXP-B and follows the best route to
        ``Origin`` (the registered owner of the prefix) — delivered, so
        the first install passes a strict gate. The closing clause
        overrides that default and hands the traffic back to East, which
        carries it back to IXP-A: the cycle only exists once both
        policies are in place.
        """
        federation = empty_federation(statics_mode=statics_mode)
        federation.add_participant("West", 65001,
                                   exchanges=("IXP-A", "IXP-B"))
        federation.add_participant("East", 65002,
                                   exchanges=("IXP-B", "IXP-A"))
        federation.add_participant("Origin", 65003, exchanges=("IXP-B",))
        federation.register_origin(IPv4Prefix(PREFIX), "Origin")
        federation.announce_route("IXP-B", "Origin", IPv4Prefix(PREFIX),
                                  AsPath([65003, 64700]))
        federation.announce_route("IXP-A", "West", IPv4Prefix(PREFIX),
                                  AsPath([65001, 64800, 64700]))
        federation.announce_route("IXP-B", "East", IPv4Prefix(PREFIX),
                                  AsPath([65002, 64801, 64700]))
        federation.add_outbound("IXP-A", "East",
                                match(dstport=PORT) >> fwd("West"))
        return federation

    def test_strict_rejects_the_closing_policy(self):
        federation = self.make_loop_prone("strict")
        with pytest.raises(StaticPolicyError):
            federation.add_outbound("IXP-B", "West",
                                    match(dstport=PORT) >> fwd("East"))

    def test_rejected_policy_is_rolled_back(self):
        federation = self.make_loop_prone("strict")
        before = len(federation.handle("IXP-B", "West").participant
                     .outbound_policies)
        with pytest.raises(StaticPolicyError):
            federation.add_outbound("IXP-B", "West",
                                    match(dstport=PORT) >> fwd("East"))
        west = federation.handle("IXP-B", "West").participant
        assert len(west.outbound_policies) == before
        # The surviving half of the pair is untouched.
        east = federation.handle("IXP-A", "East").participant
        assert len(east.outbound_policies) == 1

    def test_off_mode_accepts_the_pair(self):
        federation = self.make_loop_prone("off")
        federation.add_outbound("IXP-B", "West",
                                match(dstport=PORT) >> fwd("East"))
        report = federation.lint_policies()
        assert report.by_check("SDX008")

    def test_gate_covers_inbound_installs(self):
        federation = empty_federation(statics_mode="strict")
        federation.add_participant("T", 65001, exchanges=("IXP-A",))
        # A clean inbound policy passes the federation-wide gate.
        handle = federation.handle("IXP-A", "T")
        federation.add_inbound(
            "IXP-A", "T", match(dstport=PORT) >> fwd(handle.port(0)))
        assert len(handle.participant.inbound_policies) == 1


class TestAcceptance:
    """The PR's acceptance criteria, as one test per claim."""

    def test_loop_pair_is_flagged_with_witness(self):
        federation = loop_scenario().build_federation(with_dataplane=False)
        report = analyze_controller(federation)
        findings = report.by_check("SDX008")
        assert findings
        for diagnostic in findings:
            assert diagnostic.witness is not None
            assert diagnostic.witness.get("dstport") == PORT

    def test_strict_mode_rejects_the_pair_at_install_time(self):
        with pytest.raises(StaticPolicyError):
            loop_scenario().build_federation(
                statics_mode="strict", with_dataplane=False)

    def test_reference_forwards_the_witness_in_a_cycle(self):
        scenario = loop_scenario()
        federation = scenario.build_federation(with_dataplane=False)
        diagnostic = analyze_controller(federation).by_check("SDX008")[0]
        payload = dict(diagnostic.data)
        outcome = reference_walk(
            scenario, payload["origin_exchange"],
            payload["origin_participant"], diagnostic.witness)
        assert outcome.is_loop
        assert outcome.cycle

    def test_real_dataplane_agrees_the_witness_loops(self):
        scenario = loop_scenario()
        federation = scenario.build_federation(with_dataplane=True)
        diagnostic = analyze_controller(federation).by_check("SDX008")[0]
        payload = dict(diagnostic.data)
        outcome = federation.forward(
            payload["origin_exchange"], payload["origin_participant"],
            diagnostic.witness)
        assert outcome.is_loop


class TestLifecycle:
    def test_start_compiles_every_member(self):
        federation = loop_scenario().build_federation(start=False)
        results = federation.start()
        assert set(results) == {"IXP-A", "IXP-B"}
        assert federation.started

    def test_settle_runs_without_error_after_updates(self):
        scenario = loop_scenario()
        federation = scenario.build_federation()
        federation.withdraw_route("IXP-A", "West", IPv4Prefix(PREFIX))
        federation.settle()
        outcome = federation.forward(
            "IXP-A", "East", Packet(dstip=DSTIP, dstport=PORT))
        assert not outcome.is_loop

    def test_summary_counts_federation_structure(self):
        federation = loop_scenario().build_federation(with_dataplane=False)
        summary = federation.summary()
        assert summary["exchanges"] == 2
        assert summary["shared_participants"] == 2
        assert summary["transit_links"] == 2
        assert set(summary["per_exchange"]) == {"IXP-A", "IXP-B"}

    def test_repr_names_exchanges(self):
        federation = empty_federation()
        assert "IXP-A" in repr(federation)
        assert "configured" in repr(federation)


class TestGateJudgesTheDelta:
    """The strict gate refuses what a change introduces — not what stood."""

    def standing_loop(self):
        # Built with the gate off, so the port-80 loop pair stands.
        federation = loop_scenario().build_federation(with_dataplane=False)
        federation.statics_mode = "strict"
        return federation

    def test_unrelated_edit_passes_a_standing_loop(self):
        federation = self.standing_loop()
        federation.add_outbound("IXP-A", "East", match(dstport=443) >> drop)
        east = federation.handle("IXP-A", "East").participant
        assert len(east.outbound_policies) == 2
        # The standing loop is still reported, just not held against it.
        assert federation.last_statics_report.by_check("SDX008")

    def test_a_second_loop_is_still_refused_and_not_left_installed(self):
        federation = self.standing_loop()
        west = federation.handle("IXP-B", "West").participant
        before = west.outbound_policies
        with pytest.raises(StaticPolicyError) as refusal:
            # Port 443 rides the default route back to East: a new cycle.
            federation.add_outbound(
                "IXP-B", "West", match(dstport=443) >> fwd("East"))
        assert "dstport=443" in str(refusal.value)
        assert west.outbound_policies == before
        assert refusal.value.report is federation.last_statics_report

    def test_start_refuses_any_standing_error(self):
        federation = loop_scenario().build_federation(
            with_dataplane=False, start=False)
        federation.statics_mode = "strict"
        with pytest.raises(StaticPolicyError):
            federation.start()
        assert not federation.started
