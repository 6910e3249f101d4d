"""Tests for the SDX008/SDX009 federation checks and the static walker."""

from repro import drop, fwd, match
from repro.core.dynamic import rib_match
from repro.core.participant import Participant
from repro.federation import FederatedHop, FederationContext, analyze_federation
from repro.federation.checks import walk_statically
from repro.net.packet import Packet
from repro.statics.diagnostics import Severity
from repro.telemetry import Telemetry
from repro.verification.corpus import generate_corpus
from repro.verification.federation import reference_walk
from repro.verification.reference import ReferenceInterpreter
from repro.verification.scenario import generate_scenario

from tests.federation.scenarios import (
    PORT,
    blackhole_scenario,
    clean_scenario,
    loop_scenario,
)

DSTIP = "198.51.100.9"


def build(scenario):
    return scenario.build_federation(with_dataplane=False)


def walk(federation, exchange, sender, packet):
    """(outcome, decisions) of one static walk over ``federation``."""
    return walk_statically(
        FederationContext(federation), exchange, sender, packet)


class TestInterExchangeLoop:
    def test_loop_pair_flagged_as_error(self):
        report = analyze_federation(build(loop_scenario()))
        findings = report.by_check("SDX008")
        assert findings
        assert all(d.severity is Severity.ERROR for d in findings)

    def test_diagnostic_carries_cycle_and_witness(self):
        report = analyze_federation(build(loop_scenario()))
        diagnostic = report.by_check("SDX008")[0]
        payload = dict(diagnostic.data)
        assert payload["origin_exchange"] in ("IXP-A", "IXP-B")
        assert payload["origin_participant"] in ("West", "East")
        assert len(payload["cycle"]) == 2
        assert diagnostic.witness.get("dstport") == PORT

    def test_one_finding_per_composed_clause(self):
        report = analyze_federation(build(loop_scenario()))
        anchors = {(dict(d.data)["origin_exchange"],
                    d.location.participant, d.location.clause_index)
                   for d in report.by_check("SDX008")}
        assert anchors == {("IXP-A", "East", 0), ("IXP-B", "West", 0)}

    def test_clean_federation_has_no_loop_findings(self):
        report = analyze_federation(build(clean_scenario()))
        assert report.by_check("SDX008") == []

    def test_blackhole_federation_has_no_loop_findings(self):
        report = analyze_federation(build(blackhole_scenario()))
        assert report.by_check("SDX008") == []


class TestStitchedBlackhole:
    def test_stitched_drop_flagged_as_warning(self):
        report = analyze_federation(build(blackhole_scenario()))
        findings = report.by_check("SDX009")
        assert findings
        assert all(d.severity is Severity.WARNING for d in findings)

    def test_diagnostic_names_the_killer(self):
        report = analyze_federation(build(blackhole_scenario()))
        payload = dict(report.by_check("SDX009")[0].data)
        assert payload["drop_exchange"] == "IXP-B"
        assert payload["drop_participant"] == "Transit"
        assert payload["drop_reason"] == "outbound-drop"
        assert payload["drop_clause"] == 0

    def test_same_exchange_drop_is_not_stitched(self):
        # The egress's inbound policy refuses the packet at the very
        # first exchange: single-exchange territory (SDX005), not SDX009.
        federation = build(clean_scenario())
        federation.handle("IXP-B", "Transit").add_inbound(
            match(dstport=PORT) >> drop)
        report = analyze_federation(federation)
        assert report.by_check("SDX009") == []

    def test_clean_federation_has_no_blackhole_findings(self):
        report = analyze_federation(build(clean_scenario()))
        assert report.by_check("SDX009") == []

    def test_inbound_refusal_beyond_first_exchange_is_stitched(self):
        # Replace Transit's outbound drop with an inbound drop on Relay:
        # at IXP-B the re-entered packet defaults to Relay, whose inbound
        # policy refuses what IXP-A steered in.
        scenario = blackhole_scenario()
        federation = scenario.build_federation(with_dataplane=False)
        transit = federation.handle("IXP-B", "Transit")
        transit.remove_outbound(transit.participant.outbound_policies[0])
        federation.handle("IXP-B", "Relay").add_inbound(
            match(dstport=PORT) >> drop)
        report = analyze_federation(federation)
        payload = dict(report.by_check("SDX009")[0].data)
        assert payload["drop_reason"] == "inbound-drop"
        assert payload["drop_exchange"] == "IXP-B"
        assert payload["drop_participant"] == "Relay"


class TestSoundnessContract:
    def _make_west_dynamic(self):
        """The loop federation, with a dynamic clause ahead of West's
        steering clause at IXP-B."""
        federation = build(loop_scenario())
        def make_dynamic(west):
            west.clear_policies()
            west.add_outbound(
                (match(dstport=22)
                 & rib_match("dstip", "as_path", r".*64700$")) >> fwd("East"))
            west.add_outbound(match(dstport=PORT) >> fwd("East"))

        federation.handle("IXP-B", "West").edit(make_dynamic)
        return federation

    def test_dynamic_clause_aborts_the_walk(self):
        # A dynamic clause ahead of the steering clause makes every walk
        # through (IXP-B, West) point-wise undecidable.
        federation = self._make_west_dynamic()
        outcome, decisions = walk(
            federation, "IXP-B", "West", Packet(dstip=DSTIP, dstport=PORT))
        assert outcome is None
        assert decisions[-1].kind == "dynamic"

    def test_dynamic_clause_suppresses_the_verdict(self):
        federation = self._make_west_dynamic()
        report = analyze_federation(federation)
        # Every loop walk crosses (IXP-B, West), so no verdict survives.
        assert report.by_check("SDX008") == []

    def test_walk_matches_reference_on_clean_path(self):
        federation = build(clean_scenario())
        outcome, _decisions = walk(
            federation, "IXP-B", "Eyeball", Packet(dstip=DSTIP, dstport=PORT))
        assert outcome.kind == "delivered"
        assert outcome.via == "origin"
        assert outcome.participant == "Content"
        assert outcome.hops == (FederatedHop("IXP-B", "Eyeball"),
                                FederatedHop("IXP-A", "Transit"))

    def test_unmatched_traffic_exits_upstream(self):
        federation = build(clean_scenario())
        outcome, _decisions = walk(
            federation, "IXP-B", "Eyeball", Packet(dstip=DSTIP, dstport=443))
        # Default routing hands it to Transit; Transit carries it to
        # IXP-A where Content originates it.
        assert outcome.kind == "delivered"

    def test_packet_without_route_never_leaves_the_border(self):
        federation = build(clean_scenario())
        outcome, decisions = walk(
            federation, "IXP-B", "Eyeball",
            Packet(dstip="203.0.113.5", dstport=PORT))
        assert outcome.kind == "dropped"
        assert decisions[-1].kind == "nofib"
        assert len(outcome.hops) == 1

    def test_raw_port_forward_takes_the_real_fabrics_egress(self, monkeypatch):
        # Outbound policies cannot name a raw port, so this clause gets in
        # only past validation. The compiler gives it no prefix to match;
        # the static walk passes it over just the same.
        federation = clean_scenario().build_federation(with_dataplane=True)
        eyeball = federation.handle("IXP-B", "Eyeball")
        monkeypatch.setattr(Participant, "_validate_clauses",
                            lambda *args, **kwargs: None)
        eyeball.edit(lambda participant: participant.clear_policies())
        eyeball.add_outbound(match(dstport=PORT) >> fwd(eyeball.port(0)))
        probe = Packet(dstip=DSTIP, dstport=PORT)
        real = federation.forward("IXP-B", "Eyeball", probe)
        outcome, decisions = walk(federation, "IXP-B", "Eyeball", probe)
        assert outcome.comparable() == real.comparable()
        assert (real.via, len(real.hops)) == ("origin", 2)
        assert decisions[0].kind == "default"


#: (seed, exchanges) of the generated federations the static walk is
#: held against the reference walk on.
SWEEP = tuple((seed, 2 + seed % 2) for seed in range(8))


class TestStaticWalkMatchesReference:
    """Wherever the static walk gives a verdict, it is the reference's."""

    def test_generated_federations(self):
        walks = loops = 0
        for seed, exchanges in SWEEP:
            scenario = generate_scenario(
                seed, exchanges=exchanges, participants=6, prefixes=6,
                policies=8, steps=0)
            context = FederationContext(build(scenario))
            references = {
                exchange: ReferenceInterpreter(scenario.project(exchange))
                for exchange in scenario.exchanges}
            for exchange in scenario.exchanges:
                for spec in scenario.participants_at(exchange):
                    for packet in generate_corpus(scenario, size=12):
                        outcome, _decisions = context.walk(
                            exchange, spec.name, packet)
                        if outcome is None:
                            continue
                        naive = reference_walk(scenario, exchange, spec.name,
                                               packet, references)
                        assert outcome.comparable() == naive.comparable(), (
                            f"seed {seed} {exchange}:{spec.name} x "
                            f"{packet!r}: static {outcome.describe()} != "
                            f"reference {naive.describe()}")
                        walks += 1
                        loops += outcome.is_loop
        assert (walks, loops) == (4314, 60)


class TestAnalyzeFederation:
    def test_report_merges_member_batteries(self):
        report = analyze_federation(build(loop_scenario()))
        assert "SDX001" in report.checks_run
        assert "SDX008" in report.checks_run
        assert "SDX009" in report.checks_run
        assert report.participants_analyzed == 4  # two members, twice each

    def test_member_findings_are_exchange_tagged(self):
        report = analyze_federation(build(loop_scenario()))
        for diagnostic in report.diagnostics:
            assert "exchange" in dict(
                diagnostic.data) or diagnostic.check_id in (
                "SDX008", "SDX009")

    def test_telemetry_counters_recorded(self):
        telemetry = Telemetry()
        analyze_federation(build(loop_scenario()), telemetry=telemetry)
        snapshot = telemetry.registry.snapshot()
        assert snapshot["sdx_statics_federation_runs_total"] == 1
        assert snapshot["sdx_statics_federation_diagnostics_total"] >= 2

    def test_generated_federation_counts_are_pinned(self):
        """Diagnostics, clauses analyzed and cross-fabric walks of a
        seeded federation are work counts, fixed for the seed."""
        scenario = generate_scenario(
            11, exchanges=2, participants=6, prefixes=6, policies=8, steps=0)
        federation = scenario.build_federation(with_dataplane=True)
        report = analyze_federation(federation)
        assert (len(report.diagnostics), report.clauses_analyzed) == (2, 6)
        corpus = generate_corpus(scenario, size=8)
        walks = 0
        for exchange in scenario.exchanges:
            for spec in scenario.participants_at(exchange):
                for packet in corpus:
                    federation.forward(exchange, spec.name, packet)
                    walks += 1
        assert walks == 640
