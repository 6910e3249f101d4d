"""Cross-validation of analyzer verdicts against the reference interpreter."""

import pytest

from repro.net.packet import Packet
from repro.verification.kernel import Case, replay
from repro.verification.reference import ReferenceInterpreter
from repro.verification.scenario import (
    Scenario,
    ScenarioAnnouncement,
    ScenarioParticipant,
    ScenarioPolicy,
    generate_scenario,
)
from repro.verification.statics import StaticsWitnesses


def hand_scenario():
    """Two members; A forwards web traffic to B, who announces 20/8."""
    return Scenario(
        seed=0,
        participants=(
            ScenarioParticipant("A", 65001, 1),
            ScenarioParticipant("B", 65002, 1),
        ),
        prefixes=("20.0.0.0/8",),
        announcements=(
            ScenarioAnnouncement("B", "20.0.0.0/8", (65002, 100)),
        ),
        policies=(
            ScenarioPolicy(participant="A", direction="out",
                           field="dstport", value=80, target="B"),
        ),
        trace=())


class TestWinningOutboundClause:
    def reference(self):
        return ReferenceInterpreter(hand_scenario())

    def test_policy_clause_wins_matching_traffic(self):
        packet = Packet(dstip="20.1.2.3", dstport=80, protocol=6)
        assert self.reference().winning_outbound_clause("A", packet) == 0

    def test_default_route_traffic_maps_to_none(self):
        packet = Packet(dstip="20.1.2.3", dstport=443, protocol=6)
        assert self.reference().winning_outbound_clause("A", packet) is None

    def test_uncovered_destination_maps_to_none(self):
        packet = Packet(dstip="99.1.2.3", dstport=80, protocol=6)
        assert self.reference().winning_outbound_clause("A", packet) is None

    def test_missing_dstip_maps_to_none(self):
        packet = Packet(dstport=80, protocol=6)
        assert self.reference().winning_outbound_clause("A", packet) is None


class TestStaticsCrosscheck:
    def test_hand_scenario_holds(self):
        assert replay(Case(hand_scenario()), [StaticsWitnesses()]) is None

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_generated_scenarios_hold(self, seed):
        scenario = generate_scenario(
            seed, participants=4, prefixes=4, policies=5, steps=6)
        assert replay(Case(scenario, corpus_size=8),
                      [StaticsWitnesses()]) is None
