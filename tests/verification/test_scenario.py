"""Scenario generation: determinism, serialisation, topology alignment."""

import pytest

from repro.verification.corpus import generate_corpus
from repro.verification.reference import ReferenceInterpreter
from repro.verification.scenario import Scenario, generate_scenario


class TestGeneration:
    def test_same_seed_same_scenario(self):
        assert generate_scenario(7, steps=10) == generate_scenario(7, steps=10)

    def test_different_seeds_differ(self):
        assert generate_scenario(7, steps=10) != generate_scenario(8, steps=10)

    def test_requested_shape(self):
        scenario = generate_scenario(
            1, participants=5, prefixes=3, policies=4, steps=9)
        assert len(scenario.participants) == 5
        assert len(scenario.prefixes) == 3
        assert len(scenario.policies) == 4
        assert len(scenario.trace) == 9

    def test_every_prefix_has_an_owner(self):
        scenario = generate_scenario(2, steps=5)
        announced = {announcement.prefix
                     for announcement in scenario.announcements}
        assert announced == set(scenario.prefixes)

    def test_trace_touches_only_known_announcers(self):
        scenario = generate_scenario(3, steps=15)
        announcers = {(a.participant, a.prefix)
                      for a in scenario.announcements}
        for step in scenario.trace:
            assert (step.participant, step.prefix) in announcers

    def test_rejects_degenerate_exchange(self):
        with pytest.raises(ValueError):
            generate_scenario(0, participants=1)


class TestSerialisation:
    def test_json_round_trip_exact(self):
        scenario = generate_scenario(11, steps=12)
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_json_is_deterministic(self):
        assert (generate_scenario(11, steps=12).to_json()
                == generate_scenario(11, steps=12).to_json())

    def test_version_checked(self):
        payload = generate_scenario(0, steps=2).to_dict()
        payload["version"] = 999
        with pytest.raises(ValueError):
            Scenario.from_dict(payload)


class TestTopologyAlignment:
    def test_derived_facts_match_real_controller(self):
        """The scenario's independently derived ports and peering-LAN IPs
        must agree with what SdxController actually allocates — this is
        what entitles the reference interpreter to skip the controller."""
        scenario = generate_scenario(4, participants=5, steps=4)
        controller = scenario.build_controller()
        assert ReferenceInterpreter(scenario).verify_alignment(
            controller) is None

    def test_step_updates_are_value_identical(self):
        scenario = generate_scenario(5, steps=8)
        for step in scenario.trace:
            assert scenario.step_update(step) == scenario.step_update(step)


class TestCorpus:
    def test_corpus_deterministic(self):
        scenario = generate_scenario(6, steps=4)
        first = [repr(packet) for packet in generate_corpus(scenario)]
        second = [repr(packet) for packet in generate_corpus(scenario)]
        assert first == second

    def test_corpus_covers_every_prefix(self):
        scenario = generate_scenario(6, steps=4)
        from repro.net.addresses import IPv4Prefix
        for text in scenario.prefixes:
            prefix = IPv4Prefix(text)
            assert any(prefix.contains_address(packet["dstip"])
                       for packet in generate_corpus(scenario))
