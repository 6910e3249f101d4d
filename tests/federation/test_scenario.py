"""Tests for multi-exchange scenario generation, projection and round-trips."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import IPv4Prefix
from repro.verification.corpus import generate_corpus
from repro.verification.scenario import Scenario, generate_scenario

from tests.federation.scenarios import clean_scenario, loop_scenario

#: The per-exchange state a projection restricts.
ITEMS = ("announcements", "policies", "trace")


class TestGeneration:
    def test_same_seed_same_scenario(self):
        first = generate_scenario(7, exchanges=3, participants=8)
        second = generate_scenario(7, exchanges=3, participants=8)
        assert first == second

    def test_different_seeds_diverge(self):
        assert (generate_scenario(7, exchanges=2)
                != generate_scenario(8, exchanges=2))

    def test_every_exchange_has_members(self):
        scenario = generate_scenario(5, exchanges=3, participants=9)
        for exchange in scenario.exchanges:
            assert scenario.participants_at(exchange)

    def test_shared_participants_attend_several_exchanges(self):
        scenario = generate_scenario(
            5, exchanges=3, participants=9, shared=2)
        shared = [spec for spec in scenario.participants
                  if len(spec.exchanges) > 1]
        assert len(shared) == 2

    def test_owners_announce_everywhere_they_peer(self):
        scenario = generate_scenario(9, exchanges=2, participants=6)
        announced = {(a.exchange, a.participant, a.prefix)
                     for a in scenario.announcements}
        for prefix, owner in scenario.owners:
            for exchange in scenario.presence(owner):
                assert (exchange, owner, prefix) in announced

    def test_single_exchange_request_has_no_shared_members(self):
        scenario = generate_scenario(5, exchanges=1, participants=4)
        assert scenario.exchanges == ("IXP-A",)
        assert scenario.owners == ()
        assert all(len(spec.exchanges) == 1 for spec in scenario.participants)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            generate_scenario(1, exchanges=0)
        with pytest.raises(ValueError):
            generate_scenario(1, exchanges=4, participants=2)

    @pytest.mark.parametrize("seed", [0, 11, 23])
    def test_federation_spreads_the_one_exchange_draw(self, seed):
        """Only federation choices come from the federation's stream:
        members, prefixes and the trace are the one-exchange draw's, every
        base route is announced at its announcer's preferred exchange, and
        the policies are the one-exchange policies that found a home."""
        single = generate_scenario(seed, participants=6, steps=8)
        federated = generate_scenario(seed, exchanges=3, participants=6,
                                      steps=8)
        here = "IXP-A"
        assert [replace(spec, exchanges=(here,))
                for spec in federated.participants] == list(
                    single.participants)
        assert federated.prefixes == single.prefixes
        assert [replace(step, exchange=here) for step in federated.trace] == (
            list(single.trace))
        preferred = {(federated.presence(item.participant)[0], item)
                     for item in single.announcements}
        assert preferred <= {(item.exchange, replace(item, exchange=here))
                             for item in federated.announcements}
        policies = iter(single.policies)
        assert all(replace(policy, exchange=here) in policies
                   for policy in federated.policies)


class TestSerialisation:
    def test_json_round_trip_is_exact(self):
        scenario = generate_scenario(
            11, exchanges=3, participants=8, steps=6)
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_hand_built_scenarios_round_trip(self):
        for scenario in (loop_scenario(), clean_scenario()):
            assert Scenario.from_json(scenario.to_json()) == scenario

    def test_json_is_deterministic(self):
        scenario = generate_scenario(11, exchanges=2)
        assert scenario.to_json() == scenario.to_json()

    def test_unsupported_version_rejected(self):
        payload = generate_scenario(11, exchanges=2).to_dict()
        payload["version"] = 999
        with pytest.raises(ValueError):
            Scenario.from_dict(payload)

    def test_federation_keys_only_off_their_defaults(self):
        single = json.loads(generate_scenario(3, steps=4).to_json())
        assert not {"exchanges", "owners"} & set(single)
        for name in ITEMS:
            assert all("exchange" not in item for item in single[name])
        assert all("exchanges" not in spec
                   for spec in single["participants"])

        scenario = generate_scenario(3, exchanges=2, steps=4)
        federated = json.loads(scenario.to_json())
        assert federated["exchanges"] == ["IXP-A", "IXP-B"]
        assert federated["owners"]
        for spec, payload in zip(scenario.participants,
                                 federated["participants"]):
            assert ("exchanges" in payload) == (spec.exchanges != ("IXP-A",))


class TestProjection:
    def test_projection_keeps_registration_order(self):
        scenario = generate_scenario(13, exchanges=2, participants=7)
        for exchange in scenario.exchanges:
            projection = scenario.project(exchange)
            expected = [spec.name
                        for spec in scenario.participants_at(exchange)]
            assert [p.name for p in projection.participants] == expected

    def test_projection_restricts_state_to_the_exchange(self):
        scenario = loop_scenario()
        projection = scenario.project("IXP-A")
        assert [a.participant for a in projection.announcements] == ["West"]
        assert [p.participant for p in projection.policies] == ["East"]

    def test_projection_rejects_unknown_exchange(self):
        with pytest.raises(KeyError):
            loop_scenario().project("IXP-Z")
        with pytest.raises(KeyError):
            generate_scenario(3, steps=2).project("IXP-B")

    def test_projection_ports_match_controller_registration(self):
        scenario = generate_scenario(17, exchanges=2, participants=6)
        federation = scenario.build_federation(with_dataplane=False)
        for exchange in scenario.exchanges:
            projection = scenario.project(exchange)
            member = federation.exchange(exchange)
            for spec in projection.participants:
                handle = member.participant(spec.name)
                assert len(handle.participant.router.ports) == spec.ports


class TestProjectProperties:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_one_exchange_projection_is_the_identity(self, seed):
        scenario = generate_scenario(seed, steps=6)
        assert scenario.project("IXP-A") is scenario

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           exchanges=st.integers(min_value=2, max_value=4))
    def test_projections_partition_the_state(self, seed, exchanges):
        """Each item lands in exactly one projection, and each projection
        keeps the scenario's registration order."""
        scenario = generate_scenario(seed, exchanges=exchanges,
                                     participants=6, steps=8)
        projections = [scenario.project(exchange)
                       for exchange in scenario.exchanges]
        for name in ITEMS:
            items = getattr(scenario, name)
            assert {item.exchange for item in items} <= set(
                scenario.exchanges)
            for projection in projections:
                (exchange,) = projection.exchanges
                assert getattr(projection, name) == tuple(
                    item for item in items if item.exchange == exchange)
            assert sum(len(getattr(projection, name))
                       for projection in projections) == len(items)


class TestCorpus:
    def test_corpus_is_deterministic(self):
        scenario = generate_scenario(19, exchanges=2, participants=6)
        assert (generate_corpus(scenario, size=8)
                == generate_corpus(scenario, size=8))

    def test_corpus_probes_every_exchange_prefix(self):
        scenario = generate_scenario(19, exchanges=3, participants=6)
        corpus = generate_corpus(scenario, size=6)
        for text in scenario.prefixes:
            prefix = IPv4Prefix(text)
            assert any(prefix.contains_address(packet["dstip"])
                       for packet in corpus)
