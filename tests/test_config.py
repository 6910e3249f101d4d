"""Tests for the JSON configuration round trip."""

import json

import pytest
from hypothesis import given, settings

from repro.config import (
    CONFIG_VERSION,
    ConfigError,
    clause_to_json,
    clause_to_policy,
    controller_from_config,
    export_config,
    load_config,
    predicate_from_json,
    predicate_to_json,
    save_config,
)
from repro.core.clauses import normalize_policy
from repro.net.addresses import IPv4Prefix
from repro.policy.policies import drop, fwd, match, modify
from repro.policy.predicates import match_any

from tests.core.scenarios import figure1_controller, packet
from tests.policy.strategies import packets, predicates


class TestPredicateRoundTrip:
    @pytest.mark.parametrize("predicate", [
        match(dstport=80),
        match(dstip="10.0.0.0/8", protocol=6),
        match(dstport=80) & ~match(srcport=22),
        match(dstport=80) | match(dstport=443),
        match_any("dstip", [IPv4Prefix("10.0.0.0/8"),
                            IPv4Prefix("20.0.0.0/8")]),
        match_any("dstport", [80, 443, 8080]),
    ])
    def test_examples_round_trip(self, predicate):
        rebuilt = predicate_from_json(predicate_to_json(predicate))
        probe = packet("10.1.2.3", dstport=80, srcip="20.0.0.1")
        assert rebuilt.holds(probe) == predicate.holds(probe)

    @settings(max_examples=80, deadline=None)
    @given(predicates(max_depth=4), packets())
    def test_round_trip_property(self, predicate, pkt):
        document = predicate_to_json(predicate)
        json.dumps(document)  # must be JSON-safe
        rebuilt = predicate_from_json(document)
        assert rebuilt.holds(pkt) == predicate.holds(pkt)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            predicate_from_json({"kind": "xor"})

    def test_set_kinds_keep_their_documents(self):
        """One field-in-set predicate, two document kinds: a prefix set
        is ``any_prefix``, a value set ``any_value``, byte for byte."""
        prefixes = {"kind": "any_prefix", "field": "dstip",
                    "prefixes": ["10.1.0.0/16", "10.0.0.0/8"]}
        values = {"kind": "any_value", "field": "dstport",
                  "values": ["80", "443"]}
        for document in (prefixes, values):
            assert predicate_to_json(predicate_from_json(document)) == document

    @pytest.mark.parametrize("document", [
        {"kind": "any_prefix", "field": "dstport", "prefixes": ["10.0.0.0/8"]},
        {"kind": "any_value", "field": "dstip", "values": ["10.0.0.1"]},
    ])
    def test_a_set_kind_on_the_wrong_field_is_rejected(self, document):
        from repro.exceptions import PolicyError
        with pytest.raises(PolicyError):
            predicate_from_json(document)


class TestClauseRoundTrip:
    @pytest.mark.parametrize("policy", [
        match(dstport=80) >> fwd("B"),
        match(dstip="74.125.1.1") >> modify(dstip="54.0.0.9") >> fwd("B"),
        match(srcip="6.0.0.0/8") >> drop,
    ])
    def test_examples(self, policy):
        clause = normalize_policy(policy)[0]
        rebuilt = clause_to_policy(clause_to_json(clause))
        rebuilt_clause = normalize_policy(rebuilt)[0]
        assert rebuilt_clause.target == clause.target
        assert rebuilt_clause.drops == clause.drops
        assert dict(rebuilt_clause.modifications).keys() == \
            dict(clause.modifications).keys()

    def test_integer_target_survives(self):
        clause = normalize_policy(match(srcip="0.0.0.0/1") >> fwd(7))[0]
        document = clause_to_json(clause)
        assert document["fwd"] == 7
        rebuilt = normalize_policy(clause_to_policy(document))[0]
        assert rebuilt.target == 7


class TestControllerRoundTrip:
    def test_full_round_trip_preserves_forwarding(self, tmp_path):
        original, *_ = figure1_controller()
        original.register_ownership(IPv4Prefix("74.125.0.0/16"), "A")
        original.start()
        path = tmp_path / "sdx.json"
        save_config(original, path)

        clone = load_config(path)
        clone.start()

        for dstip in ("11.0.0.1", "12.0.0.1", "13.0.0.1", "14.0.0.1",
                      "15.0.0.1"):
            for dstport in (80, 443, 22):
                for srcip in ("10.0.0.1", "200.0.0.1"):
                    probe = packet(dstip, dstport=dstport, srcip=srcip)
                    for sender in ("A", "B", "C", "E"):
                        assert (clone.egress_of(sender, probe)
                                == original.egress_of(sender, probe))

    def test_round_trip_is_stable(self, tmp_path):
        original, *_ = figure1_controller()
        original.start()
        first = export_config(original)
        clone = controller_from_config(first)
        second = export_config(clone)
        assert first == second

    def test_remote_participant_and_ownership_survive(self):
        sdx, *_ = figure1_controller()
        remote = sdx.add_participant("D", 65099, ports=0)
        sdx.register_ownership(IPv4Prefix("74.125.1.0/24"), "D")
        remote.participant.add_inbound(
            match(dstip="74.125.1.1") >> modify(dstip="11.0.0.9") >> fwd("C"))
        sdx.start()
        remote.announce(IPv4Prefix("74.125.1.0/24"))

        clone = controller_from_config(export_config(sdx))
        clone.start()
        participant = clone.topology.participant("D")
        assert participant.is_remote
        assert clone.ownership.owner_of(IPv4Prefix("74.125.1.0/24")) == "D"
        probe = packet("74.125.1.1", srcip="10.0.0.2")
        assert clone.egress_of("A", probe) == "C"

    def test_export_policy_survives(self):
        sdx, *_ = figure1_controller(with_policies=False)
        sdx.route_server.set_export_policy("B", deny={"A"})
        sdx.start()
        clone = controller_from_config(export_config(sdx))
        assert clone.route_server.export_policy("B") == (("A",), None)

    def test_communities_survive(self):
        from repro.bgp.asn import AsPath
        sdx, *_ = figure1_controller(with_policies=False)
        sdx.announce_route("B", IPv4Prefix("16.0.0.0/8"),
                           AsPath([65002, 5]), communities={(0, 65001)})
        clone = controller_from_config(export_config(sdx))
        assert not clone.route_server.is_reachable(
            "A", IPv4Prefix("16.0.0.0/8"), via="B")

    def test_version_checked(self):
        with pytest.raises(ConfigError):
            controller_from_config({"version": 99})

    def test_bad_direction_rejected(self):
        document = {
            "version": CONFIG_VERSION,
            "participants": [{"name": "A", "asn": 65001, "ports": 1}],
            "routes": [], "ownership": [],
            "policies": [{"participant": "A", "direction": "sideways",
                          "clause": {"match": {"kind": "true"}}}],
        }
        with pytest.raises(ConfigError):
            controller_from_config(document)

    def test_config_is_plain_json(self, tmp_path):
        sdx, *_ = figure1_controller()
        sdx.start()
        path = tmp_path / "sdx.json"
        save_config(sdx, path)
        document = json.loads(path.read_text())
        assert document["version"] == CONFIG_VERSION
        assert len(document["participants"]) == 4
