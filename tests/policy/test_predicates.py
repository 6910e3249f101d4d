"""Tests for the field-in-set predicate of the SDX guards: prefix sets
(BGP reachability filters) and value sets (ingress ports, VMAC tags)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PolicyError
from repro.net.addresses import IPv4Prefix
from repro.net.packet import Packet
from repro.policy.policies import drop, fwd
from repro.policy.predicates import MatchAny, match_any

from tests.policy.strategies import clustered_prefixes, packets


class TestMatchAnyPrefix:
    def test_holds_for_member_prefix(self):
        pred = match_any("dstip", [IPv4Prefix("10.0.0.0/8"), IPv4Prefix("192.168.0.0/16")])
        assert pred.holds(Packet(dstip="10.5.5.5"))
        assert pred.holds(Packet(dstip="192.168.1.1"))
        assert not pred.holds(Packet(dstip="172.16.0.1"))

    def test_missing_field_fails(self):
        pred = match_any("dstip", [IPv4Prefix("10.0.0.0/8")])
        assert not pred.holds(Packet(port=1))

    def test_empty_set_is_false(self):
        assert match_any("dstip", []) is drop

    def test_rejects_non_ip_field(self):
        with pytest.raises(PolicyError):
            MatchAny("dstport", [IPv4Prefix("10.0.0.0/8")])

    def test_compiles_to_linear_rules(self):
        prefixes = [IPv4Prefix(network=i << 24, length=8) for i in range(10)]
        classifier = MatchAny("dstip", prefixes).compile()
        assert len(classifier) == 11  # one per prefix + catch-all drop

    def test_deduplicates_prefixes(self):
        pred = MatchAny("dstip", [IPv4Prefix("10.0.0.0/8")] * 3)
        assert len(pred.values) == 1

    def test_nested_prefixes_sorted_longest_first(self):
        pred = MatchAny("dstip", [IPv4Prefix("10.0.0.0/8"), IPv4Prefix("10.1.0.0/16")])
        assert pred.values[0].length == 16

    def test_used_in_policy_composition(self):
        policy = match_any("dstip", [IPv4Prefix("10.0.0.0/8")]) >> fwd(2)
        packet = Packet(port=1, dstip="10.0.0.1")
        assert policy.eval(packet) == {packet.at_port(2)}
        assert policy.compile().eval(packet) == {packet.at_port(2)}

    @settings(max_examples=80, deadline=None)
    @given(st.lists(clustered_prefixes, max_size=6), packets())
    def test_compile_matches_eval_property(self, prefixes, packet):
        pred = match_any("dstip", prefixes)
        assert pred.compile().eval(packet) == pred.eval(packet)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(clustered_prefixes, min_size=1, max_size=6), packets())
    def test_equivalent_to_disjunction_property(self, prefixes, packet):
        from repro.policy.policies import Disjunction, match
        pred = match_any("dstip", prefixes)
        naive = Disjunction(tuple(match(dstip=p) for p in prefixes))
        assert pred.holds(packet) == naive.holds(packet)


class TestMatchAny:
    """One predicate for both kinds of set, most specific first."""

    def test_value_set_holds_for_members_only(self):
        pred = match_any("dstport", [443, 80, 80])
        assert isinstance(pred, MatchAny)
        assert pred.values == (80, 443)
        assert pred.holds(Packet(dstport=443))
        assert not pred.holds(Packet(dstport=22))
        assert not pred.holds(Packet(port=1))

    def test_single_value_is_a_plain_match(self):
        from repro.policy.policies import Match
        single = match_any("port", [3, 3])
        assert type(single) is Match and dict(single.space) == {"port": 3}

    def test_single_prefix_stays_a_set(self):
        pred = match_any("dstip", [IPv4Prefix("10.0.0.0/8")])
        assert isinstance(pred, MatchAny)

    def test_rejects_a_value_the_field_cannot_hold(self):
        with pytest.raises(PolicyError):
            match_any("dstport", ["10.0.0.0/8"])

    def test_prefixes_order_longest_first_then_by_network(self):
        pred = match_any("dstip", ["10.0.0.0/8", "9.0.0.0/8", "10.1.0.0/16"])
        assert [str(p) for p in pred.values] == [
            "10.1.0.0/16", "9.0.0.0/8", "10.0.0.0/8"]
