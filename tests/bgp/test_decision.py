"""Tests for the BGP decision process: preference ordering and determinism."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.asn import AsPath
from repro.bgp.attributes import Origin, RouteAttributes
from repro.bgp.decision import preference_key, rank_routes
from repro.bgp.rib import RouteEntry
from repro.net.addresses import IPv4Address, IPv4Prefix
from tests.bgp.reference import best_route

PREFIX = IPv4Prefix("10.0.0.0/8")


def make_entry(learned_from="A", path=(65001,), local_pref=100, med=0,
               origin=Origin.IGP, next_hop="172.0.0.1"):
    return RouteEntry(
        prefix=PREFIX,
        attributes=RouteAttributes(
            next_hop=IPv4Address(next_hop), as_path=AsPath(path),
            origin=origin, med=med, local_pref=local_pref),
        learned_from=learned_from)


entry_strategy = st.builds(
    make_entry,
    learned_from=st.sampled_from(["A", "B", "C", "D"]),
    path=st.lists(st.integers(min_value=1, max_value=9999), min_size=1, max_size=5).map(tuple),
    local_pref=st.sampled_from([50, 100, 200]),
    med=st.sampled_from([0, 10, 20]),
    origin=st.sampled_from(list(Origin)),
    next_hop=st.sampled_from(["172.0.0.1", "172.0.0.2", "172.0.0.3"]),
)


class TestBestRoute:
    def test_empty_candidates(self):
        assert best_route([]) is None

    def test_single_candidate(self):
        entry = make_entry()
        assert best_route([entry]) is entry

    def test_local_pref_dominates_path_length(self):
        long_preferred = make_entry("A", path=(1, 2, 3, 4), local_pref=200)
        short = make_entry("B", path=(1,), local_pref=100)
        assert best_route([short, long_preferred]) is long_preferred

    def test_shorter_path_wins(self):
        short = make_entry("A", path=(1,))
        long = make_entry("B", path=(1, 2))
        assert best_route([long, short]) is short

    def test_prepending_deprioritises(self):
        """AS-path prepending (Section 1) makes a route less preferred."""
        plain = make_entry("A", path=(65001,))
        prepended = make_entry("B", path=(65002, 65002, 65002))
        assert best_route([plain, prepended]) is plain

    def test_origin_breaks_tie(self):
        igp = make_entry("A", origin=Origin.IGP)
        incomplete = make_entry("B", origin=Origin.INCOMPLETE)
        assert best_route([incomplete, igp]) is igp

    def test_med_breaks_tie(self):
        low = make_entry("A", med=0)
        high = make_entry("B", med=50)
        assert best_route([high, low]) is low

    def test_next_hop_breaks_tie(self):
        low = make_entry("A", next_hop="172.0.0.1")
        high = make_entry("B", next_hop="172.0.0.2")
        assert best_route([high, low]) is low

    def test_peer_name_is_final_tiebreak(self):
        first = make_entry("A")
        second = make_entry("B")
        assert best_route([second, first]) is first

    @settings(max_examples=80, deadline=None)
    @given(st.lists(entry_strategy, min_size=1, max_size=8))
    def test_order_independent_property(self, entries):
        forward = best_route(entries)
        backward = best_route(list(reversed(entries)))
        assert preference_key(forward) == preference_key(backward)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(entry_strategy, min_size=1, max_size=8))
    def test_best_is_rank_head_property(self, entries):
        ranked = rank_routes(entries)
        assert preference_key(ranked[0]) == preference_key(best_route(entries))
        keys = [preference_key(entry) for entry in ranked]
        assert keys == sorted(keys)
