"""``MatchIndex`` against its definition: a scan of the matches it holds.

Whatever is filed and unfiled, in whatever order — matches that pin the
tag, the port, ``dstip`` prefixes of several lengths nesting both ways,
or none of them — the index must answer what a scan answers, and what it
forgets must leave no bucket and no prefix reference behind.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import IPv4Prefix
from repro.net.mac import MacAddress
from repro.net.packet import Packet
from repro.policy.headerspace import HeaderSpace
from repro.policy.matchindex import MatchIndex, packet_pins

TAGS = (MacAddress("a2:00:00:00:00:01"), MacAddress("a2:00:00:00:00:02"))
PREFIXES = tuple(IPv4Prefix(text) for text in (
    "0.0.0.0/0", "10.0.0.0/7", "10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16",
    "10.1.2.0/24", "10.1.2.3/32", "192.168.0.0/16"))
ADDRESSES = ("10.0.0.1", "10.1.2.3", "10.1.9.9", "11.0.0.1", "192.168.4.4",
             "8.8.8.8")


def filing(index):
    """What ``index`` files: (tag, port) -> its buckets' prefixes
    (``None``: the bucket of matches pinning none), asserting on the way
    that no bucket or filing level is empty and that each length's sorted
    networks are exactly its buckets'."""
    filed = {}
    for tag, ports in index._tags.items():
        assert ports
        for port, node in ports.items():
            prefixes = [None] if node else []
            for length, (buckets, order) in (node.lengths or {}).items():
                assert buckets and order == sorted(buckets)
                assert all(buckets.values())
                prefixes.extend((length, network) for network in order)
            assert prefixes
            filed[tag, port] = prefixes
    return filed


@st.composite
def matches(draw):
    fields = {}
    for name, values in (("port", (1, 2)), ("dstmac", TAGS),
                         ("dstip", PREFIXES), ("dstport", (80, 443))):
        if draw(st.booleans()):
            fields[name] = draw(st.sampled_from(values))
    return HeaderSpace(**fields)


@st.composite
def packets(draw):
    fields = {"dstip": draw(st.sampled_from(ADDRESSES))}
    for name, values in (("port", (1, 2, 3)), ("dstmac", TAGS),
                         ("dstport", (80, 443))):
        if draw(st.booleans()):
            fields[name] = draw(st.sampled_from(values))
    return Packet(**fields)


@st.composite
def filed(draw):
    """An index built by adds, re-adds and pops, and the dict it must
    agree with."""
    index, model = MatchIndex(), {}
    for step in range(draw(st.integers(min_value=0, max_value=30))):
        if model and draw(st.integers(min_value=0, max_value=2)) == 0:
            match = draw(st.sampled_from(sorted(model, key=repr)))
            assert index.pop(match) == model.pop(match)
            continue
        match = draw(matches())
        index.add(match, step)
        model[match] = step
    return index, model


class TestTheIndexIsTheScan:
    @settings(max_examples=200, deadline=None)
    @given(filed(), matches())
    def test_overlapping_covers_and_get(self, built, match):
        index, model = built
        assert sorted(index.overlapping(match), key=repr) == sorted(
            ((other, payload) for other, payload in model.items()
             if other.overlaps(match)), key=repr)
        assert index.covers(match) == any(
            other.covers(match) for other in model)
        assert index.get(match) == model.get(match)
        assert list(index.values()) == list(model.values())
        assert len(index) == len(model)

    @settings(max_examples=200, deadline=None)
    @given(filed(), packets())
    def test_hit_by(self, built, packet):
        index, model = built
        candidates = [match for bucket in index.hit_by(packet_pins(packet))
                      for match in bucket]
        assert len(candidates) == len(set(candidates))
        assert {match for match in candidates if match.matches(packet)} == {
            match for match in model if match.matches(packet)}

    @settings(max_examples=100, deadline=None)
    @given(filed())
    def test_unfiling_everything_forgets_everything(self, built):
        index, model = built
        for match in list(model)[::-1]:
            index.pop(match)
        assert len(index) == 0 and index._tags == {} and filing(index) == {}


class TestFiling:
    def test_prefixes_that_nest_both_ways_come_and_go(self):
        """Longer prefixes filed before the shorter ones around them and
        after, then unfiled in either order, beside one that stays."""
        kept = HeaderSpace(port=1, dstip="10.0.0.0/8")
        churned = [HeaderSpace(port=1, dstip=str(prefix)) for prefix in
                   PREFIXES if prefix != kept["dstip"]]
        for order in (churned, churned[::-1]):
            for unfiled in (order, order[::-1]):
                index = MatchIndex()
                index.add(kept, "kept")
                for match in order:
                    index.add(match, "churned")
                assert len(filing(index)[None, 1]) == len(PREFIXES)
                for match in unfiled:
                    assert index.pop(match) == "churned"
                assert filing(index) == {(None, 1): [(8, 0x0A000000)]}
                assert index.pop(kept) == "kept" and filing(index) == {}
                assert index.pop(kept) is None

    def test_a_port_less_match_meets_only_its_tags_ports(self):
        index = MatchIndex()
        for port in range(1, 101):
            index.add(HeaderSpace(port=port, dstmac=TAGS[0]), port)
        index.add(HeaderSpace(port=1, dstmac=TAGS[1]), 0)
        assert len(index.meeting(HeaderSpace(dstmac=TAGS[1]))) == 1
        assert len(index.meeting(HeaderSpace(port=7, dstmac=TAGS[0]))) == 1

    def test_a_re_add_replaces_the_payload_in_place(self):
        index = MatchIndex()
        first, second = HeaderSpace(port=1), HeaderSpace(port=2)
        index.add(first, 1)
        index.add(second, 2)
        index.add(first, 3)
        assert list(index.values()) == [3, 2]
        assert index.meeting(first) == [{first: 3}]
        assert index.pop(first) == 3 and index.pop(first) is None
