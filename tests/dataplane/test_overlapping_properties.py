"""``FlowTable.overlapping`` and ``FlowTable.lookup`` against their
definitions.

One index query gives the buckets a match can share a packet with (or a
packet can hit); an overlap query keeps only the entries ahead of the rule
``before`` names and returns its hits in table order, and a lookup pops
the hit matches off a heap in table order and stops at the first that
matches. Whatever the shape of the table — many priority levels, rules and
matches that pin no port or no tag, rules of one level that overlap,
deletes and in-place rewrites interleaved with installs — it must answer
what a scan of ``table.rules`` answers, in the same order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.flowtable import FlowTable
from repro.net.addresses import IPv4Prefix
from repro.net.mac import MacAddress
from repro.net.packet import Packet
from repro.policy.classifier import Action
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import HeaderSpace
from repro.southbound.diff import FlowMod

PORTS = (1, 2, 3)
TAGS = (MacAddress("a2:00:00:00:00:01"), MacAddress("a2:00:00:00:00:02"))
PREFIXES = (IPv4Prefix("10.0.0.0/8"), IPv4Prefix("10.1.0.0/16"),
            IPv4Prefix("192.168.0.0/16"))


@st.composite
def matches(draw):
    fields = {}
    for name, values in (("port", PORTS), ("dstmac", TAGS),
                         ("dstip", PREFIXES), ("dstport", (80, 443))):
        if draw(st.booleans()):
            fields[name] = draw(st.sampled_from(values))
    return HeaderSpace(**fields)


#: Main-table levels, and fast-path levels above them, one per update.
LEVELS = (1, 5, 9, 1_000_001, 1_000_003, 1_000_005, 1_000_007)


@st.composite
def packets(draw):
    fields = {"port": draw(st.sampled_from(PORTS))}
    for name, values in (("dstmac", TAGS),
                         ("dstip", ("10.0.0.1", "10.1.2.3", "192.168.1.1",
                                    "11.0.0.1")),
                         ("dstport", (80, 443, 22))):
        if draw(st.booleans()):
            fields[name] = draw(st.sampled_from(values))
    return Packet(**fields)


@st.composite
def tables(draw, levels=(1, 5, 9)):
    """A table built by installs (new keys and rewrites) and deletes."""
    table = FlowTable()
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        installed = table.rules
        if installed and draw(st.integers(min_value=0, max_value=3)) == 0:
            table.apply_mod(FlowMod.delete(draw(st.sampled_from(installed))))
            continue
        table.install(FlowRule(
            priority=draw(st.sampled_from(levels)), match=draw(matches()),
            actions=(Action(port=draw(st.sampled_from(PORTS))),)))
    return table


def scanned(rules, match):
    return [rule for rule in rules if rule.match.overlaps(match)]


class TestOverlappingIsTheScan:
    @settings(max_examples=150, deadline=None)
    @given(tables(), matches())
    def test_the_whole_table(self, table, match):
        assert table.overlapping(match) == scanned(table.rules, match)

    @settings(max_examples=150, deadline=None)
    @given(tables(), matches())
    def test_ahead_of_each_installed_rule(self, table, match):
        rules = table.rules
        for index, rule in enumerate(rules):
            assert (table.overlapping(match, before=rule)
                    == scanned(rules[:index], match))


class TestManyLevelsAreTheScan:
    """Tables of many priority levels, as the fast path leaves them."""

    @settings(max_examples=150, deadline=None)
    @given(tables(LEVELS), matches())
    def test_overlapping_ahead_of_each_installed_rule(self, table, match):
        rules = table.rules
        assert table.overlapping(match) == scanned(rules, match)
        for index, rule in enumerate(rules):
            assert (table.overlapping(match, before=rule)
                    == scanned(rules[:index], match))

    @settings(max_examples=300, deadline=None)
    @given(tables(LEVELS), st.lists(packets(), min_size=1, max_size=8))
    def test_lookup_is_the_first_rule_in_table_order(self, table, probes):
        for packet in probes:
            assert table.lookup(packet) == next(
                (rule for rule in table.rules if rule.match.matches(packet)),
                None)


class TestTheWalk:
    def test_a_pinned_match_tests_only_the_rules_it_can_share(self):
        table = FlowTable()
        for port in range(1, 41):
            for tag in TAGS:
                table.install(FlowRule(7, HeaderSpace(port=port, dstmac=tag),
                                       (Action(port=port),)))
        table.install(FlowRule(1, HeaderSpace(), ()))
        before = table.overlap_tests
        found = table.overlapping(HeaderSpace(port=3, dstmac=TAGS[0],
                                              dstport=80))
        assert [rule.priority for rule in found] == [7, 1]
        assert table.overlap_tests - before == 2
        # An unpinned port meets every port's rule of the tag.
        before = table.overlap_tests
        assert len(table.overlapping(HeaderSpace(dstmac=TAGS[1]))) == 41
        assert table.overlap_tests - before == 41

    def test_before_must_be_installed(self):
        table = FlowTable()
        with pytest.raises(ValueError):
            table.overlapping(HeaderSpace(), before=FlowRule(1, HeaderSpace(),
                                                              ()))
