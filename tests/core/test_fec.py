"""Tests for forwarding-equivalence-class computation (MDS).

The hypothesis properties assert the paper's definition directly: the
result is a partition of the union, every input set is a union of whole
groups, and groups are maximal (two prefixes with identical membership
are never split).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.asn import AsPath
from repro.bgp.attributes import RouteAttributes
from repro.bgp.routeserver import RouteServer
from repro.core.fec import (
    compute_prefix_groups,
    groups_for_context,
    minimum_disjoint_subsets,
)
from repro.core.participant import Participant
from repro.dataplane.router import BorderRouter, RouterPort
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.mac import MacAddress
from repro.policy.policies import fwd, match

# A small universe of prefixes so random sets overlap meaningfully.
UNIVERSE = [IPv4Prefix(network=i << 24, length=8) for i in range(1, 17)]
prefix_sets = st.sets(st.sampled_from(UNIVERSE), max_size=8)


class TestMinimumDisjointSubsets:
    def test_paper_worked_example(self):
        """Section 4.2: C = {{p1,p2,p3},{p1,p2,p3,p4},{p1,p2,p4},{p3}} gives
        C' = {{p1,p2},{p3},{p4}}."""
        p1, p2, p3, p4 = UNIVERSE[:4]
        groups = minimum_disjoint_subsets([
            {p1, p2, p3},
            {p1, p2, p3, p4},
            {p1, p2, p4},
            {p3},
        ])
        assert sorted(groups, key=lambda g: sorted(g)) == sorted(
            [frozenset({p1, p2}), frozenset({p3}), frozenset({p4})],
            key=lambda g: sorted(g))

    def test_empty_collection(self):
        assert minimum_disjoint_subsets([]) == []

    def test_identical_sets_collapse(self):
        p1, p2 = UNIVERSE[:2]
        groups = minimum_disjoint_subsets([{p1, p2}, {p1, p2}])
        assert groups == [frozenset({p1, p2})]

    def test_disjoint_sets_stay_separate(self):
        p1, p2 = UNIVERSE[:2]
        groups = minimum_disjoint_subsets([{p1}, {p2}])
        assert sorted(groups, key=sorted) == [frozenset({p1}), frozenset({p2})]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(prefix_sets, max_size=6))
    def test_partition_property(self, sets):
        groups = minimum_disjoint_subsets(sets)
        union = set().union(*sets) if sets else set()
        # Covers the union exactly.
        assert set().union(*groups) if groups else set() == union
        # Pairwise disjoint.
        seen = set()
        for group in groups:
            assert not (group & seen)
            seen |= group

    @settings(max_examples=100, deadline=None)
    @given(st.lists(prefix_sets, max_size=6))
    def test_each_input_is_union_of_groups_property(self, sets):
        groups = minimum_disjoint_subsets(sets)
        for prefix_set in sets:
            for group in groups:
                overlap = group & prefix_set
                assert not overlap or overlap == group

    @settings(max_examples=100, deadline=None)
    @given(st.lists(prefix_sets, max_size=6))
    def test_maximality_property(self, sets):
        """Two prefixes in every same set must share a group."""
        groups = minimum_disjoint_subsets(sets)
        index = {}
        for number, group in enumerate(groups):
            for prefix in group:
                index[prefix] = number
        union = list(index)
        for left in union:
            for right in union:
                same_membership = all(
                    (left in s) == (right in s) for s in sets)
                if same_membership:
                    assert index[left] == index[right]


def make_participant(name, asn, port, policies=()):
    router = BorderRouter(name, asn, [
        RouterPort(mac=MacAddress(0x020000000000 + port),
                   ip=IPv4Address("172.0.0.1") + port, switch_port=port)])
    participant = Participant(name=name, asn=asn, router=router)
    for policy in policies:
        participant.add_outbound(policy)
    return participant


def announce(server, who, prefix_text, path):
    server.announce(who, IPv4Prefix(prefix_text), RouteAttributes(
        next_hop=IPv4Address("172.0.0.99"), as_path=AsPath(path)))


class TestComputePrefixGroups:
    def make_scene(self):
        server = RouteServer()
        for name, asn in [("A", 65001), ("B", 65002), ("C", 65003), ("E", 65005)]:
            server.add_peer(name, asn)
        # Figure 1b: B exports p1..p3, C exports p1..p4; p5 is announced by
        # E, which no policy targets, so p5 keeps its default behaviour.
        for prefix in ("11.0.0.0/8", "12.0.0.0/8", "13.0.0.0/8"):
            announce(server, "B", prefix, [65002, 100])
        for prefix in ("11.0.0.0/8", "12.0.0.0/8", "13.0.0.0/8", "14.0.0.0/8"):
            announce(server, "C", prefix, [65003, 200, 100])
        announce(server, "E", "15.0.0.0/8", [65005, 300])
        participants = [
            make_participant("A", 65001, 1, policies=[
                (match(dstport=80) >> fwd("B")) + (match(dstport=443) >> fwd("C"))]),
            make_participant("B", 65002, 2),
            make_participant("C", 65003, 3),
            make_participant("E", 65005, 4),
        ]
        return server, participants

    def test_contexts_derived_from_policies(self):
        server, participants = self.make_scene()
        groups = compute_prefix_groups(participants, server)
        assert set().union(*(g.contexts for g in groups)) == {
            ("A", "B"), ("A", "C")}
        for context, eligible in ((("A", "B"), 3), (("A", "C"), 4)):
            assert sum(map(len, groups_for_context(groups, context))) == eligible

    def test_untouched_prefix_excluded(self):
        server, participants = self.make_scene()
        groups = compute_prefix_groups(participants, server)
        grouped = set().union(*(group.prefixes for group in groups))
        assert IPv4Prefix("15.0.0.0/8") not in grouped

    def test_paper_grouping(self):
        """p1,p2 (and p3: B-announced, same ranking) group; p4 separate."""
        server, participants = self.make_scene()
        groups = compute_prefix_groups(participants, server)
        by_prefix = {}
        for group in groups:
            for prefix in group.prefixes:
                by_prefix[prefix] = group.group_id
        assert by_prefix[IPv4Prefix("11.0.0.0/8")] == by_prefix[IPv4Prefix("12.0.0.0/8")]
        assert by_prefix[IPv4Prefix("11.0.0.0/8")] == by_prefix[IPv4Prefix("13.0.0.0/8")]
        assert by_prefix[IPv4Prefix("14.0.0.0/8")] != by_prefix[IPv4Prefix("11.0.0.0/8")]

    def test_ranked_announcers_split_groups(self):
        """Same policy membership but different best route -> different
        groups (the paper's second pass)."""
        server, participants = self.make_scene()
        # Make B the best route for p1 (shorter path than C's) but leave
        # p2 preferring C by withdrawing B's p2.
        server.withdraw("B", IPv4Prefix("12.0.0.0/8"))
        groups = compute_prefix_groups(participants, server)
        by_prefix = {}
        for group in groups:
            for prefix in group.prefixes:
                by_prefix[prefix] = group.group_id
        assert by_prefix[IPv4Prefix("11.0.0.0/8")] != by_prefix[IPv4Prefix("12.0.0.0/8")]

    def test_groups_deterministic(self):
        server, participants = self.make_scene()
        first = compute_prefix_groups(participants, server)
        second = compute_prefix_groups(participants, server)
        assert [(g.group_id, g.prefixes) for g in first] == [
            (g.group_id, g.prefixes) for g in second]

    def test_representative_is_deterministic_member(self):
        server, participants = self.make_scene()
        for group in compute_prefix_groups(participants, server):
            assert group.representative in group.prefixes
            assert group.representative == min(group.prefixes)

    def test_vmac_assignment_stable_across_recompiles(self):
        """Identical state must yield identical VNH/VMAC assignments, so
        border-router tags stay valid across no-op recompilations."""
        from repro.core.vnh import VnhAllocator
        server, participants = self.make_scene()
        groups = compute_prefix_groups(participants, server)
        allocator = VnhAllocator()
        allocator.assign_groups(groups)
        first = {
            prefix: allocator.vmac_for_prefix(prefix)
            for group in groups for prefix in group.prefixes
        }
        allocator.assign_groups(compute_prefix_groups(participants, server))
        second = {
            prefix: allocator.vmac_for_prefix(prefix) for prefix in first
        }
        assert first == second

    def test_groups_for_context(self):
        server, participants = self.make_scene()
        groups = compute_prefix_groups(participants, server)
        via_b = groups_for_context(groups, ("A", "B"))
        assert set().union(*(g.prefixes for g in via_b)) == {
            IPv4Prefix("11.0.0.0/8"), IPv4Prefix("12.0.0.0/8"), IPv4Prefix("13.0.0.0/8")}
