"""Tests for forwarding-equivalence-class computation (MDS).

The hypothesis properties assert the paper's definition directly: the
result is a partition of the union, every input set is a union of whole
groups, and groups are maximal (two prefixes with identical membership
are never split).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.asn import AsPath
from repro.bgp.attributes import RouteAttributes
from repro.bgp.routeserver import RouteServer
from repro.core.controller import SdxController
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
from repro.verification.invariants import check_loc_rib

from tests.core.reference_fec import reference_partition
from tests.restricted_exports import apply_operation, build, operations

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


# ----------------------------------------------------------------------
# Grouping per class of ranked routes == grouping per prefix
# ----------------------------------------------------------------------


def as_partition(groups):
    return {group.signature: group.prefixes for group in groups}


def as_rows(groups):
    return [(g.group_id, g.prefixes, g.contexts, g.ranked_announcers,
             g.signature, g.representative) for g in groups]


@settings(max_examples=60, deadline=None)
@given(ops=operations)
@example(ops=[("announce", 1, 1, [65003], [(0, 65001)]), ("leave", 3)])
@example(ops=[("export", 1, ["A"], ["C", "D"]), ("announce", 2, 0, [65001], [])])
def test_grouping_by_class_is_the_per_prefix_partition(ops):
    """Deny and allow lists, ``(0, 0)`` / ``(0, asn)`` / ``(server-asn, x)``
    communities, member ASNs on paths, sessions that fail, a member that
    leaves: the grouping that signs each distinct tuple of ranked export
    classes once is, signature for signature, the literal one that ranks
    and export-checks every prefix from the Adj-RIB-Ins — and the
    compiler's kept grouping, patched for named prefixes, is row for row
    the one made from scratch."""
    sdx = build()
    installed = {0, 1, 2}
    for operation in [None, *ops]:
        if operation is not None:
            apply_operation(sdx, installed, operation)
            if sdx.run_background_recompilation() is None:
                sdx.recompile()
        participants = sdx.topology.participants()
        scratch = compute_prefix_groups(participants, sdx.route_server)
        assert as_partition(scratch) == reference_partition(
            participants, sdx.route_server), operation
        assert as_rows(sdx.last_compilation.groups) == as_rows(scratch), (
            operation)
        assert check_loc_rib(sdx) == [], operation


class TestAMemberJoinsUnderLoadedRoutes:
    """The export class of a stored route reads the membership: a peer
    whose AS already sits on loaded paths changes which routes it may be
    given, hence the grouping, the moment it joins — and no longer once it
    has left."""

    P1, P2 = IPv4Prefix("31.0.0.0/8"), IPv4Prefix("32.0.0.0/8")
    NEWCOMER = 65_009

    def exchange(self):
        sdx = SdxController(with_dataplane=False)
        for name, asn in (("A", 65_001), ("B", 65_002), ("C", 65_003)):
            sdx.add_participant(name, asn)
        # Same announcers, same ranking; only P1's best path crosses the
        # AS that is not a member yet.
        sdx.announce_route("B", self.P1, AsPath([65_002, self.NEWCOMER]))
        sdx.announce_route("B", self.P2, AsPath([65_002, 3356]))
        for prefix in (self.P1, self.P2):
            sdx.announce_route("C", prefix, AsPath([65_003, 1299, 174]))
        sdx.participant("A").add_outbound(match(dstport=80) >> fwd("B"))
        sdx.start()
        return sdx

    @staticmethod
    def partition(sdx):
        return sorted(sorted(map(str, group.prefixes))
                      for group in sdx.last_compilation.groups)

    def test_joining_splits_and_leaving_merges(self):
        sdx = self.exchange()
        together = [[str(self.P1), str(self.P2)]]
        assert self.partition(sdx) == together
        sdx.add_participant("N", self.NEWCOMER)
        sdx.recompile()
        assert check_loc_rib(sdx) == []
        # N may not be given B's P1 (its own AS is on the path) but may be
        # given B's P2: the two no longer forward alike.
        assert sdx.route_server.best_route_for("N", self.P1).learned_from == "C"
        assert sdx.route_server.best_route_for("N", self.P2).learned_from == "B"
        assert self.partition(sdx) == [[str(self.P1)], [str(self.P2)]]
        assert as_partition(sdx.last_compilation.groups) == reference_partition(
            sdx.topology.participants(), sdx.route_server)
        sdx.route_server.remove_peer("N")
        sdx.recompile()
        assert check_loc_rib(sdx) == []
        assert self.partition(sdx) == together

    def test_a_stale_class_is_a_reported_violation(self, monkeypatch):
        sdx = self.exchange()
        monkeypatch.setattr(RouteServer, "_reclass", lambda self: None)
        sdx.add_participant("N", self.NEWCOMER)
        sdx.recompile()
        assert self.partition(sdx) != [[str(self.P1)], [str(self.P2)]]
        assert [v.invariant for v in check_loc_rib(sdx)] == ["loc-rib"]

    def test_a_prefix_ranked_for_nobody_is_a_reported_violation(self):
        sdx = self.exchange()
        server = sdx.route_server
        stale = server.ranked_routes(self.P1)
        server.withdraw("B", self.P1)
        server.withdraw("C", self.P1)
        assert check_loc_rib(sdx) == []
        server._loc_rib[self.P1] = stale
        assert [v.invariant for v in check_loc_rib(sdx)] == ["loc-rib"]
        server._loc_rib[self.P1] = ()
        server._loc_rib[self.P2] = server.ranked_routes(self.P2)[::-1]
        assert len(check_loc_rib(sdx)) == 2
