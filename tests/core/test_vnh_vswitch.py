"""Tests for VNH/VMAC allocation and the virtual-topology registry."""

import pytest

from repro.core.fec import PrefixGroup
from repro.core.participant import Participant
from repro.core.vnh import VnhAllocator
from repro.core.vswitch import VPORT_BASE, VirtualTopology
from repro.dataplane.router import BorderRouter, RouterPort
from repro.exceptions import CompilationError, ParticipantError
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.mac import MacAddress


def group_of(gid, *prefix_texts, contexts=frozenset(), ranking=("B",)):
    return PrefixGroup(
        group_id=gid,
        prefixes=frozenset(IPv4Prefix(t) for t in prefix_texts),
        contexts=contexts,
        ranked_announcers=tuple(ranking))


def physical(name, asn, *ports):
    router = BorderRouter(name, asn, [
        RouterPort(mac=MacAddress(0x020000000000 + p),
                   ip=IPv4Address("172.0.0.1") + p, switch_port=p)
        for p in ports])
    return Participant(name=name, asn=asn, router=router)


class TestVnhAllocator:
    def test_assign_groups_binds_arp(self):
        allocator = VnhAllocator()
        groups = [group_of(0, "11.0.0.0/8", "12.0.0.0/8"), group_of(1, "13.0.0.0/8")]
        allocator.assign_groups(groups)
        assert allocator.assignments == 2
        vnh = allocator.next_hop_for_prefix(IPv4Prefix("11.0.0.0/8"))
        vmac = allocator.vmac_for_prefix(IPv4Prefix("11.0.0.0/8"))
        assert allocator.responder.resolve(vnh) == vmac
        assert vmac.is_virtual

    def test_same_group_shares_vnh(self):
        allocator = VnhAllocator()
        allocator.assign_groups([group_of(0, "11.0.0.0/8", "12.0.0.0/8")])
        assert allocator.next_hop_for_prefix(IPv4Prefix("11.0.0.0/8")) == \
            allocator.next_hop_for_prefix(IPv4Prefix("12.0.0.0/8"))

    def test_untagged_prefix_returns_none(self):
        allocator = VnhAllocator()
        allocator.assign_groups([group_of(0, "11.0.0.0/8")])
        assert allocator.next_hop_for_prefix(IPv4Prefix("99.0.0.0/8")) is None
        assert allocator.vmac_for_prefix(IPv4Prefix("99.0.0.0/8")) is None
        assert allocator.group_of(IPv4Prefix("99.0.0.0/8")) is None

    def test_reassign_clears_old_prefixes(self):
        allocator = VnhAllocator()
        allocator.assign_groups([group_of(0, "11.0.0.0/8")])
        allocator.assign_groups([group_of(0, "12.0.0.0/8")])
        assert allocator.next_hop_for_prefix(IPv4Prefix("11.0.0.0/8")) is None
        assert allocator.next_hop_for_prefix(IPv4Prefix("12.0.0.0/8")) is not None
        # Exactly one live binding: retired pairs are unbound immediately
        # (they are quarantined for reuse, not left in the ARP responder).
        assert len(allocator.responder.bindings()) == 1

    def test_reassignment_never_exhausts_pool(self):
        """However often the exchange recompiles, the pool is reused."""
        allocator = VnhAllocator(IPv4Prefix("172.16.0.0/28"))  # 14 usable
        for round_number in range(50):
            allocator.assign_groups(
                [group_of(i, f"{20 + i}.0.0.0/8") for i in range(10)])
        assert allocator.assignments == 10

    def test_ephemeral_overrides_group(self):
        allocator = VnhAllocator()
        allocator.assign_groups([group_of(0, "11.0.0.0/8")])
        group_vnh = allocator.next_hop_for_prefix(IPv4Prefix("11.0.0.0/8"))
        vnh, vmac = allocator.assign_ephemeral(IPv4Prefix("11.0.0.0/8"))
        assert vnh != group_vnh
        assert allocator.next_hop_for_prefix(IPv4Prefix("11.0.0.0/8")) == vnh
        assert allocator.vmac_for_prefix(IPv4Prefix("11.0.0.0/8")) == vmac
        assert allocator.ephemeral_prefixes() == (IPv4Prefix("11.0.0.0/8"),)

    def test_drop_ephemeral_restores_group(self):
        allocator = VnhAllocator()
        allocator.assign_groups([group_of(0, "11.0.0.0/8")])
        group_vnh = allocator.next_hop_for_prefix(IPv4Prefix("11.0.0.0/8"))
        vnh, _ = allocator.assign_ephemeral(IPv4Prefix("11.0.0.0/8"))
        allocator.drop_ephemeral(IPv4Prefix("11.0.0.0/8"))
        assert allocator.next_hop_for_prefix(IPv4Prefix("11.0.0.0/8")) == group_vnh
        assert allocator.responder.resolve(vnh) is None

    def test_unknown_group_lookup_raises(self):
        allocator = VnhAllocator()
        with pytest.raises(CompilationError):
            allocator.vnh_for_group(42)
        with pytest.raises(CompilationError):
            allocator.vmac_for_group(42)

    def test_pool_exhaustion(self):
        allocator = VnhAllocator(IPv4Prefix("172.16.0.0/30"))
        allocator.assign_ephemeral(IPv4Prefix("11.0.0.0/8"))
        allocator.assign_ephemeral(IPv4Prefix("12.0.0.0/8"))
        with pytest.raises(CompilationError):
            allocator.assign_ephemeral(IPv4Prefix("13.0.0.0/8"))

    def test_unchanged_group_keeps_pair_across_reassignment(self):
        allocator = VnhAllocator()
        allocator.assign_groups([group_of(0, "11.0.0.0/8"),
                                 group_of(1, "12.0.0.0/8")])
        kept_vnh = allocator.next_hop_for_prefix(IPv4Prefix("11.0.0.0/8"))
        kept_vmac = allocator.vmac_for_prefix(IPv4Prefix("11.0.0.0/8"))
        # Group 1's membership changes; group 0 (same prefix set, new id)
        # must keep its pair so its rules diff to nothing.
        allocator.assign_groups([group_of(5, "11.0.0.0/8"),
                                 group_of(6, "12.0.0.0/8", "13.0.0.0/8")])
        assert allocator.next_hop_for_prefix(IPv4Prefix("11.0.0.0/8")) == kept_vnh
        assert allocator.vmac_for_prefix(IPv4Prefix("11.0.0.0/8")) == kept_vmac

    def test_changed_group_gets_pair_not_live_last_generation(self):
        allocator = VnhAllocator()
        allocator.assign_groups([group_of(0, "11.0.0.0/8")])
        old_vmac = allocator.vmac_for_prefix(IPv4Prefix("11.0.0.0/8"))
        allocator.assign_groups([group_of(0, "11.0.0.0/8", "12.0.0.0/8")])
        # Reusing the old tag for a different packet population would let
        # not-yet-deleted rules claim newly tagged packets mid-swap.
        assert allocator.vmac_for_prefix(IPv4Prefix("11.0.0.0/8")) != old_vmac

    def test_retired_pair_recycles_only_after_finish_swap(self):
        allocator = VnhAllocator()
        allocator.assign_groups([group_of(0, "11.0.0.0/8")])
        retired = allocator.vmac_for_prefix(IPv4Prefix("11.0.0.0/8"))
        allocator.assign_groups([group_of(0, "12.0.0.0/8")])
        assert allocator.vmac_for_prefix(IPv4Prefix("12.0.0.0/8")) != retired
        assert allocator.finish_swap() == 1
        allocator.assign_groups([group_of(0, "13.0.0.0/8")])
        assert allocator.vmac_for_prefix(IPv4Prefix("13.0.0.0/8")) == retired

    def test_dropped_ephemeral_is_quarantined(self):
        allocator = VnhAllocator()
        _, vmac = allocator.assign_ephemeral(IPv4Prefix("11.0.0.0/8"))
        allocator.drop_ephemeral(IPv4Prefix("11.0.0.0/8"))
        # Its shadow rules may still be installed: not reusable yet.
        _, fresh = allocator.assign_ephemeral(IPv4Prefix("12.0.0.0/8"))
        assert fresh != vmac
        allocator.finish_swap()
        allocator.assign_groups([group_of(0, "13.0.0.0/8")])
        assert allocator.vmac_for_group(0) == vmac

    def test_vnh_addresses_unique(self):
        allocator = VnhAllocator()
        groups = [group_of(i, f"{10 + i}.0.0.0/8") for i in range(50)]
        allocator.assign_groups(groups)
        vnhs = {allocator.vnh_for_group(i) for i in range(50)}
        vmacs = {allocator.vmac_for_group(i) for i in range(50)}
        assert len(vnhs) == 50
        assert len(vmacs) == 50


class TestAllocatorChangeLog:
    """``VnhAllocator.changes`` names exactly the prefixes whose tag moved,
    checked against a before/after walk of every prefix seen so far."""

    @staticmethod
    def moved_by(allocator, seen, action):
        before = {p: allocator.next_hop_for_prefix(p) for p in seen}
        version = allocator.generation
        action()
        assert allocator.generation > version
        named = set(allocator.changes.since(version))
        assert named == {p for p in seen
                         if allocator.next_hop_for_prefix(p) != before[p]}
        return {str(p) for p in named}

    def test_every_assignment_names_what_it_moved(self):
        allocator = VnhAllocator()
        texts = [f"{10 + i}.0.0.0/8" for i in range(8)]
        seen = [IPv4Prefix(t) for t in texts]
        moved = lambda action: self.moved_by(allocator, seen, action)
        first = [group_of(0, *texts[:3]), group_of(1, *texts[3:5])]
        assert moved(lambda: allocator.assign_groups(first)) == set(texts[:5])
        # The same groups again: no change at all, so the version stays
        # put — an unmoved generation is what lets the compiler keep the
        # tags it derived from it.
        version = allocator.generation
        allocator.assign_groups(first)
        assert allocator.generation == version
        # A group shrinks (keeps its pair), one grows (fresh pair), a
        # prefix drops out of every group, a new group appears.
        second = [group_of(0, *texts[:2]), group_of(1, *texts[3:6]),
                  group_of(2, texts[7])]
        assert moved(lambda: allocator.assign_groups(second)) == {
            texts[2], *texts[3:6], texts[7]}
        # Renumbering alone moves nothing.
        third = [group_of(0, texts[7]), group_of(1, *texts[:2]),
                 group_of(2, *texts[3:6])]
        assert moved(lambda: allocator.assign_groups(third)) == set()
        assert moved(lambda: allocator.assign_ephemeral(seen[0])) == {texts[0]}
        assert moved(lambda: allocator.assign_ephemeral(seen[6])) == {texts[6]}
        assert moved(lambda: allocator.drop_ephemeral(seen[6])) == {texts[6]}
        # An override's whole group takes a fresh pair at the next regroup.
        assert moved(lambda: allocator.assign_groups(third)) == set(texts[:2])

    def test_dropping_nothing_is_no_change(self):
        allocator = VnhAllocator()
        allocator.drop_ephemeral(IPv4Prefix("10.0.0.0/8"))
        assert allocator.generation == 0


class TestVirtualTopology:
    def test_register_assigns_vports(self):
        topology = VirtualTopology()
        a = physical("A", 65001, 1)
        b = physical("B", 65002, 2, 3)
        assert topology.register(a) == VPORT_BASE
        assert topology.register(b) == VPORT_BASE + 1
        assert topology.vport("B") == VPORT_BASE + 1
        assert topology.by_vport(VPORT_BASE).name == "A"

    def test_duplicate_name_rejected(self):
        topology = VirtualTopology()
        topology.register(physical("A", 65001, 1))
        with pytest.raises(ParticipantError):
            topology.register(physical("A", 65009, 2))

    def test_duplicate_switch_port_rejected(self):
        topology = VirtualTopology()
        topology.register(physical("A", 65001, 1))
        with pytest.raises(ParticipantError):
            topology.register(physical("B", 65002, 1))

    def test_port_collision_with_vport_range_rejected(self):
        topology = VirtualTopology()
        with pytest.raises(ParticipantError):
            topology.register(physical("A", 65001, VPORT_BASE + 5))

    def test_owner_of(self):
        topology = VirtualTopology()
        topology.register(physical("A", 65001, 1))
        assert topology.owner_of(1) == "A"
        assert topology.owner_of(99) is None

    def test_remote_participant_registers(self):
        topology = VirtualTopology()
        remote = Participant(name="D", asn=65099)
        vport = topology.register(remote)
        assert topology.is_virtual_port(vport)
        assert topology.participant("D").is_remote

    def test_unknown_lookups_raise(self):
        topology = VirtualTopology()
        with pytest.raises(ParticipantError):
            topology.participant("Z")
        with pytest.raises(ParticipantError):
            topology.vport("Z")
        with pytest.raises(ParticipantError):
            topology.by_vport(VPORT_BASE)

    def test_names_and_physical_ports_sorted(self):
        topology = VirtualTopology()
        topology.register(physical("B", 65002, 5))
        topology.register(physical("A", 65001, 2))
        assert topology.names() == ("A", "B")
        assert topology.physical_ports() == (2, 5)
        assert len(topology) == 2


class TestRetaggingIsCounted:
    def test_a_group_past_the_change_log_retags_whole_and_cannot_say(self):
        """One overridden member makes its whole group take a fresh pair
        at the re-optimisation: every prefix of it is counted re-tagged,
        and the change log, told of more prefixes than it keeps, cannot
        say what moved when the routers are brought up to date — once."""
        from repro.bgp.asn import AsPath
        from repro.bgp.attributes import RouteAttributes
        from repro.bgp.messages import Announcement, Update
        from repro.bgp.rib import CHANGE_LOG_SIZE
        from repro.core.controller import SdxController
        from repro.policy.policies import fwd, match
        sdx = SdxController()
        for name, asn in (("A", 65001), ("B", 65002), ("C", 65003)):
            sdx.add_participant(name, asn)
        prefixes = [IPv4Prefix(f"10.{i // 256}.{i % 256}.0/24")
                    for i in range(CHANGE_LOG_SIZE + 100)]
        attributes = RouteAttributes(
            as_path=AsPath([65002]),
            next_hop=sdx.topology.participant("B").ports[0].ip)
        sdx.load_routes([Update(sender="B", announcements=tuple(
            Announcement(prefix, attributes) for prefix in prefixes))])
        sdx.participant("A").add_outbound(match(dstport=80) >> fwd("B"))
        sdx.start()
        (group,) = sdx.last_compilation.groups
        assert len(group.prefixes) > CHANGE_LOG_SIZE
        registry = sdx.telemetry.registry

        def counts():
            return (registry.get("sdx_vnh_prefixes_retagged_total").value,
                    sum(registry.get("sdx_changelog_unknown_total",
                                     log=log).value for log in ("rib", "vnh")))

        started = counts()
        assert started == (len(group.prefixes), 0)
        sdx.announce_route("B", prefixes[0], AsPath([65002]))
        assert sdx.allocator.ephemeral_prefixes() == (prefixes[0],)
        assert counts() == started
        sdx.run_background_recompilation()
        (regrouped,) = sdx.last_compilation.groups
        assert regrouped.prefixes == group.prefixes
        assert counts() == (started[0] + len(group.prefixes), 1)
