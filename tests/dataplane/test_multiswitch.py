"""Tests for the multi-switch topology abstraction (paper Section 4.1).

The key property: partitioning the big-switch classifier over any
connected multi-switch topology preserves end-to-end forwarding exactly.
"""

import pytest

from repro.dataplane.multiswitch import (
    MultiSwitchDataPlane,
    SdxTopology,
    partition_classifier,
)
from repro.exceptions import FabricError
from repro.net.packet import Packet

from tests.core.scenarios import figure1_controller, packet


def make_topology(ports, layout):
    """Build an SdxTopology placing ``ports`` per ``layout`` (port->switch)."""
    topology = SdxTopology()
    for name in sorted(set(layout.values())):
        topology.add_switch(name)
    for port in ports:
        topology.assign_port(port, layout[port])
    return topology


class TestSdxTopology:
    def test_assignment_and_lookup(self):
        topology = make_topology([1, 2], {1: "s1", 2: "s2"})
        topology.add_link("s1", 100, "s2", 100)
        assert topology.switch_of(1) == "s1"
        assert topology.edge_ports("s1") == (1,)
        assert topology.trunk_ports("s1") == (100,)
        assert topology.switches == ("s1", "s2")

    def test_duplicate_switch_rejected(self):
        topology = SdxTopology()
        topology.add_switch("s1")
        with pytest.raises(FabricError):
            topology.add_switch("s1")

    def test_duplicate_port_rejected(self):
        topology = make_topology([1], {1: "s1"})
        with pytest.raises(FabricError):
            topology.assign_port(1, "s1")

    def test_unknown_switch_rejected(self):
        topology = SdxTopology()
        with pytest.raises(FabricError):
            topology.assign_port(1, "ghost")
        topology.add_switch("s1")
        with pytest.raises(FabricError):
            topology.add_link("s1", 100, "ghost", 100)

    def test_self_link_rejected(self):
        topology = SdxTopology()
        topology.add_switch("s1")
        with pytest.raises(FabricError):
            topology.add_link("s1", 100, "s1", 101)

    def test_trunk_edge_collision_rejected(self):
        topology = make_topology([1], {1: "s1"})
        topology.add_switch("s2")
        with pytest.raises(FabricError):
            topology.add_link("s1", 1, "s2", 100)

    def test_next_hops_line_topology(self):
        topology = SdxTopology()
        for name in ("s1", "s2", "s3"):
            topology.add_switch(name)
        topology.add_link("s1", 100, "s2", 101)
        topology.add_link("s2", 102, "s3", 103)
        hops = topology.next_hops()
        assert hops[("s1", "s2")] == ("s2", 100)
        assert hops[("s1", "s3")] == ("s2", 100)   # via s2
        assert hops[("s3", "s1")] == ("s2", 103)

    def test_disconnected_rejected(self):
        topology = SdxTopology()
        topology.add_switch("s1")
        topology.add_switch("s2")
        with pytest.raises(FabricError):
            topology.next_hops()

    def test_unassigned_port_lookup_rejected(self):
        with pytest.raises(FabricError):
            SdxTopology().switch_of(7)


class TestPartitioning:
    def partitioned_plane(self, layout, links):
        sdx, *_ = figure1_controller()
        result = sdx.start()
        ports = sdx.topology.physical_ports()
        topology = make_topology(ports, layout)
        for link in links:
            topology.add_link(*link)
        tables = partition_classifier(result.classifier, topology)
        plane = MultiSwitchDataPlane(topology, tables)
        return sdx, result.classifier, plane

    def probes(self):
        for dstip in ("11.0.0.1", "12.0.0.1", "13.0.0.1", "14.0.0.1",
                      "15.0.0.1", "99.0.0.1"):
            for dstport in (80, 443, 22):
                for srcip in ("10.0.0.1", "200.0.0.1"):
                    yield packet(dstip, dstport=dstport, srcip=srcip)

    def big_switch_deliveries(self, sdx, classifier, probe):
        out = set()
        for result in classifier.eval(probe):
            if result.port is not None:
                out.add((result.port, result))
        return out

    @pytest.mark.parametrize("layout,links", [
        # Two switches: A+B on s1; C+E on s2.
        ({1: "s1", 2: "s1", 3: "s1", 4: "s2", 5: "s2"},
         [("s1", 100, "s2", 101)]),
        # Three switches in a line.
        ({1: "s1", 2: "s2", 3: "s2", 4: "s3", 5: "s3"},
         [("s1", 100, "s2", 101), ("s2", 102, "s3", 103)]),
    ])
    def test_partition_preserves_forwarding(self, layout, links):
        sdx, classifier, plane = self.partitioned_plane(layout, links)
        for source in ("A", "B", "C", "E"):
            router = sdx.fabric.router(source)
            for probe in self.probes():
                framed = router.emit(probe)
                if framed is None:
                    continue
                expected = self.big_switch_deliveries(sdx, classifier, framed)
                actual = set(
                    (port, pkt) for port, pkt in plane.process(framed))
                assert actual == expected, (
                    f"{source} -> {probe!r}: multi-switch {actual} != "
                    f"big-switch {expected}")

    def test_single_switch_degenerates(self):
        layout = {port: "s1" for port in (1, 2, 3, 4, 5)}
        sdx, classifier, plane = self.partitioned_plane(layout, [])
        framed = sdx.fabric.router("A").emit(packet("13.0.0.1"))
        assert plane.process(framed) == [
            (port, pkt) for port, pkt in
            sorted(self.big_switch_deliveries(sdx, classifier, framed))]

    def test_packet_without_port_rejected(self):
        layout = {port: "s1" for port in (1, 2, 3, 4, 5)}
        _sdx, _classifier, plane = self.partitioned_plane(layout, [])
        with pytest.raises(FabricError):
            plane.process(Packet(dstip="11.0.0.1"))


class TestLoopGuard:
    def test_forwarding_loop_across_switches_detected(self):
        """A corrupt table bouncing a frame between trunks must raise
        rather than spin forever."""
        from repro.net.mac import MacAddress
        from repro.policy.classifier import Action, Classifier, Rule
        from repro.policy.headerspace import WILDCARD

        topology = SdxTopology()
        topology.add_switch("s1")
        topology.add_switch("s2")
        topology.assign_port(1, "s1")
        topology.add_link("s1", 100, "s2", 101)
        bounce_1 = Classifier([Rule(WILDCARD, (Action(port=100),))])
        bounce_2 = Classifier([Rule(WILDCARD, (Action(port=101),))])
        plane = MultiSwitchDataPlane(
            topology, {"s1": bounce_1, "s2": bounce_2}, max_hops=4)
        with pytest.raises(FabricError):
            plane.process(Packet(port=1, dstmac=MacAddress(5)))

    def test_trunk_link_other_end_validation(self):
        from repro.dataplane.multiswitch import TrunkLink
        link = TrunkLink("s1", 100, "s2", 101)
        assert link.other_end("s1") == ("s2", 101)
        assert link.other_end("s2") == ("s1", 100)
        assert link.endpoint("s3") is None
        with pytest.raises(FabricError):
            link.other_end("s3")


class TestRandomLayouts:
    """Property: ANY connected placement of ports onto 1-3 chained
    switches preserves big-switch forwarding."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    layouts = st.lists(st.integers(min_value=0, max_value=2),
                       min_size=5, max_size=5)

    @settings(max_examples=15, deadline=None)
    @given(layouts, st.integers(min_value=0, max_value=3))
    def test_any_layout_preserves_forwarding_property(self, assignment, which):
        sdx, *_ = figure1_controller()
        result = sdx.start()
        ports = sdx.topology.physical_ports()
        used = sorted(set(assignment))
        layout = {port: f"s{assignment[index] + 1}"
                  for index, port in enumerate(ports)}
        topology = make_topology(ports, layout)
        names = sorted({f"s{i + 1}" for i in assignment})
        for left, right in zip(names, names[1:]):
            offset = 100 + 2 * names.index(left)
            topology.add_link(left, offset, right, offset + 1)
        tables = partition_classifier(result.classifier, topology)
        plane = MultiSwitchDataPlane(topology, tables)

        source = ["A", "B", "C", "E"][which]
        router = sdx.fabric.router(source)
        for dstip in ("11.0.0.1", "13.0.0.1", "15.0.0.1"):
            for dstport in (80, 22):
                framed = router.emit(packet(dstip, dstport=dstport))
                if framed is None:
                    continue
                expected = {
                    (out.port, out) for out in result.classifier.eval(framed)
                    if out.port is not None
                }
                actual = set(plane.process(framed))
                assert actual == expected


class TestCrossFabricPortMapping:
    """Edge cases where two federated fabrics reuse the same port numbers.

    Switch ports are fabric-local integers: both exchanges number their
    ports from 1, so the federated driver must resolve (exchange,
    participant) pairs, never bare port numbers, when a packet crosses
    fabrics.
    """

    def federation(self):
        from tests.federation.scenarios import clean_scenario

        return clean_scenario().build_federation()

    def test_port_numbers_collide_across_fabrics(self):
        federation = self.federation()
        ports_a = federation.exchange("IXP-A").fabric.switch.ports
        ports_b = federation.exchange("IXP-B").fabric.switch.ports
        # The premise of the edge case: overlapping numeric port spaces.
        assert set(ports_a) & set(ports_b)

    def test_reentry_resolves_ports_in_the_new_fabric(self):
        from repro.net.packet import Packet

        federation = self.federation()
        outcome = federation.forward(
            "IXP-B", "Eyeball", Packet(dstip="198.51.100.9", dstport=80))
        assert outcome.is_delivered
        content = federation.handle("IXP-A", "Content")
        delivery = outcome.deliveries[0]
        assert delivery.participant == "Content"
        assert delivery.switch_port == content.port(0)
        # The same number exists at IXP-B but belongs to someone else;
        # attribution is by fabric, not by bare number.
        owner_b = next(
            name
            for name in federation.exchange("IXP-B").topology.names()
            if federation.handle("IXP-B", name).port(0)
            == delivery.switch_port)
        assert owner_b != "Content"

    def test_shared_participant_has_one_port_entry_per_fabric(self):
        federation = self.federation()
        transit_a = federation.handle("IXP-A", "Transit")
        transit_b = federation.handle("IXP-B", "Transit")
        switch_a = federation.exchange("IXP-A").fabric.switch
        switch_b = federation.exchange("IXP-B").fabric.switch
        assert transit_a.port(0) in switch_a.ports
        assert transit_b.port(0) in switch_b.ports
        # Each incarnation's counters start independent.
        assert switch_a.stats(transit_a.port(0)).rx_packets == 0
        assert switch_b.stats(transit_b.port(0)).rx_packets == 0
