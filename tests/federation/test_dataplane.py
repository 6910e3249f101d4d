"""Tests for the cross-fabric driver: re-entry, VMACs, counters."""

from repro.bgp.asn import AsPath
from repro.federation import FederatedController
from repro.net.addresses import IPv4Prefix
from repro.net.packet import Packet

from tests.federation.scenarios import (
    PORT,
    PREFIX,
    blackhole_scenario,
    clean_scenario,
    loop_scenario,
)

DSTIP = "198.51.100.9"


def packet(dstport=PORT, **fields):
    fields.setdefault("dstip", DSTIP)
    return Packet(dstport=dstport, **fields)


class TestCrossExchangeWalk:
    def test_stitched_path_delivers_to_origin(self):
        federation = clean_scenario().build_federation()
        outcome = federation.forward("IXP-B", "Eyeball", packet())
        assert outcome.is_delivered
        assert outcome.via == "origin"
        assert outcome.participant == "Content"
        assert [hop.describe() for hop in outcome.hops] == [
            "IXP-B:Eyeball", "IXP-A:Transit"]

    def test_loop_detected_with_cycle(self):
        federation = loop_scenario().build_federation()
        outcome = federation.forward("IXP-A", "East", packet())
        assert outcome.is_loop
        assert len(outcome.cycle) == 2
        assert outcome.deliveries == ()

    def test_blackhole_dropped_beyond_first_exchange(self):
        federation = blackhole_scenario().build_federation()
        outcome = federation.forward("IXP-A", "Sender", packet())
        assert outcome.kind == "dropped"
        assert outcome.exchange == "IXP-B"
        assert len(outcome.hops) == 2

    def test_unrouted_traffic_never_leaves_the_border(self):
        federation = clean_scenario().build_federation()
        outcome = federation.forward(
            "IXP-B", "Eyeball", packet(dstip="203.0.113.5"))
        assert outcome.kind == "dropped"
        assert outcome.exchange == "IXP-B"
        assert len(outcome.hops) == 1

    def test_exhausted_presence_exits_upstream(self):
        # Port-443 traffic dodges the drop clause; at IXP-B it defaults
        # to Relay, which attends no other exchange and does not
        # originate the prefix: it exits through Relay's upstream.
        federation = blackhole_scenario().build_federation()
        outcome = federation.forward("IXP-A", "Sender", packet(dstport=443))
        assert outcome.is_delivered
        assert outcome.via == "upstream"
        assert outcome.participant == "Relay"
        assert len(outcome.hops) == 2


class TestVmacSemantics:
    def test_reentry_preserves_original_headers(self):
        federation = clean_scenario().build_federation()
        original = packet(srcip="192.0.2.7")
        outcome = federation.forward("IXP-B", "Eyeball", original)
        assert outcome.deliveries
        final = outcome.deliveries[0].packet
        assert str(final["dstip"]) == DSTIP
        assert final["dstport"] == PORT
        assert str(final["srcip"]) == "192.0.2.7"

    def test_final_fabric_rewrites_to_its_own_physical_mac(self):
        # The VMAC rewrite happens inside the *final* exchange's fabric:
        # the delivered frame carries the physical MAC of Content's port
        # at IXP-A, not any MAC from the IXP-B fabric the packet first
        # crossed.
        federation = clean_scenario().build_federation()
        outcome = federation.forward("IXP-B", "Eyeball", packet())
        content = federation.handle("IXP-A", "Content").participant
        assert outcome.deliveries[0].packet["dstmac"] == (
            content.router.ports[0].mac)
        # ...and not the MAC of the IXP-A ingress (Transit's border
        # router), which is what a fabric that skipped the rewrite
        # would leave in place.
        transit_a = federation.handle("IXP-A", "Transit").participant
        assert outcome.deliveries[0].packet["dstmac"] != (
            transit_a.router.ports[0].mac)

    def test_delivery_lands_on_the_destination_switch_port(self):
        federation = clean_scenario().build_federation()
        outcome = federation.forward("IXP-B", "Eyeball", packet())
        content = federation.handle("IXP-A", "Content")
        assert outcome.deliveries[0].switch_port == content.port(0)
        assert outcome.deliveries[0].accepted


class TestCounterAttribution:
    def test_each_traversed_fabric_counts_exactly_once(self):
        federation = clean_scenario().build_federation()
        federation.forward("IXP-B", "Eyeball", packet())
        for exchange in ("IXP-A", "IXP-B"):
            switch = federation.exchange(exchange).fabric.switch
            ingress = sum(switch.stats(p).rx_packets for p in switch.ports)
            assert ingress == 1, exchange

    def test_counters_attribute_to_the_correct_ports(self):
        federation = clean_scenario().build_federation()
        federation.forward("IXP-B", "Eyeball", packet())
        switch_b = federation.exchange("IXP-B").fabric.switch
        eyeball_port = federation.handle("IXP-B", "Eyeball").port(0)
        assert switch_b.stats(eyeball_port).rx_packets == 1
        switch_a = federation.exchange("IXP-A").fabric.switch
        transit_port = federation.handle("IXP-A", "Transit").port(0)
        content_port = federation.handle("IXP-A", "Content").port(0)
        assert switch_a.stats(transit_port).rx_packets == 1
        assert switch_a.stats(content_port).tx_packets == 1

    def test_untouched_walk_leaves_other_fabric_cold(self):
        federation = clean_scenario().build_federation()
        # A local IXP-A walk (Content's upstream exit) never touches B.
        federation.forward("IXP-A", "Content", packet(dstport=443))
        switch_b = federation.exchange("IXP-B").fabric.switch
        assert sum(switch_b.stats(p).rx_packets
                   for p in switch_b.ports) == 0


class TestPortMappingEdgeCases:
    def make_asymmetric(self):
        """Clean-scenario structure, but Transit has two ports at IXP-A
        and one at IXP-B, so cross-fabric port numbering differs."""
        federation = FederatedController(with_dataplane=True)
        federation.add_exchange("IXP-A")
        federation.add_exchange("IXP-B")
        federation.add_participant(
            "Transit", 65010, exchanges=("IXP-A", "IXP-B"),
            ports_by_exchange={"IXP-A": 2, "IXP-B": 1})
        federation.add_participant("Content", 65020, exchanges=("IXP-A",))
        federation.add_participant("Eyeball", 65030, exchanges=("IXP-B",))
        prefix = IPv4Prefix(PREFIX)
        federation.register_origin(prefix, "Content")
        federation.announce_route(
            "IXP-A", "Content", prefix, AsPath([65020, 64900]))
        federation.announce_route(
            "IXP-B", "Transit", prefix, AsPath([65010, 65020, 64900]))
        federation.start()
        return federation

    def test_asymmetric_port_counts_still_stitch(self):
        federation = self.make_asymmetric()
        outcome = federation.forward("IXP-B", "Eyeball", packet(dstport=443))
        assert outcome.is_delivered
        assert outcome.via == "origin"
        assert outcome.participant == "Content"

    def test_per_fabric_participants_are_independent(self):
        # The shared participant gets a distinct per-exchange incarnation
        # with its own router and port count.
        federation = self.make_asymmetric()
        transit_a = federation.handle("IXP-A", "Transit").participant
        transit_b = federation.handle("IXP-B", "Transit").participant
        assert transit_a is not transit_b
        assert len(transit_a.router.ports) == 2
        assert len(transit_b.router.ports) == 1

    def test_switch_port_numbering_is_fabric_local(self):
        # Each fabric numbers its own switch ports: the asymmetric port
        # counts give the two switches different port tables.
        federation = self.make_asymmetric()
        switch_a = federation.exchange("IXP-A").fabric.switch
        switch_b = federation.exchange("IXP-B").fabric.switch
        assert len(switch_a.ports) == 3  # Transit x2 + Content
        assert len(switch_b.ports) == 2  # Transit + Eyeball
