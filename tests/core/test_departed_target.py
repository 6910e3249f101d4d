"""A forward whose target left the route server reaches nothing.

A member removed from the route server but still in the topology is no
next hop for anyone: the compiler gives a clause forwarding to it no
prefix to match (its traffic keeps the sender's default route), the
analyzer reports the clause as SDX003, and neither wedges a compile, a
gated edit or the route server's own notification.
"""

from repro.bgp.asn import AsPath
from repro.core.controller import SdxController
from repro.net.addresses import IPv4Prefix
from repro.net.packet import Packet
from repro.policy.policies import drop, fwd, match

from tests.restricted_exports import build as restricted_exchange

PREFIX = IPv4Prefix("10.0.0.0/8")
PROBE = Packet(dstip="10.1.1.1", dstport=80)


def exchange(**kwargs):
    """A, B and C; B and C announce 10/8 (B preferred); A steers port 80
    to B."""
    kwargs.setdefault("with_dataplane", True)
    sdx = SdxController(**kwargs)
    for index, name in enumerate("ABC"):
        sdx.add_participant(name, 65001 + index, ports=1)
    sdx.announce_route("B", PREFIX, AsPath([65002, 100]))
    sdx.announce_route("C", PREFIX, AsPath([65003, 7, 100]))
    sdx.participant("A").add_outbound(match(dstport=80) >> fwd("B"))
    return sdx


class TestADepartedTarget:
    def test_lint_reports_the_clause_as_routeless(self):
        sdx = exchange()
        sdx.route_server.remove_peer("B")
        report = sdx.lint_policies()
        diag, = report.by_check("SDX003")
        assert diag.location.participant == "A"
        assert "not a route-server peer" in diag.message

    def test_start_compiles_and_traffic_keeps_its_default(self):
        sdx = exchange()
        sdx.route_server.remove_peer("B")
        sdx.start()
        assert sdx.egress_of("A", PROBE) == "C"

    def test_recompile_after_the_departure(self):
        sdx = exchange()
        sdx.start()
        assert sdx.egress_of("A", PROBE) == "B"
        sdx.route_server.remove_peer("B")
        sdx.recompile()
        assert sdx.egress_of("A", PROBE) == "C"

    def test_a_strict_edit_by_another_member_is_admitted(self):
        sdx = exchange(statics_mode="strict")
        sdx.start()
        sdx.route_server.remove_peer("B")
        sdx.participant("C").add_outbound(match(dstport=22) >> drop)
        assert len(sdx.topology.participant("C").outbound_policies) == 1
        assert sdx.egress_of("A", PROBE) == "C"

    def test_removal_with_a_policy_toward_it_does_not_raise(self):
        # A steers port 80 to B, and other members announce B's prefixes
        # too: the removal's fast path recompiles them around A's clause.
        controller = restricted_exchange()
        changes = controller.route_server.remove_peer("B")
        assert changes
        assert "B" not in controller.route_server.peers()
