"""Shared SDX scenario builders for core and integration tests.

``figure1_controller`` reconstructs the paper's running example
(Figure 1): ASes A, B (two ports), C; prefixes p1..p5 with the exact
export pattern of Figure 1b; A's application-specific peering policy and
B's inbound traffic engineering policy.
"""

from collections import Counter

from repro.bgp.asn import AsPath
from repro.core.controller import SdxController
from repro.net.addresses import IPv4Prefix
from repro.policy.policies import fwd, match
from repro.southbound.diff import compute_delta

P1 = IPv4Prefix("11.0.0.0/8")
P2 = IPv4Prefix("12.0.0.0/8")
P3 = IPv4Prefix("13.0.0.0/8")
P4 = IPv4Prefix("14.0.0.0/8")
P5 = IPv4Prefix("15.0.0.0/8")


def figure1_controller(*, with_policies=True, **kwargs):
    """The Figure 1 exchange: returns (controller, a, b, c, e).

    Routes (mirroring Figure 1b's route-server table):

    * B announces p1, p2, p3 — with a *shorter* path for p3 so the route
      server prefers B for p3 and C for p1/p2 (as in the paper, where C
      is the next hop for p1/p2 and B for p3).
    * C announces p1, p2, p3, p4.
    * E announces p5 (no policy ever touches it).
    """
    sdx = SdxController(**kwargs)
    a = sdx.add_participant("A", 65001)
    b = sdx.add_participant("B", 65002, ports=2)
    c = sdx.add_participant("C", 65003)
    e = sdx.add_participant("E", 65005)

    sdx.announce_route("B", P1, AsPath([65002, 300, 100]))
    sdx.announce_route("B", P2, AsPath([65002, 300, 200]))
    sdx.announce_route("B", P3, AsPath([65002, 300]))
    sdx.announce_route("C", P1, AsPath([65003, 100]))
    sdx.announce_route("C", P2, AsPath([65003, 200]))
    sdx.announce_route("C", P3, AsPath([65003, 400, 300]))
    sdx.announce_route("C", P4, AsPath([65003, 500]))
    sdx.announce_route("E", P5, AsPath([65005, 600]))

    if with_policies:
        # AS A: application-specific peering (Section 3.1).
        a.add_outbound((match(dstport=80) >> fwd("B"))
                       + (match(dstport=443) >> fwd("C")))
        # AS B: inbound traffic engineering by source halves.
        b.add_inbound((match(srcip="0.0.0.0/1") >> fwd(b.port(0)))
                      + (match(srcip="128.0.0.0/1") >> fwd(b.port(1))))
    return sdx, a, b, c, e


def packet(dstip, dstport=80, srcip="10.0.0.1", protocol=6, **extra):
    from repro.net.packet import Packet
    return Packet(dstip=dstip, dstport=dstport, srcip=srcip,
                  protocol=protocol, **extra)


def check_block_deltas(sdx):
    """Hold every delta ``sdx``'s southbound engine computes from here on
    to the oracle: ``compute_delta`` over the live table and the queue
    gives the same adds and modifies in the same order, the same deletes
    as a set and the same ``unchanged``. Returns how many syncs were taken
    block by block (``"block"``) and over the live table (``"fallback"``)."""
    engine = sdx.southbound
    sync = engine.sync_classifier
    taken = Counter()

    def checked(target, flush=True):
        expected = compute_delta(engine._projected_rules(),
                                 getattr(target, "rules", target))
        taken["block" if hasattr(target, "blocks") and engine._in_step()
              else "fallback"] += 1
        delta = sync(target, flush)
        assert delta.adds == expected.adds
        assert delta.modifies == expected.modifies
        assert set(delta.deletes) == set(expected.deletes)
        assert len(delta.deletes) == len(expected.deletes)
        assert delta.unchanged == expected.unchanged
        return delta

    engine.sync_classifier = checked
    return taken
