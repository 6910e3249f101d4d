"""Default forwarding must follow the BGP decision (ROADMAP, open item 1)."""

import pytest
from hypothesis import example, given, settings

from repro.bgp.asn import AsPath
from repro.core.controller import SdxController
from repro.net.addresses import IPv4Prefix
from repro.policy.policies import fwd, match

from tests.core.scenarios import packet
from tests.restricted_exports import (
    MEMBERS, PREFIXES, apply_operation, build, operations)

P = IPv4Prefix("20.0.0.0/8")


@pytest.mark.parametrize("optimized, after_update", [
    pytest.param(True, False, id="full-compile"),
    pytest.param(True, True, id="fast-path"),
    pytest.param(False, False, id="literal-defA-compile"),
    pytest.param(False, True, id="literal-defA-fast-path"),
])
def test_default_egress_is_the_bgp_best(optimized, after_update):
    """A announces p over a path through C, B over a longer one: C's best is
    B — sending C's default traffic to A would loop it back through C. The
    shared default layer used to give a member its own clause only if it
    announced the best route or that announcer restricted exports; one the
    route is withheld from by AS-path loop prevention alone inherited the
    shared next hop."""
    sdx = SdxController(optimized=optimized)
    sdx.add_participant("A", 65001)
    sdx.add_participant("B", 65002)
    c = sdx.add_participant("C", 65003)
    sdx.announce_route("A", P, AsPath([65001, 65003]))
    sdx.announce_route("B", P, AsPath([65002, 700, 800]))
    c.add_outbound(match(dstport=80) >> fwd("B"))  # tags p
    sdx.start()
    if after_update:
        sdx.announce_route("B", P, AsPath([65002, 700, 900]))
    best = sdx.route_server.decide(P).route_for("C")
    assert best.learned_from == "B"
    assert sdx.egress_of("C", packet("20.0.0.1", dstport=22)) == "B"


def default_egress_mismatches(sdx):
    """(ingress, prefix, observed, decided) wherever a member's default
    traffic leaves elsewhere than the route the server gave it says."""
    physical = {name for name, _asn, ports in MEMBERS if ports}
    wrong = []
    for prefix in PREFIXES:
        decision = sdx.route_server.decide(prefix)
        for ingress in sorted(physical):
            route = decision.route_for(ingress)
            decided = route.learned_from if route is not None else None
            if decided not in physical:
                decided = None  # no route, or a remote member's: no egress
            observed = sdx.egress_of(
                ingress, packet(str(prefix.first_address + 1), dstport=22))
            if observed != decided:
                wrong.append((ingress, str(prefix), observed, decided))
    return wrong


@pytest.mark.parametrize("optimized", [True, False],
                         ids=["shared-layer", "literal-defA"])
@settings(max_examples=40, deadline=None)
@given(ops=operations)
@example(ops=[("announce", 1, 1, [65003], [])])  # B's best crosses C: C -> D
@example(ops=[("announce", 0, 0, [65003], [(0, 65004)]), ("leave", 3)])
def test_default_egress_follows_the_decision_under_restricted_exports(
        optimized, ops):
    """Deny and allow lists, blocking and allow-list communities, member
    ASNs on paths, sessions that fail and a member that leaves: whatever
    withholds a route from a member, that member's default traffic takes
    the route it *was* given — on the fast path's rules right after an
    update, and on the compiled table after every swap."""
    sdx = build(with_dataplane=True, optimized=optimized)
    installed = {0, 1, 2}
    assert default_egress_mismatches(sdx) == []
    for operation in ops:
        apply_operation(sdx, installed, operation)
        if operation[0] in ("announce", "withdraw"):
            assert default_egress_mismatches(sdx) == [], operation
        if sdx.run_background_recompilation() is None:
            sdx.recompile()
        assert default_egress_mismatches(sdx) == [], operation
