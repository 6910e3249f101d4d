"""System-level invariants from Sections 3-4, checked over randomized
SDX configurations with hypothesis:

* isolation — one participant's policies never affect another's traffic
  beyond its own virtual switch;
* BGP consistency — traffic is never delivered to a participant that did
  not announce (and export) a route for the destination;
* no loops / totality — every packet either egresses at a physical port
  or is dropped, in one pass through the fabric.

The invariant logic lives in :mod:`repro.verification.invariants` (the
same checkers the differential fuzzer runs after every trace step); this
suite drives them over hypothesis-generated exchanges and keeps direct
``egress_of``/``send`` assertions as anchors so the checkers themselves
stay honest.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.asn import AsPath
from repro.bgp.messages import Update
from repro.core.controller import SdxController
from repro.dataplane.router import SharedTable
from repro.net.addresses import IPv4Prefix
from repro.net.packet import Packet
from repro.policy.policies import fwd, match
from repro.verification.invariants import (
    check_bgp_consistency,
    check_default_conformance,
    check_single_delivery,
)
from repro.verification.oracle import compare_controllers
from tests.bgp.reference import reference_best

NAMES = ["A", "B", "C", "D"]
PREFIXES = [IPv4Prefix(f"{n}.0.0.0/8") for n in (30, 40, 50, 60)]


@st.composite
def sdx_configs(draw):
    """A random small SDX: who announces what, who polices what."""
    announcements = draw(st.lists(
        st.tuples(st.sampled_from(NAMES), st.sampled_from(PREFIXES),
                  st.integers(min_value=1, max_value=3)),
        min_size=2, max_size=8))
    policies = draw(st.lists(
        st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES),
                  st.sampled_from([80, 443, 53])),
        max_size=4))
    return announcements, policies


def build(announcements, policies):
    sdx = SdxController()
    for index, name in enumerate(NAMES):
        sdx.add_participant(name, 65001 + index)
    for sender, prefix, path_length in announcements:
        asn = 65001 + NAMES.index(sender)
        path = AsPath([asn] + [64000 + i for i in range(path_length)])
        sdx.announce_route(sender, prefix, path)
    for owner, target, port in policies:
        if owner == target:
            continue
        sdx.participant(owner).add_outbound(match(dstport=port) >> fwd(target))
    sdx.start()
    return sdx


def probe_packets():
    for prefix in PREFIXES:
        for port in (80, 443, 53, 22):
            yield Packet(dstip=prefix.first_address + 1, dstport=port,
                         srcip="10.0.0.1", protocol=6)


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(sdx_configs())
    def test_bgp_consistency_property(self, config):
        """Delivered traffic always has an announced+exported route at
        the egress participant (Section 4.1's first invariant)."""
        announcements, policies = config
        sdx = build(announcements, policies)
        probes = list(probe_packets())
        assert check_bgp_consistency(sdx, probes) == []
        # Anchor: the invariant stated directly for one delivered probe.
        for probe in probes:
            egress = sdx.egress_of("A", probe)
            if egress is None:
                continue
            covering = [
                prefix for prefix in sdx.route_server.announced_by(egress)
                if prefix.contains_address(probe["dstip"])
            ]
            assert covering and sdx.route_server.exports_to(egress, "A")
            break

    @settings(max_examples=25, deadline=None)
    @given(sdx_configs())
    def test_single_pass_delivery_property(self, config):
        """One fabric pass: every probe yields at most one delivery and
        that delivery is at a physical port (no loops, no vport leaks)."""
        announcements, policies = config
        sdx = build(announcements, policies)
        probes = list(probe_packets())
        assert check_single_delivery(sdx, probes) == []
        # Anchor: the raw delivery-shape assertions for one sender.
        physical = set(sdx.topology.physical_ports())
        for probe in probes:
            deliveries = sdx.send("B", probe)
            assert len(deliveries) <= 1
            for delivery in deliveries:
                assert delivery.switch_port in physical
                assert delivery.accepted

    @settings(max_examples=25, deadline=None)
    @given(sdx_configs())
    def test_default_conformance_property(self, config):
        """Border-router FIBs and VMAC tags agree with the route server
        and VNH allocator (the Section 4.2 tag encoding)."""
        announcements, policies = config
        sdx = build(announcements, policies)
        assert check_default_conformance(sdx) == []

    @settings(max_examples=25, deadline=None)
    @given(sdx_configs())
    def test_isolation_property(self, config):
        """Removing one participant's policies never changes how *other*
        participants' own outbound traffic is forwarded, except through
        BGP (which policies cannot alter)."""
        announcements, policies = config
        sdx_with = build(announcements, policies)
        sdx_without = build(announcements, [])
        policy_owners = {owner for owner, _target, _port in policies}
        bystanders = [name for name in NAMES if name not in policy_owners]
        probes = list(probe_packets())
        assert compare_controllers(sdx_without, sdx_with, probes,
                                   senders=bystanders) == []
        # Anchor: the direct pairwise egress comparison.
        for probe in probes:
            for sender in bystanders:
                assert (sdx_with.egress_of(sender, probe)
                        == sdx_without.egress_of(sender, probe))

    @settings(max_examples=15, deadline=None)
    @given(sdx_configs())
    def test_modes_equivalent_property(self, config):
        """Optimised and naive compilation, with and without VNH tags,
        forward identically (the Section 4 machinery is pure speedup)."""
        announcements, policies = config
        reference = build(announcements, policies)
        probes = list(probe_packets())
        for use_vnh, optimized in ((True, False), (False, True)):
            sdx = SdxController(use_vnh=use_vnh, optimized=optimized)
            for index, name in enumerate(NAMES):
                sdx.add_participant(name, 65001 + index)
            for sender, prefix, path_length in announcements:
                asn = 65001 + NAMES.index(sender)
                sdx.announce_route(
                    sender, prefix,
                    AsPath([asn] + [64000 + i for i in range(path_length)]))
            for owner, target, port in policies:
                if owner == target:
                    continue
                sdx.participant(owner).add_outbound(
                    match(dstport=port) >> fwd(target))
            sdx.start()
            violations = compare_controllers(reference, sdx, probes,
                                             senders=NAMES)
            assert not violations, (
                f"mode (vnh={use_vnh}, opt={optimized}): {violations[0]}")
            # Anchor: one direct comparison per prefix.
            for probe in probes[::4]:
                assert (sdx.egress_of("A", probe)
                        == reference.egress_of("A", probe))


def reference_default_conformance(controller):
    """The participants x prefixes^2 triple loop ``check_default_conformance``
    used to be (most-specific cover rescanned inside the participant loop,
    best route asked per (participant, prefix)) — the oracle. A participant
    given no route for the prefix is held to the next longest cover of the
    probe it is given a route for, as its router's longest match is."""
    server = controller.route_server
    announced = sorted(server.all_prefixes())
    found = []
    for participant in controller.topology.participants():
        router = participant.router
        if router is None:
            continue
        for prefix in announced:
            probe_ip = prefix.first_address + 1
            covers = sorted((candidate for candidate in announced
                             if candidate.contains_address(probe_ip)),
                            key=lambda candidate: -candidate.length)
            if covers[0] != prefix:
                continue
            best, tagged = None, prefix
            for cover in covers:
                best = reference_best(server, participant.name, cover)
                if best is not None:
                    tagged = cover
                    break
            emitted = router.emit(Packet(dstip=probe_ip))
            if best is None:
                if emitted is not None:
                    found.append((participant.name, prefix, "routes"))
            elif emitted is None:
                found.append((participant.name, prefix, "no FIB entry"))
            else:
                vmac = controller.allocator.vmac_for_prefix(tagged)
                if vmac is not None and emitted.get("dstmac") != vmac:
                    found.append((participant.name, prefix, "tags"))
                elif vmac is None and emitted.get("dstmac") != \
                        controller.fabric.arp.resolve(best.attributes.next_hop):
                    found.append((participant.name, prefix, "sends"))
    return found


def nested_exchange(members=12, prefixes=60, seed=7):
    """A started exchange whose announcements overlap: every third
    prefix is a /24 inside an announced /16, often from another member."""
    rng = random.Random(seed)
    sdx = SdxController()
    names = [f"M{index:02d}" for index in range(members)]
    for index, name in enumerate(names):
        sdx.add_participant(name, 65001 + index)
    announced = []
    for index in range(prefixes):
        if index % 3 == 2:
            prefix = IPv4Prefix(f"20.{index - 1}.{index}.0/24")
        else:
            prefix = IPv4Prefix(f"20.{index}.0.0/16")
        announced.append(prefix)
        for sender in rng.sample(names, rng.choice((1, 1, 2, 3))):
            asn = 65001 + names.index(sender)
            tail = [rng.choice((3356, 1299, 65001 + rng.randrange(members)))
                    for _ in range(rng.randrange(3))]
            sdx.announce_route(sender, prefix, AsPath([asn] + tail))
    sdx.route_server.set_export_policy(names[0], deny=(names[1], names[2]))
    for owner, target, port in ((1, 0, 80), (2, 3, 443), (4, 0, 53)):
        sdx.participant(names[owner]).add_outbound(
            match(dstport=port) >> fwd(names[target]))
    sdx.start()
    return sdx, names, announced


def withheld_with_its_cover(sdx, names, announced, spare=()):
    """A member (not one of ``spare``) the route server gives neither a
    nested /24 nor the /16 that covers it, with both prefixes."""
    server = sdx.route_server
    return next(
        (name, nested, cover)
        for nested in announced if nested.length == 24
        for cover in announced
        if cover.length == 16 and cover.contains_prefix(nested)
        for name in names if name not in spare
        and server.best_route_for(name, nested) is None
        and server.best_route_for(name, cover) is None)


def assert_names(violations, expected):
    """``violations`` name the (participant, prefix, kind) breaches of
    ``expected``, in the same order."""
    assert len(violations) == len(expected)
    for violation, (name, prefix, kind) in zip(violations, expected):
        assert violation.detail.startswith(f"{name} ")
        assert str(prefix) in violation.detail
        assert kind in violation.detail


class TestDefaultConformanceIsPerPrefix:
    def test_a_healthy_nested_exchange_conforms(self):
        """A member denied a nested /24 rightly forwards its probe by the
        covering /16 the route server gives it: no breach, either way."""
        sdx, names, announced = nested_exchange()
        server = sdx.route_server
        covered = [(name, nested) for nested in announced
                   if nested.length == 24 for name in names
                   if server.best_route_for(name, nested) is None
                   and sdx.topology.participant(name).router.emit(
                       Packet(dstip=nested.first_address + 1)) is not None]
        assert covered  # the case is there to be judged
        assert check_default_conformance(sdx) == []
        assert reference_default_conformance(sdx) == []

    def test_an_untagged_prefix_sent_to_the_wrong_next_hop_is_named(self):
        """An untagged prefix carries its next hop's real MAC, which the
        fabric's MAC-learning rules forward on: a router that sends it to
        another member's port breaches default forwarding as surely as a
        wrong tag, and is named for that prefix alone."""
        sdx, names, announced = nested_exchange()
        server = sdx.route_server
        name, prefix, route = next(
            (name, prefix, route) for prefix in announced
            if prefix.length == 24
            and sdx.allocator.vmac_for_prefix(prefix) is None
            for name in names
            if (route := server.best_route_for(name, prefix)) is not None)
        wrong = next(member for member in names
                     if member not in (name, route.learned_from))
        router = sdx.topology.participant(name).router
        router.install_route(prefix, sdx.topology.participant(wrong).ports[0].ip)
        violations = check_default_conformance(sdx)
        assert_names(violations, [(name, prefix, "sends")])
        assert reference_default_conformance(sdx) == [(name, prefix, "sends")]

    def test_agrees_with_the_triple_loop_on_nested_prefixes(self, monkeypatch):
        sdx, names, announced = nested_exchange()
        # Break four routers four ways; both must name the same
        # (participant, prefix, kind) breaches in the same order.
        nested = next(p for p in announced if p.length == 24)
        sdx.topology.participant(names[5]).router.withdraw_route(announced[0])
        sdx.topology.participant(names[6]).router.install_route(
            nested, sdx.topology.participant(names[7]).ports[0].ip)
        sdx.route_server.inject_unnotified(
            Update.withdraw(names[8], announced[3]))
        # A member given neither a /24 nor its /16 that routes the /24's
        # probe by the /16 anyway is flagged for the /24, not excused.
        member, withheld, cover = withheld_with_its_cover(
            sdx, names, announced, spare=names[5:9])
        sdx.topology.participant(member).router.install_route(
            cover, sdx.topology.participant(names[7]).ports[0].ip)
        expected = reference_default_conformance(sdx)
        assert (member, withheld, "routes") in expected
        scans = 0
        original = IPv4Prefix.contains_address

        def counting(self, address):
            nonlocal scans
            scans += 1
            return original(self, address)

        monkeypatch.setattr(IPv4Prefix, "contains_address", counting)
        violations = check_default_conformance(sdx)
        monkeypatch.undo()
        assert_names(violations, expected)
        assert {kind for _name, _prefix, kind in expected} == {
            "routes", "no FIB entry", "tags"}
        # The most specific cover is a trie lookup per prefix, not a scan
        # of every prefix per (participant, prefix).
        assert scans <= len(announced)

    def test_agrees_with_the_triple_loop_when_the_shared_table_breaks(self):
        """Routers reading only the shared table are asked once per table,
        so a breach there — a wrong tag, a lost route, a router reading
        another table — must still be named for every router it reaches."""
        sdx, names, announced = nested_exchange()
        # The members denied a nested /24 route it through the covering /16.
        assert check_default_conformance(sdx) == []
        allocator = sdx.allocator
        tagged = [prefix for prefix in announced
                  if allocator.vmac_for_prefix(prefix) is not None]
        retagged, donor = next(
            (prefix, other) for prefix in tagged for other in tagged
            if allocator.vmac_for_prefix(other)
            != allocator.vmac_for_prefix(prefix))
        sdx.shared_routes.install(retagged,
                                  allocator.next_hop_for_prefix(donor),
                                  allocator.vmac_for_prefix(donor))
        sdx.shared_routes.withdraw(next(
            prefix for prefix in announced if prefix not in (retagged, donor)))
        sdx.topology.participant(names[3]).router.shared = SharedTable()
        # A router that lost the overlay withholding a /24 reads the shared
        # table's route for it.
        member, withheld, _cover = withheld_with_its_cover(
            sdx, names, announced, spare=names[3:4])
        sdx.topology.participant(member).router.follow_shared(withheld)
        expected = reference_default_conformance(sdx)
        assert (member, withheld, "routes") in expected
        assert {kind for _name, _prefix, kind in expected} == {
            "routes", "no FIB entry", "tags"}
        assert {name for name, _prefix, _kind in expected} == set(names)
        assert_names(check_default_conformance(sdx), expected)
