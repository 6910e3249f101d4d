"""Tests for the participant model and its policy validation."""

import pytest

from repro.core.participant import Participant
from repro.dataplane.router import BorderRouter, RouterPort
from repro.exceptions import ParticipantError, PolicyError
from repro.net.addresses import IPv4Address
from repro.net.mac import MacAddress
from repro.policy.policies import drop, fwd, match, modify


def physical(name="A", asn=65001, ports=(1,)):
    router = BorderRouter(name, asn, [
        RouterPort(mac=MacAddress(0x020000000000 + p),
                   ip=IPv4Address("172.0.0.1") + p, switch_port=p)
        for p in ports])
    return Participant(name=name, asn=asn, router=router)


def remote(name="D", asn=65099):
    return Participant(name=name, asn=asn)


class TestPorts:
    def test_switch_ports(self):
        participant = physical(ports=(4, 7))
        assert participant.switch_ports == (4, 7)
        assert participant.port(1) == 7
        assert participant.main_port == 4

    def test_remote_has_no_ports(self):
        participant = remote()
        assert participant.is_remote
        assert participant.switch_ports == ()
        with pytest.raises(ParticipantError):
            participant.port(0)

    def test_bad_port_index(self):
        with pytest.raises(ParticipantError):
            physical().port(3)


class TestOutboundValidation:
    def test_valid_policy_accepted(self):
        participant = physical()
        participant.add_outbound(match(dstport=80) >> fwd("B"))
        assert participant.has_policies
        assert participant.outbound_targets() == ("B",)

    def test_remote_cannot_have_outbound(self):
        with pytest.raises(PolicyError):
            remote().add_outbound(match(dstport=80) >> fwd("B"))

    def test_outbound_needs_fwd(self):
        with pytest.raises(PolicyError):
            physical().add_outbound(match(dstport=80))

    def test_outbound_raw_port_rejected(self):
        with pytest.raises(PolicyError):
            physical().add_outbound(match(dstport=80) >> fwd(3))

    def test_outbound_self_forward_rejected(self):
        with pytest.raises(PolicyError):
            physical("A").add_outbound(match(dstport=80) >> fwd("A"))

    def test_outbound_drop_clause_ok(self):
        participant = physical()
        participant.add_outbound(match(srcip="6.6.6.0/24") >> drop)
        assert participant.outbound_clauses()[0].drops

    def test_nonreserved_modify_accepted(self):
        participant = physical()
        participant.add_outbound(
            match(dstport=80) >> modify(dstport=81) >> fwd("B"))
        assert dict(participant.outbound_clauses()[0].modifications) == {"dstport": 81}

    def test_reserved_modify_rejected(self):
        with pytest.raises(PolicyError):
            physical().add_outbound(
                match(dstport=80) >> modify(dstmac="00:11:22:33:44:55") >> fwd("B"))

    def test_reserved_match_rejected(self):
        with pytest.raises(PolicyError):
            physical().add_outbound(match(dstmac="00:11:22:33:44:55") >> fwd("B"))
        with pytest.raises(PolicyError):
            physical().add_outbound(match(port=1) >> fwd("B"))


class TestInboundValidation:
    def test_inbound_to_own_port(self):
        participant = physical(ports=(4, 7))
        participant.add_inbound(match(srcip="0.0.0.0/1") >> fwd(7))
        assert participant.inbound_clauses()[0].target == 7

    def test_inbound_to_foreign_port_rejected(self):
        with pytest.raises(PolicyError):
            physical(ports=(4,)).add_inbound(match(srcip="0.0.0.0/1") >> fwd(9))

    def test_physical_inbound_symbolic_rejected(self):
        with pytest.raises(PolicyError):
            physical().add_inbound(match(dstport=80) >> fwd("B"))

    def test_inbound_modify_only_ok(self):
        participant = physical()
        participant.add_inbound(match(dstip="74.125.1.1") >> modify(dstip="10.0.0.9"))
        clause = participant.inbound_clauses()[0]
        assert clause.target is None
        assert clause.modifications

    def test_remote_inbound_needs_symbolic_fwd(self):
        participant = remote()
        participant.add_inbound(match(dstip="74.125.1.1") >> fwd("B"))
        with pytest.raises(PolicyError):
            remote().add_inbound(match(dstip="74.125.1.1") >> modify(dstip="1.2.3.4"))
        with pytest.raises(PolicyError):
            remote().add_inbound(match(dstport=80) >> fwd(3))
        with pytest.raises(PolicyError):
            remote("D").add_inbound(match(dstport=80) >> fwd("D"))


class TestPolicyLifecycle:
    def test_generation_bumps(self):
        participant = physical()
        start = participant.policy_generation
        policy = match(dstport=80) >> fwd("B")
        participant.add_outbound(policy)
        participant.remove_outbound(policy)
        assert participant.policy_generation == start + 2

    def test_remove_unknown_policy_rejected(self):
        with pytest.raises(PolicyError):
            physical().remove_outbound(match(dstport=80) >> fwd("B"))
        with pytest.raises(PolicyError):
            physical().remove_inbound(match(dstport=80) >> fwd(1))

    def test_clear_policies(self):
        participant = physical()
        participant.add_outbound(match(dstport=80) >> fwd("B"))
        participant.clear_policies()
        assert not participant.has_policies
        generation = participant.policy_generation
        participant.clear_policies()  # no-op, no bump
        assert participant.policy_generation == generation

    def test_clause_cache_invalidation(self):
        participant = physical()
        participant.add_outbound(match(dstport=80) >> fwd("B"))
        assert len(participant.outbound_clauses()) == 1
        participant.add_outbound(match(dstport=443) >> fwd("C"))
        assert len(participant.outbound_clauses()) == 2
        assert participant.outbound_targets() == ("B", "C")

    def test_inbound_clauses_cached_separately(self):
        participant = physical(ports=(4, 7))
        participant.add_outbound(match(dstport=80) >> fwd("B"))
        participant.add_inbound(match(srcip="0.0.0.0/1") >> fwd(7))
        assert len(participant.outbound_clauses()) == 1
        assert len(participant.inbound_clauses()) == 1
