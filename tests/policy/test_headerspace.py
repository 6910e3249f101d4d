"""Unit and property tests for header-space intersection and subsumption."""

import pytest
from hypothesis import given

from repro.exceptions import FieldError
from repro.net.addresses import IPv4Prefix
from repro.net.packet import Packet
from repro.policy.headerspace import (WILDCARD, HeaderSpace, coerce_constraint,
                                      value_mask)
from repro.policy.policies import match

from tests.policy.strategies import header_spaces, packets


class TestConstraintCoercion:
    def test_ip_field_accepts_prefix_text(self):
        assert coerce_constraint("dstip", "10.0.0.0/8") == IPv4Prefix("10.0.0.0/8")

    def test_ip_field_address_becomes_slash_32(self):
        assert coerce_constraint("dstip", "10.0.0.1") == IPv4Prefix("10.0.0.1/32")

    def test_ip_field_accepts_int(self):
        assert coerce_constraint("srcip", 0x0A000001) == IPv4Prefix("10.0.0.1/32")

    def test_int_field_rejects_negative(self):
        with pytest.raises(FieldError):
            coerce_constraint("dstport", -1)

    def test_int_field_rejects_bool(self):
        with pytest.raises(FieldError):
            coerce_constraint("dstport", True)

    def test_unknown_field_rejected(self):
        with pytest.raises(FieldError):
            coerce_constraint("vlan", 1)


class TestNoBoolIsAnAddress:
    """``True`` is an int to Python, but no address: a match or a packet
    given one on an address field is refused, as every int field does."""

    @pytest.mark.parametrize("field", ["srcip", "dstip", "srcmac", "dstmac"])
    @pytest.mark.parametrize("value", [True, False])
    def test_match_and_packet_reject_a_bool(self, field, value):
        with pytest.raises(FieldError):
            match(**{field: value})
        with pytest.raises(FieldError):
            Packet(**{field: value})
        with pytest.raises(FieldError):
            Packet(port=1).modify(**{field: value})


class TestValueMask:
    """Every constraint reads as one OpenFlow ``(value, mask)``."""

    def test_a_prefix_is_its_network_and_netmask(self):
        assert value_mask(IPv4Prefix("10.1.0.0/16")) == (0x0A010000, 0xFFFF0000)
        assert value_mask(IPv4Prefix("0.0.0.0/0")) == (0, 0)
        assert value_mask(IPv4Prefix("10.0.0.1/32")) == (0x0A000001, 0xFFFFFFFF)

    def test_an_exact_value_pins_every_bit(self):
        assert value_mask(coerce_constraint("dstport", 80)) == (80, -1)
        assert value_mask(coerce_constraint(
            "dstmac", "a2:00:00:00:00:01")) == (0xA20000000001, -1)


class TestHeaderSpaceMatching:
    def test_wildcard_matches_everything(self):
        assert WILDCARD.matches(Packet())
        assert WILDCARD.is_wildcard

    def test_exact_match(self):
        space = HeaderSpace(dstport=80)
        assert space.matches(Packet(dstport=80))
        assert not space.matches(Packet(dstport=443))

    def test_missing_field_does_not_match(self):
        assert not HeaderSpace(dstport=80).matches(Packet(port=1))

    def test_prefix_match(self):
        space = HeaderSpace(dstip="10.0.0.0/8")
        assert space.matches(Packet(dstip="10.9.9.9"))
        assert not space.matches(Packet(dstip="11.0.0.1"))

    def test_conjunction_of_fields(self):
        space = HeaderSpace(port=1, dstport=80)
        assert space.matches(Packet(port=1, dstport=80))
        assert not space.matches(Packet(port=2, dstport=80))


class TestIntersect:
    def test_disjoint_exact_values_give_none(self):
        assert HeaderSpace(dstport=80).intersect(HeaderSpace(dstport=443)) is None

    def test_different_fields_merge(self):
        merged = HeaderSpace(dstport=80).intersect(HeaderSpace(port=1))
        assert merged == HeaderSpace(dstport=80, port=1)

    def test_nested_prefixes_take_longer(self):
        merged = HeaderSpace(dstip="10.0.0.0/8").intersect(HeaderSpace(dstip="10.1.0.0/16"))
        assert merged == HeaderSpace(dstip="10.1.0.0/16")

    def test_disjoint_prefixes_give_none(self):
        left = HeaderSpace(dstip="10.0.0.0/8")
        assert left.intersect(HeaderSpace(dstip="11.0.0.0/8")) is None

    def test_wildcard_is_identity(self):
        space = HeaderSpace(dstport=80)
        assert WILDCARD.intersect(space) == space
        assert space.intersect(WILDCARD) == space

    @given(header_spaces(), header_spaces())
    def test_intersect_symmetric_property(self, left, right):
        assert left.intersect(right) == right.intersect(left)

    @given(header_spaces(), header_spaces())
    def test_overlaps_is_a_non_empty_intersection_property(self, left, right):
        assert left.overlaps(right) == (left.intersect(right) is not None)

    @given(header_spaces(), header_spaces(), packets())
    def test_intersect_is_conjunction_property(self, left, right, packet):
        merged = left.intersect(right)
        both = left.matches(packet) and right.matches(packet)
        if merged is None:
            assert not both
        else:
            assert merged.matches(packet) == both


class TestCovers:
    def test_wildcard_covers_all(self):
        assert WILDCARD.covers(HeaderSpace(dstport=80))

    def test_specific_does_not_cover_wildcard(self):
        assert not HeaderSpace(dstport=80).covers(WILDCARD)

    def test_prefix_covers_longer_prefix(self):
        assert HeaderSpace(dstip="10.0.0.0/8").covers(HeaderSpace(dstip="10.1.0.0/16"))
        assert not HeaderSpace(dstip="10.1.0.0/16").covers(HeaderSpace(dstip="10.0.0.0/8"))

    @given(header_spaces(), header_spaces(), packets())
    def test_covers_implies_match_subset_property(self, left, right, packet):
        if left.covers(right) and right.matches(packet):
            assert left.matches(packet)

    @given(header_spaces(), header_spaces())
    def test_covers_consistent_with_intersection_property(self, left, right):
        if left.covers(right):
            assert left.intersect(right) == right


class TestManipulation:
    def test_with_constraint(self):
        space = HeaderSpace(dstport=80).with_constraint("port", 1)
        assert space == HeaderSpace(dstport=80, port=1)

    def test_with_conflicting_constraint_gives_none(self):
        assert HeaderSpace(dstport=80).with_constraint("dstport", 443) is None

    def test_without_field(self):
        assert HeaderSpace(dstport=80, port=1).without_field("port") == HeaderSpace(dstport=80)
        assert HeaderSpace(dstport=80).without_field("port") == HeaderSpace(dstport=80)

    def test_concretise_picks_representative(self):
        space = HeaderSpace(dstip="10.0.0.0/8", dstport=80)
        packet = space.concretise(port=1)
        assert space.matches(packet)
        assert packet.port == 1

    def test_items_sorted_uses_canonical_field_order(self):
        space = HeaderSpace(dstport=80, port=1, srcip="10.0.0.0/8")
        names = [name for name, _ in space.items_sorted()]
        assert names == ["port", "srcip", "dstport"]

    def test_equality_and_hash(self):
        left = HeaderSpace(dstport=80, port=1)
        right = HeaderSpace(port=1, dstport=80)
        assert left == right and hash(left) == hash(right)

    def test_repr_wildcard(self):
        assert repr(WILDCARD) == "HeaderSpace(*)"
