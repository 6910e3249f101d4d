"""Unit and property tests for IPv4 address/prefix arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import AddressError
from repro.net.addresses import DEFAULT_ROUTE, IPv4Address, IPv4Prefix

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
lengths = st.integers(min_value=0, max_value=32)
prefixes = st.builds(lambda n, l: IPv4Prefix(network=n, length=l), addresses, lengths)


class TestIPv4Address:
    def test_parses_dotted_quad(self):
        assert int(IPv4Address("10.0.0.1")) == 0x0A000001

    def test_round_trips_text(self):
        assert str(IPv4Address("192.168.1.254")) == "192.168.1.254"

    def test_accepts_integer(self):
        assert str(IPv4Address(0xC0A80101)) == "192.168.1.1"

    def test_copy_constructor(self):
        original = IPv4Address("8.8.8.8")
        assert IPv4Address(original) == original

    @pytest.mark.parametrize("bad", ["10.0.0", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", ""])
    def test_rejects_malformed_text(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    @pytest.mark.parametrize("bad", [-1, 1 << 32])
    def test_rejects_out_of_range_int(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    def test_rejects_other_types(self):
        with pytest.raises(AddressError):
            IPv4Address(1.5)

    def test_ordering(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")
        assert IPv4Address("10.0.0.1") <= IPv4Address("10.0.0.1")

    def test_hashable_and_equal(self):
        assert {IPv4Address("1.1.1.1"), IPv4Address("1.1.1.1")} == {IPv4Address("1.1.1.1")}

    def test_addition(self):
        assert IPv4Address("10.0.0.1") + 9 == IPv4Address("10.0.0.10")

    def test_in_prefix(self):
        assert IPv4Address("10.1.2.3").in_prefix(IPv4Prefix("10.0.0.0/8"))

    @given(addresses)
    def test_text_round_trip_property(self, value):
        assert int(IPv4Address(str(IPv4Address(value)))) == value


class TestIPv4Prefix:
    def test_parses_cidr(self):
        prefix = IPv4Prefix("10.0.0.0/8")
        assert prefix.length == 8
        assert str(prefix.network) == "10.0.0.0"

    def test_zeroes_host_bits(self):
        assert str(IPv4Prefix("10.1.2.3/8")) == "10.0.0.0/8"

    def test_network_and_length_kwargs(self):
        assert IPv4Prefix(network="10.0.0.0", length=8) == IPv4Prefix("10.0.0.0/8")

    @pytest.mark.parametrize("bad", ["10.0.0.0", "10.0.0.0/33", "10.0.0.0/x", "/8"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            IPv4Prefix(bad)

    def test_rejects_missing_parts(self):
        with pytest.raises(AddressError):
            IPv4Prefix(network="10.0.0.0")

    def test_netmask(self):
        assert str(IPv4Prefix("10.0.0.0/24").netmask) == "255.255.255.0"
        assert str(DEFAULT_ROUTE.netmask) == "0.0.0.0"

    def test_num_addresses(self):
        assert IPv4Prefix("10.0.0.0/30").num_addresses == 4
        assert DEFAULT_ROUTE.num_addresses == 1 << 32

    def test_first_last_address(self):
        prefix = IPv4Prefix("10.0.0.0/30")
        assert str(prefix.first_address) == "10.0.0.0"
        assert str(prefix.last_address) == "10.0.0.3"

    def test_contains_address(self):
        prefix = IPv4Prefix("10.0.0.0/8")
        assert prefix.contains_address("10.255.255.255")
        assert not prefix.contains_address("11.0.0.0")
        assert "10.0.0.1" not in IPv4Prefix("192.168.0.0/16")

    def test_contains_prefix(self):
        assert IPv4Prefix("10.0.0.0/8").contains_prefix(IPv4Prefix("10.1.0.0/16"))
        assert not IPv4Prefix("10.1.0.0/16").contains_prefix(IPv4Prefix("10.0.0.0/8"))
        assert IPv4Prefix("10.0.0.0/8") in IPv4Prefix("0.0.0.0/0")

    def test_overlaps(self):
        assert IPv4Prefix("10.0.0.0/8").overlaps(IPv4Prefix("10.2.0.0/16"))
        assert not IPv4Prefix("10.0.0.0/8").overlaps(IPv4Prefix("11.0.0.0/8"))

    def test_intersection_nests_or_empty(self):
        big = IPv4Prefix("10.0.0.0/8")
        small = IPv4Prefix("10.3.0.0/16")
        assert big.intersection(small) == small
        assert small.intersection(big) == small
        assert big.intersection(IPv4Prefix("11.0.0.0/8")) is None

    def test_supernet(self):
        assert IPv4Prefix("10.1.0.0/16").supernet(8) == IPv4Prefix("10.0.0.0/8")
        assert IPv4Prefix("10.1.0.0/16").supernet() == IPv4Prefix("10.0.0.0/15")
        with pytest.raises(AddressError):
            IPv4Prefix("10.0.0.0/8").supernet(16)

    def test_subnets(self):
        halves = list(IPv4Prefix("10.0.0.0/8").subnets())
        assert halves == [IPv4Prefix("10.0.0.0/9"), IPv4Prefix("10.128.0.0/9")]
        with pytest.raises(AddressError):
            list(IPv4Prefix("10.0.0.0/8").subnets(4))

    def test_addresses_iteration(self):
        listed = list(IPv4Prefix("10.0.0.0/31").addresses())
        assert listed == [IPv4Address("10.0.0.0"), IPv4Address("10.0.0.1")]

    def test_bit_at(self):
        prefix = IPv4Prefix("128.0.0.0/1")
        assert prefix.bit_at(0) == 1
        assert prefix.bit_at(1) == 0
        with pytest.raises(AddressError):
            prefix.bit_at(32)

    def test_ordering_and_hash(self):
        p1, p2 = IPv4Prefix("10.0.0.0/8"), IPv4Prefix("10.0.0.0/16")
        assert p1 < p2
        assert len({p1, IPv4Prefix("10.0.0.0/8")}) == 1

    def test_hash_is_kept_by_every_way_of_copying(self):
        import copy
        import pickle
        prefix = IPv4Prefix("10.1.2.0/24")
        assert hash(prefix) == hash((prefix.network_int, prefix.length))
        for twin in (IPv4Prefix(prefix), copy.deepcopy(prefix),
                     pickle.loads(pickle.dumps(prefix))):
            assert twin == prefix and hash(twin) == hash(prefix)
        assert prefix != IPv4Prefix("10.1.2.0/25") and prefix != "10.1.2.0/24"

    @given(prefixes)
    def test_text_round_trip_property(self, prefix):
        assert IPv4Prefix(str(prefix)) == prefix

    @given(prefixes, addresses)
    def test_containment_matches_range_property(self, prefix, value):
        inside = int(prefix.first_address) <= value <= int(prefix.last_address)
        assert prefix.contains_address(value) == inside

    @given(prefixes, prefixes)
    def test_intersection_symmetric_property(self, left, right):
        assert left.intersection(right) == right.intersection(left)

    @given(prefixes, prefixes)
    def test_nest_or_disjoint_property(self, left, right):
        if left.overlaps(right):
            assert left.contains_prefix(right) or right.contains_prefix(left)
        else:
            assert left.intersection(right) is None
