"""Property tests for :mod:`repro.policy.headerspace` subsumption.

The static analyzer's soundness rests on ``covers`` / ``intersect``
being a faithful region algebra — a dead-clause verdict is exactly a
chain of ``covers`` facts. These properties pin the algebra down over
randomly drawn spaces: CIDR nesting is subsumption, the wildcard is the
top element, empty intersections mean genuinely disjoint spaces, and
every non-empty intersection is covered by (and matches) both operands.
The atoms a field's constraints split it into are the brute-force
partition of its values by which constraints hold.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import IPv4Prefix
from repro.policy.headerspace import (WILDCARD, HeaderSpace, admits, atoms,
                                      value_mask)
from tests.policy.strategies import (
    clustered_prefixes,
    header_spaces,
    packets,
    transport_ports,
)

ip_values = st.integers(min_value=0, max_value=0xFFFFFFFF)


@st.composite
def nested_prefix_pairs(draw):
    """(shorter, longer) with the longer prefix inside the shorter one."""
    outer_length = draw(st.integers(min_value=0, max_value=24))
    extra = draw(st.integers(min_value=1, max_value=32 - outer_length))
    network = draw(ip_values)
    outer = IPv4Prefix(network=network, length=outer_length)
    inner = IPv4Prefix(network=network, length=outer_length + extra)
    return outer, inner


class TestNestedCidrCovers:
    @settings(max_examples=120, deadline=None)
    @given(nested_prefix_pairs())
    def test_shorter_prefix_covers_nested_longer_prefix(self, pair):
        outer, inner = pair
        assert HeaderSpace(dstip=outer).covers(HeaderSpace(dstip=inner))

    @settings(max_examples=120, deadline=None)
    @given(nested_prefix_pairs())
    def test_strictly_longer_prefix_never_covers_its_parent(self, pair):
        outer, inner = pair
        assert not HeaderSpace(dstip=inner).covers(HeaderSpace(dstip=outer))

    @settings(max_examples=120, deadline=None)
    @given(clustered_prefixes)
    def test_covers_is_reflexive_on_prefixes(self, prefix):
        assert HeaderSpace(dstip=prefix).covers(HeaderSpace(dstip=prefix))


class TestWildcardVersusExact:
    @settings(max_examples=120, deadline=None)
    @given(header_spaces())
    def test_wildcard_covers_everything(self, space):
        assert WILDCARD.covers(space)
        assert WILDCARD.intersect(space) == space

    @settings(max_examples=120, deadline=None)
    @given(header_spaces())
    def test_constrained_space_never_covers_the_wildcard(self, space):
        if space.is_wildcard:
            assert space.covers(WILDCARD)
        else:
            assert not space.covers(WILDCARD)

    @settings(max_examples=120, deadline=None)
    @given(packets())
    def test_wildcard_matches_every_packet(self, packet):
        assert WILDCARD.matches(packet)


class TestEmptyIntersections:
    @settings(max_examples=120, deadline=None)
    @given(transport_ports, transport_ports)
    def test_distinct_exact_values_are_disjoint(self, left, right):
        a = HeaderSpace(dstport=left)
        b = HeaderSpace(dstport=right)
        if left == right:
            assert a.intersect(b) == a
        else:
            assert a.intersect(b) is None

    @settings(max_examples=120, deadline=None)
    @given(clustered_prefixes, clustered_prefixes)
    def test_prefix_intersection_mirrors_cidr_overlap(self, left, right):
        result = HeaderSpace(dstip=left).intersect(HeaderSpace(dstip=right))
        if left.overlaps(right):
            longer = left if left.length >= right.length else right
            assert result == HeaderSpace(dstip=longer)
        else:
            assert result is None

    @settings(max_examples=120, deadline=None)
    @given(header_spaces(), transport_ports)
    def test_disjoint_on_one_field_kills_the_whole_space(self, space, port):
        constrained = space.with_constraint("dstport", port)
        if constrained is None:  # space already pinned a different port
            return
        other_port = 7777  # never drawn by transport_ports
        assert constrained.intersect(
            HeaderSpace(dstport=other_port)) is None


class TestIntersectionSemantics:
    @settings(max_examples=200, deadline=None)
    @given(header_spaces(), header_spaces())
    def test_both_operands_cover_a_non_empty_intersection(self, a, b):
        result = a.intersect(b)
        if result is not None:
            assert a.covers(result)
            assert b.covers(result)

    @settings(max_examples=200, deadline=None)
    @given(header_spaces(), header_spaces())
    def test_intersection_is_commutative(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @settings(max_examples=200, deadline=None)
    @given(header_spaces(), header_spaces(), packets())
    def test_intersection_matches_exactly_the_common_packets(self, a, b,
                                                            packet):
        result = a.intersect(b)
        both = a.matches(packet) and b.matches(packet)
        if result is None:
            assert not both
        else:
            assert result.matches(packet) == both

    @settings(max_examples=120, deadline=None)
    @given(header_spaces())
    def test_concretised_witness_matches_its_space(self, space):
        witness = space.concretise(port=0)
        assert space.matches(witness)


#: A /28 to enumerate: the atoms of constraints inside and around it,
#: narrowed to it, are checked value by value.
SMALL = IPv4Prefix("10.0.0.16/28")

small_prefixes = st.builds(
    lambda length, offset: IPv4Prefix(network=0x0A000000 + offset,
                                      length=length),
    st.integers(min_value=23, max_value=32),
    st.integers(min_value=0, max_value=63))


def brute_force(field, constraints, values):
    """``values`` grouped by which of ``constraints`` hold for each."""
    blocks = {}
    for value in values:
        signature = tuple(admits(constraint, value)
                          for constraint in constraints)
        blocks.setdefault(signature, []).append(value)
    return sorted(blocks.values())


def check_atoms(field, constraints, values, **narrowing):
    """The atoms are the brute-force partition of ``values`` (all of the
    field's values, or all up to a point past every constraint): one atom
    per block, each inhabited by its representative, the least value of
    its block, which its constraint holds — and the rest's none does."""
    found = atoms(field, [value_mask(constraint) for constraint in constraints],
                  **narrowing)
    blocks = brute_force(field, constraints, values)
    block_of = {value: index for index, block in enumerate(blocks)
                for value in block}
    assert len(found) == len(blocks)
    assert sorted(block_of[rep] for _, rep in found) == list(range(len(blocks)))
    for pair, rep in found:
        assert rep == blocks[block_of[rep]][0]
        held = [constraint for constraint in constraints
                if admits(constraint, rep)]
        if pair is None:
            assert held == []
        else:
            assert rep & pair[1] == pair[0]


class TestAtomsAreTheBruteForcePartition:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(small_prefixes, max_size=8))
    def test_prefixes_narrowed_to_a_small_base(self, prefixes):
        check_atoms("dstip", prefixes,
                    range(SMALL.network_int, SMALL.network_int + 16),
                    base=value_mask(SMALL))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=6),
           st.sets(st.integers(min_value=0, max_value=9), max_size=6))
    def test_exact_values_over_a_finite_domain(self, values, domain):
        check_atoms("port", values, sorted(domain), domain=domain)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=6))
    def test_exact_values_over_every_int(self, values):
        # Past 8 every value is the rest's, as 8 is unless named.
        check_atoms("dstport", values, range(0, 9))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=4), max_size=4))
    def test_the_rest_of_a_mac_field_starts_at_one(self, values):
        # No station owns the all-zero MAC: the rest is picked from 1 on.
        from repro.net.mac import MacAddress
        check_atoms("dstmac", [MacAddress(value) for value in values],
                    range(1, 6))
