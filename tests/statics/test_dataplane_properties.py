"""Property tests for the dataplane verifier's core machinery.

Two properties carry the whole design:

* :func:`walk_classes` walks the eager product of its atoms — the same
  classes in the same order, each block's winner the first rule matching
  every class in it — and that product is a true partition of its base
  region: random packets inside the base land in exactly one class, and
  every installed match is constant across each class (the
  representative's verdict speaks for the whole class);
* incremental re-verification after a random FlowMod delta renders
  byte-identically to a fresh whole-table analysis of the same state —
  also on levelled tables, whose rules pin the table's guard fields, and
  under block budgets small enough that most rules pass them.
"""

from itertools import product
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.flowtable import FlowTable
from repro.net.addresses import IPv4Prefix
from repro.net.mac import vmac_for_fec
from repro.net.packet import Packet
from repro.policy.classifier import Action
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import HeaderSpace, atoms, value_mask
from repro.southbound.diff import FlowMod
from repro.statics.dataplane import (
    CLASS_BUDGET,
    CommittedSpace,
    DataplaneVerifier,
    analyze_flowtable,
    walk_classes,
)

#: A deliberately small universe so random matches collide often.
PREFIXES = (
    IPv4Prefix("10.0.0.0/8"),
    IPv4Prefix("10.0.0.0/16"),
    IPv4Prefix("10.0.0.0/24"),
    IPv4Prefix("10.1.0.0/16"),
    IPv4Prefix("192.168.0.0/16"),
)
PORTS = (80, 443, 53)
TAGS = (vmac_for_fec(1), vmac_for_fec(2), vmac_for_fec(3))

#: Committed spaces to judge levelled tables against: tagged, as the
#: controller derives them, one untagged, and one label twice — a space
#: whose definition moves.
SPACES = tuple(
    CommittedSpace(label=label, space=space, ports=ports)
    for label, space, ports in (
        ("a", HeaderSpace(dstmac=TAGS[0], dstip=PREFIXES[1]), (1, 2, 3)),
        ("b", HeaderSpace(dstmac=TAGS[1], dstip=PREFIXES[0]), (1, 2)),
        ("b", HeaderSpace(dstmac=TAGS[1], dstip=PREFIXES[2]), (2,)),
        ("c", HeaderSpace(dstmac=TAGS[2]), (1, 3)),
        ("d", HeaderSpace(dstport=80), (1, 2))))

ips_in_universe = st.one_of(
    st.integers(min_value=0x0A000000, max_value=0x0A0001FF),
    st.integers(min_value=0xC0A80000, max_value=0xC0A800FF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)


@st.composite
def matches(draw):
    fields = {}
    if draw(st.booleans()):
        fields["dstip"] = draw(st.sampled_from(PREFIXES))
    if draw(st.booleans()):
        fields["dstport"] = draw(st.sampled_from(PORTS))
    if draw(st.booleans()):
        fields["srcport"] = draw(st.sampled_from(PORTS))
    return HeaderSpace(**fields)


@st.composite
def rule_sets(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    rules = []
    for index in range(count):
        actions = ((Action(port=draw(st.sampled_from((1, 2, 3)))),)
                   if draw(st.booleans()) else ())
        rules.append(FlowRule(priority=10 * (count - index),
                              match=draw(matches()), actions=actions))
    return rules


@st.composite
def probe_packets(draw):
    fields = {"port": draw(st.sampled_from((0, 1, 2)))}
    if draw(st.booleans()):
        fields["dstip"] = draw(ips_in_universe)
    if draw(st.booleans()):
        fields["dstport"] = draw(st.sampled_from(PORTS + (6_000,)))
    if draw(st.booleans()):
        fields["srcport"] = draw(st.sampled_from(PORTS + (6_001,)))
    return Packet(**fields)


@st.composite
def guarded_matches(draw):
    """A match that may also pin the ingress port and the tag."""
    fields = dict(draw(matches()).items())
    if draw(st.booleans()):
        fields["port"] = draw(st.sampled_from((1, 2)))
    if draw(st.booleans()):
        fields["dstmac"] = draw(st.sampled_from(TAGS))
    return HeaderSpace(**fields)


@st.composite
def guarded_actions(draw):
    """Drop, forward, or rewrite to a tag and forward."""
    choice = draw(st.sampled_from(("drop", "forward", "rewrite")))
    if choice == "drop":
        return ()
    if choice == "forward":
        return (Action(port=draw(st.sampled_from((1, 2, 3)))),)
    return (Action(dstmac=draw(st.sampled_from(TAGS)), port=3),)


@st.composite
def levelled_rules(draw):
    """Rules on three shared priorities: levels of several guards, rules
    of one level that overlap, and the wildcard drop at the bottom."""
    rules = [FlowRule(priority=draw(st.sampled_from((10, 20, 30))),
                      match=draw(guarded_matches()),
                      actions=draw(guarded_actions()))
             for _ in range(draw(st.integers(min_value=1, max_value=8)))]
    return rules + [FlowRule(priority=1, match=HeaderSpace(), actions=())]


class EagerProduct:
    """The reference the walk is held to: every class of ``base`` that
    ``rules`` induce, built whole as the product of the same atoms, with a
    key naming each class's atoms and a concrete representative."""

    def __init__(self, base, rules, port_domain=None):
        self.base = base
        overlapping = [rule for rule in rules if rule.match.overlaps(base)]
        constraints = {}
        for rule in overlapping:
            for fieldname, constraint in rule.match.items():
                constraints.setdefault(fieldname, []).append(
                    value_mask(constraint))
        if port_domain is not None:
            constraints.setdefault("port", [])
        self.fields = sorted(constraints)
        self.atoms = [
            atoms(name, constraints[name],
                  None if name not in base else value_mask(base[name]),
                  port_domain if name == "port" else None)
            for name in self.fields]
        fixed = {name: value_mask(constraint)[0]
                 for name, constraint in base.items()
                 if name not in constraints}
        self.classes = [
            (tuple(pair for pair, _ in combo),
             Packet(**fixed, **{name: rep for name, (_, rep)
                                in zip(self.fields, combo)}))
            for combo in product(*self.atoms)]

    def classify(self, packet):
        """The key of the class holding ``packet``, or ``None`` outside
        the base."""
        if not self.base.matches(packet):
            return None
        key = []
        for name, field_atoms in zip(self.fields, self.atoms):
            value = packet.get(name)
            # The narrowest atom holding the value: atoms nest or are
            # disjoint, and the narrower pins more bits.
            key.append(max(
                (pair for pair, _ in field_atoms if pair is not None
                 and value is not None and int(value) & pair[1] == pair[0]),
                key=lambda pair: pair[1], default=None))
        return tuple(key)


def first_match(rules, packet):
    return next((rule for rule in rules if rule.match.matches(packet)), None)


def walked(base, rules):
    """The walk's blocks laid over the classes of the eager product: one
    ``(block representative, winner)`` per class, in product order."""
    return [(packet, winner)
            for packet, winner, classes in walk_classes(base, rules)
            for _ in range(classes)]


bases = st.one_of(
    st.just(HeaderSpace()),
    st.builds(lambda prefix: HeaderSpace(dstip=prefix),
              st.sampled_from(PREFIXES)),
    st.builds(lambda port: HeaderSpace(dstport=port), st.sampled_from(PORTS)),
    st.builds(lambda tag: HeaderSpace(dstmac=tag), st.sampled_from(TAGS)))


class TestPartitionProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(rule_sets(), levelled_rules()), bases,
           st.one_of(st.none(), st.sampled_from(((1, 2), (0, 1, 2, 3)))))
    def test_walk_agrees_with_the_eager_product(self, rules, base,
                                                port_domain):
        eager = EagerProduct(base, rules, port_domain)
        blocks = list(walk_classes(base, rules, port_domain=port_domain))
        assert sum(classes for _, _, classes in blocks) == len(eager.classes)
        start = 0
        for packet, winner, classes in blocks:
            # A block's representative is its first class's, down to the
            # order of its fields (witnesses are rendered).
            assert repr(packet) == repr(eager.classes[start][1])
            for _, rep in eager.classes[start:start + classes]:
                assert winner is first_match(rules, rep)
            start += classes

    @settings(max_examples=80, deadline=None)
    @given(rule_sets(), probe_packets())
    def test_every_base_packet_lands_in_exactly_one_class(self, rules,
                                                          packet):
        eager = EagerProduct(HeaderSpace(), rules)
        key = eager.classify(packet)
        assert key is not None  # the base is the wildcard: total
        assert sum(1 for cls, _ in eager.classes if cls == key) == 1

    @settings(max_examples=80, deadline=None)
    @given(rule_sets(), probe_packets())
    def test_matches_are_constant_across_each_class(self, rules, packet):
        """The block holding a packet's class is won by the first rule
        matching the packet."""
        eager = EagerProduct(HeaderSpace(), rules)
        key = eager.classify(packet)
        index = next(index for index, (cls, _) in enumerate(eager.classes)
                     if cls == key)
        _, winner = walked(HeaderSpace(), rules)[index]
        assert winner is first_match(rules, packet)

    @settings(max_examples=80, deadline=None)
    @given(rule_sets())
    def test_representatives_classify_to_their_own_class(self, rules):
        eager = EagerProduct(HeaderSpace(), rules)
        start = 0
        for packet, _, classes in walk_classes(HeaderSpace(), rules):
            assert eager.classify(packet) == eager.classes[start][0]
            start += classes

    @settings(max_examples=80, deadline=None)
    @given(rule_sets(), st.sampled_from(PREFIXES))
    def test_constrained_base_keeps_the_partition_inside_it(self, rules,
                                                            prefix):
        base = HeaderSpace(dstip=prefix)
        for packet, _, _ in walk_classes(base, rules):
            assert base.matches(packet)


@st.composite
def covering(draw, rules):
    """An installed match with some of its constraints dropped: it
    covers that rule."""
    fields = dict(draw(st.sampled_from(rules)).match.items())
    kept = draw(st.lists(st.sampled_from(sorted(fields)), unique=True)
                ) if fields else []
    return HeaderSpace(**{name: fields[name] for name in kept})


@st.composite
def deltas(draw, rules, extras=matches(),
           priorities=st.integers(min_value=1, max_value=200),
           choices=("keep", "delete", "modify")):
    """A FlowMod batch over (and beyond) an installed rule set."""
    mods = []
    for rule in rules:
        choice = draw(st.sampled_from(choices))
        if choice == "delete":
            mods.append(FlowMod.delete(rule))
        elif choice == "modify":
            flipped = (() if rule.actions else (Action(port=9),))
            mods.append(FlowMod.modify(FlowRule(
                priority=rule.priority, match=rule.match, actions=flipped)))
    for extra in draw(st.lists(extras, max_size=3)):
        mods.append(FlowMod.add(FlowRule(
            priority=draw(priorities), match=extra, actions=(Action(port=5),))))
    return mods


@st.composite
def tables_with_deltas(draw):
    rules = draw(rule_sets())
    return rules, draw(deltas(rules))


class TestIncrementalEqualsFullProperty:
    @settings(max_examples=60, deadline=None)
    @given(tables_with_deltas())
    def test_random_delta_preserves_byte_identity(self, case):
        rules, mods = case
        table = FlowTable()
        for rule in rules:
            table.install(rule)
        verifier = DataplaneVerifier(table, mode="off")
        table.apply_delta(mods)
        verifier.verify_delta(mods)
        incremental = verifier.state_report()
        fresh = analyze_flowtable(table)
        assert incremental.to_json() == fresh.to_json()

    @settings(max_examples=30, deadline=None)
    @given(tables_with_deltas(), st.data())
    def test_chained_deltas_preserve_byte_identity(self, case, data):
        rules, mods = case
        table = FlowTable()
        for rule in rules:
            table.install(rule)
        verifier = DataplaneVerifier(table, mode="off")
        table.apply_delta(mods)
        verifier.verify_delta(mods)
        second = data.draw(deltas(tuple(table.rules)))
        table.apply_delta(second)
        verifier.verify_delta(second)
        assert (verifier.state_report().to_json()
                == analyze_flowtable(table).to_json())


class TestIncrementalEqualsFullOnLevelledTables:
    """Chained deltas over levelled tables, with the allocator index and
    the committed spaces moving between them: a tag that dies or comes
    alive re-verifies the rules matching it (off the guard index) and
    rewriting to it (off the rewrite index); a mod re-judges the spaces
    of its tag and the untagged ones. Budgets of 2 and 6 blocks put most
    rules past the budget, so their fallback verdicts must match too."""

    @settings(max_examples=80, deadline=None)
    @given(levelled_rules(), st.sampled_from((2, 6, CLASS_BUDGET)),
           st.data())
    def test_chained_deltas_preserve_byte_identity(self, rules, budget,
                                                   data):
        with mock.patch("repro.statics.dataplane.CLASS_BUDGET", budget):
            self.check_chained_deltas(rules, data)

    def check_chained_deltas(self, rules, data):
        table = FlowTable()
        for rule in rules:
            table.install(rule)
        live, committed = set(TAGS[:2]), {SPACES[0], SPACES[1], SPACES[4]}

        def index():
            return {tag: "fec" for tag in live}

        def spaces():
            return sorted(committed, key=repr)

        verifier = DataplaneVerifier(table, vmac_index=index,
                                     committed_spaces=spaces, mode="off")
        priorities = st.sampled_from((1, 10, 20, 30, 40))
        for _ in range(3):
            installed = tuple(table.rules)
            extras = (st.one_of(guarded_matches(), covering(installed))
                      if installed else guarded_matches())
            # Half the windows delete nothing: the rules ahead of every
            # rule only gain.
            choices = data.draw(st.sampled_from((
                ("keep", "modify"), ("keep", "delete", "modify"))))
            mods = data.draw(deltas(installed, extras, priorities, choices))
            table.apply_delta(mods)
            live ^= {data.draw(st.sampled_from(TAGS))}
            committed ^= {data.draw(st.sampled_from(SPACES))}
            verifier.verify_delta(mods)
            assert (verifier.state_report().to_json()
                    == analyze_flowtable(table, vmac_index=index(),
                                         committed_spaces=spaces()).to_json())
