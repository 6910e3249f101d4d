"""Tests for classifier diffing (repro.southbound.diff)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.asn import AsPath
from repro.core.controller import SdxController
from repro.net.addresses import IPv4Prefix
from repro.policy.classifier import Action
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import HeaderSpace
from repro.policy.policies import fwd, match
from repro.southbound.diff import (
    DEFAULT_BAND_TOP,
    DROP_PRIORITY,
    PRIORITY_CEILING,
    FlowMod,
    FlowModOp,
    compute_block_delta,
    compute_delta,
    rule_key,
)


def rule(priority, actions=(), **constraints):
    return FlowRule(priority=priority, match=HeaderSpace(**constraints),
                    actions=actions)


FWD1 = (Action(port=1),)
FWD2 = (Action(port=2),)


#: Blocks over a small key space: (priority, dstport) pairs, each block's
#: keys its own, actions drawn per rule.
BLOCK = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 6),
                           st.sampled_from([FWD1, FWD2])),
                 max_size=5, unique_by=lambda t: t[:2])


@st.composite
def block_tables(draw):
    """(installed blocks, target blocks, reclaim): the target keeps some
    installed blocks as the same objects and brings fresh ones, with no
    key twice on either side."""
    def fresh(drawn, taken):
        block = tuple(rule(p, a, dstport=port) for p, port, a in drawn
                      if rule_key(rule(p, dstport=port)) not in taken)
        taken.update(map(rule_key, block))
        return block

    taken = set()
    installed = [fresh(draw(BLOCK), taken) for _ in range(draw(st.integers(0, 4)))]
    keep = [draw(st.booleans()) for _ in installed]
    taken = {rule_key(r) for block, kept in zip(installed, keep) if kept
             for r in block}
    target = [block for block, kept in zip(installed, keep) if kept]
    for _ in range(draw(st.integers(0, 3))):
        target.insert(draw(st.integers(0, len(target))),
                      fresh(draw(BLOCK), taken))
    reclaim = [rule(PRIORITY_CEILING + n, FWD1, dstport=n)
               for n in range(draw(st.integers(0, 2)))]
    return installed, target, reclaim


class TestComputeBlockDelta:
    @given(block_tables())
    def test_agrees_with_keying_every_rule(self, tables):
        installed, target, reclaim = tables
        delta, keyed = compute_block_delta(installed, target, reclaim)
        expected = compute_delta(
            [*reclaim, *(r for block in installed for r in block)],
            [r for block in target for r in block])
        assert delta.adds == expected.adds
        assert delta.modifies == expected.modifies
        assert sorted(delta.deletes, key=repr) == sorted(
            expected.deletes, key=repr)
        assert delta.unchanged == expected.unchanged
        shared = sum(len(b) for b in target if any(b is i for i in installed))
        assert keyed == (sum(map(len, installed)) + sum(map(len, target))
                         - 2 * shared)

    def test_a_shared_block_is_counted_not_keyed(self):
        kept = (rule(5, FWD1, dstport=80), rule(4, FWD1, dstport=81))
        old, new = (rule(3, FWD1, dstport=22),), (rule(3, FWD2, dstport=22),)
        delta, keyed = compute_block_delta([kept, old], [kept, new])
        assert delta.unchanged == 2 and keyed == 2
        assert [m.op for m in delta.modifies] == [FlowModOp.MODIFY]


class TestComputeDelta:
    def test_identical_tables_are_empty(self):
        rules = [rule(5, FWD1, dstport=80), rule(1, FWD2)]
        delta = compute_delta(rules, list(rules))
        assert delta.is_empty
        assert delta.unchanged == 2

    def test_added_rule(self):
        old = [rule(1, FWD2)]
        new = old + [rule(5, FWD1, dstport=80)]
        delta = compute_delta(old, new)
        assert [m.op for m in delta.adds] == [FlowModOp.ADD]
        assert delta.adds[0].key == (5, HeaderSpace(dstport=80))
        assert not delta.modifies and not delta.deletes
        assert delta.unchanged == 1

    def test_removed_rule(self):
        old = [rule(5, FWD1, dstport=80), rule(1, FWD2)]
        new = [rule(1, FWD2)]
        delta = compute_delta(old, new)
        assert [m.op for m in delta.deletes] == [FlowModOp.DELETE]
        assert delta.deletes[0].priority == 5

    def test_changed_actions_become_modify(self):
        old = [rule(5, FWD1, dstport=80)]
        new = [rule(5, FWD2, dstport=80)]
        delta = compute_delta(old, new)
        assert [m.op for m in delta.modifies] == [FlowModOp.MODIFY]
        assert delta.modifies[0].actions == FWD2
        assert delta.total == 1

    def test_same_match_new_priority_is_add_plus_delete(self):
        old = [rule(5, FWD1, dstport=80)]
        new = [rule(7, FWD1, dstport=80)]
        delta = compute_delta(old, new)
        assert len(delta.adds) == 1 and len(delta.deletes) == 1
        assert delta.adds[0].priority == 7
        assert delta.deletes[0].priority == 5

    def test_duplicate_installed_key_collapses_to_modify(self):
        first = rule(5, FWD1, dstport=80)
        shadow = rule(5, FWD2, dstport=80)
        delta = compute_delta([first, shadow], [first])
        assert [m.op for m in delta.modifies] == [FlowModOp.MODIFY]
        assert delta.modifies[0].actions == FWD1

    def test_duplicate_target_key_uses_first_instance(self):
        live = rule(5, FWD1, dstport=80)
        shadow = rule(5, FWD2, dstport=80)
        delta = compute_delta([], [live, shadow])
        assert len(delta.adds) == 1
        assert delta.adds[0].actions == FWD1

    def test_full_reinstall_cost(self):
        old = [rule(5, FWD1, dstport=80), rule(3, FWD2, dstport=22),
               rule(1, FWD2)]
        new = [rule(5, FWD2, dstport=80), rule(2, FWD1, dstport=443),
               rule(1, FWD2)]
        delta = compute_delta(old, new)
        # delete all three + add all three.
        assert delta.full_reinstall_cost == 6
        assert delta.total == 3  # one modify, one add, one delete
        assert delta.unchanged == 1

    def test_describe_mentions_every_kind(self):
        old = [rule(5, FWD1, dstport=80), rule(3, FWD2, dstport=22)]
        new = [rule(5, FWD2, dstport=80), rule(2, FWD1)]
        text = compute_delta(old, new).describe()
        assert "+1" in text and "~1" in text and "-1" in text


def exchange():
    """A holds two clauses, C one; B and D announce what they reach."""
    sdx = SdxController(with_dataplane=False)
    a = sdx.add_participant("A", 65001)
    sdx.add_participant("B", 65002)
    c = sdx.add_participant("C", 65003)
    sdx.add_participant("D", 65004)
    for index, prefix in enumerate(("11.0.0.0/8", "12.0.0.0/8", "13.0.0.0/8")):
        sdx.announce_route("B", IPv4Prefix(prefix), AsPath([65002, 100 + index]))
        sdx.announce_route("D", IPv4Prefix(prefix), AsPath([65004, 7, 100 + index]))
    a.add_outbound(match(dstport=80) >> fwd("D"))
    a.add_outbound(match(dstport=443) >> fwd("D"))
    c.add_outbound(match(srcport=53) >> fwd("D"))
    sdx.start()
    return sdx, a, c


def block_of(rules, handle):
    return [r for r in rules if r.match.get("port") == handle.port()
            and r.priority > DEFAULT_BAND_TOP]


class TestDiffClassifier:
    """The target's keys are the compiler's own, so the delta of two
    compilations is the edit between them and nothing else."""

    def test_fresh_install_descends_in_classifier_order(self):
        sdx, _a, _c = exchange()
        rules = sdx.last_compilation.rules
        delta = compute_delta([], rules)
        assert len(delta.adds) == len(rules) and delta.total == len(rules)
        for index, later in enumerate(rules):
            assert DROP_PRIORITY <= later.priority < PRIORITY_CEILING
            for earlier in rules[:index]:
                if earlier.match.intersect(later.match) is not None:
                    assert earlier.priority > later.priority
        assert rules[-1].priority == DROP_PRIORITY
        assert len({r.priority for r in rules}) < len(rules)  # levels, not ranks

    def test_noop_against_installed_classifier(self):
        """An unchanged block emits no FlowMod: a cold recompilation lands
        on the same keys, and a change to C's block leaves A's rules the
        very objects they were."""
        sdx, a, c = exchange()
        before = sdx.last_compilation.rules
        sdx.compiler.invalidate_inbound_cache()
        assert compute_delta(before, sdx.compiler.compile().rules).is_empty
        before = sdx.recompile().rules
        c.add_outbound(match(srcport=123) >> fwd("D"))
        after = sdx.last_compilation.rules
        assert all(old is new for old, new in zip(
            block_of(before, a), block_of(after, a), strict=True))
        delta = sdx.engine.last_delta
        assert delta.adds and not delta.modifies and not delta.deletes
        assert all(mod.match.get("srcport") == 123 for mod in delta.adds)

    def test_aligned_priorities_descend_strictly(self):
        """Along every chain of overlaps, before and after an edit — and
        what the edit does not overlap keeps its key."""
        sdx, a, _c = exchange()
        before = {rule_key(r) for r in sdx.last_compilation.rules}
        a.add_outbound(match(srcport=1234) >> fwd("D"))  # under both clauses
        after = sdx.last_compilation.rules
        assert before <= {rule_key(r) for r in after}  # survivors keep keys
        added = [r for r in after if rule_key(r) not in before]
        assert added and all(r.match.get("srcport") == 1234 for r in added)
        for rule in added:
            above = [r for r in block_of(after, a) if r is not rule
                     and r.match.intersect(rule.match) is not None]
            assert above and all(r.priority > rule.priority for r in above)

    def test_insertion_does_not_renumber_neighbours(self):
        """A clause put in front re-keys the rules it overlaps — they are
        one deeper now — and no other."""
        sdx, a, _c = exchange()
        web, tls = a.participant.outbound_policies
        front = match(dstport=80, srcport=1234) >> fwd("D")
        a.edit(lambda p: [p.remove_outbound(web), p.remove_outbound(tls),
                          p.add_outbound(front), p.add_outbound(web),
                          p.add_outbound(tls)])
        delta = sdx.engine.last_delta
        assert not delta.modifies
        assert {mod.match.get("dstport") for mod in delta.mods} == {80}
        moved = [mod for mod in delta.adds if "srcport" not in mod.match]
        assert moved and {(m.priority + 1, m.match) for m in moved} == {
            mod.key for mod in delta.deletes}
        assert delta.unchanged == len(sdx.table) - len(delta.adds)


class TestFlowMod:
    def test_key_and_rule_round_trip(self):
        base = rule(5, FWD1, dstport=80)
        mod = FlowMod.add(base)
        assert mod.key == rule_key(base)
        assert mod.rule == base

    def test_describe(self):
        assert compute_delta([], [rule(5, FWD1, dstport=80)]).adds[0] \
            .describe().startswith("add priority=5")
