"""Tests for classifier reductions: they shrink tables without changing
first-match semantics (checked by hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import Packet
from repro.policy.classifier import Action, Classifier, Rule
from repro.policy.headerspace import WILDCARD, HeaderSpace
from repro.policy.optimize import (
    coalesce_adjacent,
    merge_drop_tail,
    optimize,
    remove_shadowed,
)

from tests.policy.strategies import header_spaces, packets, policies


def quadratic_remove_shadowed(classifier):
    """The reference: every rule against every kept earlier rule."""
    kept = []
    for rule in classifier.rules:
        if any(earlier.match.covers(rule.match) for earlier in kept):
            continue
        kept.append(rule)
    return Classifier(kept)


#: Matches shaped like SDX rules: ingress port and/or MAC tag, plus the
#: general fields of ``header_spaces``.
tagged_spaces = st.builds(
    lambda space, tag: space if tag is None else HeaderSpace(
        dstmac=f"a2:00:00:00:00:0{tag}", **dict(space.items())),
    header_spaces(), st.sampled_from([None, 1, 2, 3]))


def compiled_exchange(participants, prefixes, **kwargs):
    from repro.workloads.policies import generate_policies, install_assignments
    from repro.workloads.topology import generate_ixp
    ixp = generate_ixp(participants, prefixes, seed=0)
    sdx = ixp.build_controller(with_dataplane=False, reduce_table=False,
                               **kwargs)
    install_assignments(sdx, generate_policies(ixp, seed=1))
    return sdx.start().classifier


class TestRemoveShadowed:
    def test_drops_rule_under_wildcard(self):
        classifier = Classifier([
            Rule(WILDCARD, (Action(port=1),)),
            Rule(HeaderSpace(dstport=80), (Action(port=2),)),
        ])
        reduced = remove_shadowed(classifier)
        assert len(reduced) == 1
        assert reduced.rules[0].actions == (Action(port=1),)

    def test_keeps_unshadowed_rules(self):
        classifier = Classifier([
            Rule(HeaderSpace(dstport=80), (Action(port=2),)),
            Rule(HeaderSpace(dstport=443), (Action(port=3),)),
            Rule(WILDCARD, ()),
        ])
        assert len(remove_shadowed(classifier)) == 3

    def test_prefix_shadowing(self):
        classifier = Classifier([
            Rule(HeaderSpace(dstip="10.0.0.0/8"), (Action(port=1),)),
            Rule(HeaderSpace(dstip="10.1.0.0/16"), (Action(port=2),)),
            Rule(WILDCARD, ()),
        ])
        reduced = remove_shadowed(classifier)
        assert len(reduced) == 2


class TestIndexedShadowElimination:
    """The bucketed pass is the quadratic one, faster."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(tagged_spaces, max_size=25))
    def test_equals_quadratic_on_random_tables(self, spaces):
        classifier = Classifier(
            [Rule(space, (Action(port=index),))
             for index, space in enumerate(spaces)])
        assert (remove_shadowed(classifier).rules
                == quadratic_remove_shadowed(classifier).rules)

    def test_equals_quadratic_on_a_compiled_exchange(self):
        for use_vnh in (True, False):
            table = compiled_exchange(40, 400, use_vnh=use_vnh)
            # Seed some dead rules: the table again, below itself.
            doubled = Classifier(table.rules[:-1] + table.rules)
            assert (remove_shadowed(doubled).rules
                    == quadratic_remove_shadowed(doubled).rules
                    == remove_shadowed(table).rules)

    def test_covers_calls_stay_linear(self, monkeypatch):
        table = compiled_exchange(300, 6_000)
        assert len(table) >= 2_000
        calls = 0
        original = HeaderSpace.covers

        def counting(self, other):
            nonlocal calls
            calls += 1
            return original(self, other)

        monkeypatch.setattr(HeaderSpace, "covers", counting)
        remove_shadowed(table)
        assert calls <= 8 * len(table)


class TestMergeDropTail:
    def test_collapses_trailing_drops(self):
        classifier = Classifier([
            Rule(HeaderSpace(dstport=80), (Action(port=2),)),
            Rule(HeaderSpace(dstport=443), ()),
            Rule(HeaderSpace(dstport=22), ()),
            Rule(WILDCARD, ()),
        ])
        reduced = merge_drop_tail(classifier)
        assert len(reduced) == 2

    def test_no_wildcard_tail_untouched(self):
        classifier = Classifier([Rule(HeaderSpace(dstport=443), ())])
        assert merge_drop_tail(classifier) is classifier

    def test_keeps_drops_above_forwarding_rules(self):
        classifier = Classifier([
            Rule(HeaderSpace(dstport=443), ()),
            Rule(HeaderSpace(dstport=80), (Action(port=2),)),
            Rule(WILDCARD, ()),
        ])
        assert len(merge_drop_tail(classifier)) == 3


class TestCoalesceAdjacent:
    def test_merges_redundant_specific_rule(self):
        classifier = Classifier([
            Rule(HeaderSpace(dstip="10.1.0.0/16"), (Action(port=2),)),
            Rule(HeaderSpace(dstip="10.0.0.0/8"), (Action(port=2),)),
            Rule(WILDCARD, ()),
        ])
        reduced = coalesce_adjacent(classifier)
        assert len(reduced) == 2

    def test_keeps_distinct_actions(self):
        classifier = Classifier([
            Rule(HeaderSpace(dstip="10.1.0.0/16"), (Action(port=2),)),
            Rule(HeaderSpace(dstip="10.0.0.0/8"), (Action(port=3),)),
            Rule(WILDCARD, ()),
        ])
        assert len(coalesce_adjacent(classifier)) == 3


class TestOptimizePreservesSemantics:
    @settings(max_examples=100, deadline=None)
    @given(policies(max_depth=4), packets())
    def test_optimize_preserves_eval_property(self, policy, packet):
        compiled = policy.compile()
        reduced = optimize(compiled)
        assert reduced.eval(packet) == compiled.eval(packet)
        assert len(reduced) <= len(compiled)

    @settings(max_examples=100, deadline=None)
    @given(policies(max_depth=4))
    def test_optimize_keeps_total_property(self, policy):
        assert optimize(policy.compile()).is_total
