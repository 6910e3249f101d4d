"""Tests for the composition layer, chiefly that the optimised operators
agree exactly with the naive ones (hypothesis-driven)."""

import pytest
from hypothesis import given, settings

from repro.net.packet import Packet
from repro.policy.classifier import (
    Classifier,
    ComposeStats,
    Rule,
    sequential_compose,
)
from repro.policy.headerspace import WILDCARD
from repro.policy.policies import fwd, match, modify
from repro.core.composition import (
    sequential_compose_indexed,
    stack_fallback,
    strip_drop_tail,
)

from tests.policy.strategies import packets, policies


class TestStripDropTail:
    def test_strips_wildcard_drops(self):
        classifier = (match(dstport=80) >> fwd(2)).compile()
        rules = strip_drop_tail(classifier)
        assert all(not (r.is_drop and r.match.is_wildcard) for r in rules)

    def test_keeps_specific_drops(self):
        from repro.policy.headerspace import HeaderSpace
        classifier = Classifier([
            Rule(HeaderSpace(dstport=80), ()),
            Rule(WILDCARD, ()),
        ])
        rules = strip_drop_tail(classifier)
        assert len(rules) == 1
        assert rules[0].is_drop


class TestStackFallback:
    def test_primary_shadows_secondary(self):
        primary = (match(dstport=80) >> fwd(2)).compile()
        secondary = fwd(9).compile()
        stacked = stack_fallback([primary, secondary])
        assert stacked.eval(Packet(port=1, dstport=80)) == {Packet(port=2, dstport=80)}
        assert stacked.eval(Packet(port=1, dstport=22)) == {Packet(port=9, dstport=22)}

    def test_explicit_drop_in_primary_shadows(self):
        from repro.policy.headerspace import HeaderSpace
        primary = Classifier([Rule(HeaderSpace(dstport=80), ())])
        secondary = fwd(9).compile()
        stacked = stack_fallback([primary, secondary])
        assert stacked.eval(Packet(port=1, dstport=80)) == frozenset()

    def test_empty_stack_drops(self):
        stacked = stack_fallback([])
        assert stacked.is_total
        assert stacked.eval(Packet(port=1)) == frozenset()

    def test_stack_disjoint_preserves_parts(self):
        part_a = (match(port=1) >> fwd(5)).compile()
        part_b = (match(port=2) >> fwd(6)).compile()
        stacked = stack_fallback([part_a, part_b])
        assert stacked.eval(Packet(port=1)) == {Packet(port=5)}
        assert stacked.eval(Packet(port=2)) == {Packet(port=6)}
        assert stacked.eval(Packet(port=3)) == frozenset()


class TestIndexedSequentialCompose:
    def test_matches_plain_on_port_structured_stages(self):
        stage1 = stack_fallback([
            (match(port=1, dstport=80) >> fwd(10_000)).compile(),
            (match(port=1) >> fwd(10_001)).compile(),
        ])
        stage2 = stack_fallback([
            (match(port=10_000) >> fwd(2)).compile(),
            (match(port=10_001) >> fwd(3)).compile(),
        ])
        plain = sequential_compose(stage1, stage2)
        indexed = sequential_compose_indexed(stage1, stage2)
        for packet in (Packet(port=1, dstport=80), Packet(port=1, dstport=22),
                       Packet(port=9, dstport=80)):
            assert plain.eval(packet) == indexed.eval(packet)

    def test_handles_multicast_left_rules(self):
        left = (fwd(4) + fwd(5)).compile()
        right = stack_fallback([
            (match(port=4) >> modify(dstport=80)).compile(),
            (match(port=5) >> modify(dstport=443)).compile(),
        ])
        plain = sequential_compose(left, right)
        indexed = sequential_compose_indexed(left, right)
        packet = Packet(port=1)
        assert plain.eval(packet) == indexed.eval(packet)

    def test_counts_fewer_pairs(self):
        stage1 = stack_fallback([
            (match(port=p, dstport=80) >> fwd(10_000 + p)).compile()
            for p in range(1, 20)
        ])
        stage2 = stack_fallback([
            (match(port=10_000 + p) >> fwd(100 + p)).compile()
            for p in range(1, 20)
        ])
        plain_stats, indexed_stats = ComposeStats(), ComposeStats()
        sequential_compose(stage1, stage2, plain_stats)
        sequential_compose_indexed(stage1, stage2, indexed_stats)
        assert indexed_stats.rule_pairs_examined < plain_stats.rule_pairs_examined

    @settings(max_examples=80, deadline=None)
    @given(policies(max_depth=3), policies(max_depth=3), packets())
    def test_agrees_with_plain_property(self, left, right, packet):
        left_c = left.compile()
        right_c = right.compile()
        plain = sequential_compose(left_c, right_c)
        indexed = sequential_compose_indexed(left_c, right_c)
        assert plain.eval(packet) == indexed.eval(packet)


def staged(left, right, packet):
    """``packet`` through ``left``, every output through ``right``."""
    return frozenset(out for mid in left.eval(packet)
                     for out in right.eval(mid))


@pytest.mark.parametrize(
    "compose", [sequential_compose, sequential_compose_indexed])
class TestEarlyExitComposition:
    """Composition stops at the first stage-2 rule that catches everything
    a stage-1 rule passes on — what it skips could never fire."""

    @settings(max_examples=150, deadline=None)
    @given(policies(max_depth=3), policies(max_depth=3), packets())
    def test_evaluates_as_stage1_then_stage2(self, compose, left, right,
                                             packet):
        left_c, right_c = left.compile(), right.compile()
        assert (compose(left_c, right_c).eval(packet)
                == staged(left_c, right_c, packet))

    @settings(max_examples=150, deadline=None)
    @given(policies(max_depth=3), policies(max_depth=3))
    def test_nothing_follows_a_rule_with_the_stage1_match(self, compose,
                                                          left, right):
        right_c = right.compile()
        for rule in left.compile().rules:
            if len(rule.actions) != 1:
                continue  # multicast: per-action lists are crossed
            emitted = compose(Classifier([rule]), right_c).rules
            whole = [out.match == rule.match for out in emitted]
            assert True not in whole[:-1]

    def test_fall_through_drop_is_not_pulled_back(self, compose):
        stage1 = Classifier([Rule(match(dstport=80).space, fwd(7).compile()
                                  .rules[0].actions)])
        stage2 = stack_fallback([(match(port=7) >> fwd(1)).compile()])
        emitted = compose(stage1, stage2).rules
        assert len(emitted) == 1 and not emitted[0].is_drop
