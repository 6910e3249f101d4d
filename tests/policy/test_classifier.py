"""Tests for classifier compilation — the key property is that compiled
tables agree exactly with the policy interpreter on every packet."""

import pytest
from hypothesis import given, settings

from repro.exceptions import PolicyError
from repro.net.packet import Packet
from repro.policy.classifier import (
    DROP_CLASSIFIER,
    IDENTITY_ACTION,
    IDENTITY_CLASSIFIER,
    Action,
    Classifier,
    ComposeStats,
    Rule,
    parallel_compose,
    parallel_compose_many,
    sequential_compose,
)
from repro.policy.headerspace import WILDCARD, HeaderSpace
from repro.policy.policies import drop, fwd, match, modify

from tests.policy.strategies import packets, policies, predicates


class TestAction:
    def test_identity_action(self):
        assert IDENTITY_ACTION.is_identity
        packet = Packet(port=1)
        assert IDENTITY_ACTION.apply(packet) == packet

    def test_apply_assigns_fields(self):
        action = Action(port=2, dstport=80)
        result = action.apply(Packet(port=1))
        assert result == Packet(port=2, dstport=80)

    def test_then_composes_with_override(self):
        first = Action(port=2, dstport=80)
        second = Action(port=3)
        assert first.then(second) == Action(port=3, dstport=80)

    def test_then_identity_either_side(self):
        action = Action(port=2)
        assert action.then(IDENTITY_ACTION) == action
        assert IDENTITY_ACTION.then(action) == action

    def test_output_port(self):
        assert Action(port=4).output_port == 4
        assert Action(dstport=80).output_port is None

    def test_sets_field(self):
        assert Action(port=4).sets_field("port")
        assert not Action(port=4).sets_field("dstport")

    def test_hash_and_eq(self):
        assert {Action(port=1), Action(port=1)} == {Action(port=1)}


class TestRule:
    def test_drop_rule(self):
        rule = Rule(WILDCARD, ())
        assert rule.is_drop
        assert rule.apply(Packet(port=1)) == frozenset()

    def test_identity_rule(self):
        rule = Rule(WILDCARD, (IDENTITY_ACTION,))
        assert rule.is_identity

    def test_multicast_rule(self):
        rule = Rule(WILDCARD, (Action(port=2), Action(port=3)))
        assert rule.apply(Packet(port=1)) == {Packet(port=2), Packet(port=3)}


class TestClassifierBasics:
    def test_first_match_wins(self):
        classifier = Classifier([
            Rule(HeaderSpace(dstport=80), (Action(port=2),)),
            Rule(WILDCARD, (Action(port=3),)),
        ])
        assert classifier.eval(Packet(port=1, dstport=80)) == {Packet(port=2, dstport=80)}
        assert classifier.eval(Packet(port=1, dstport=22)) == {Packet(port=3, dstport=22)}

    def test_partial_classifier_raises(self):
        classifier = Classifier([Rule(HeaderSpace(dstport=80), ())])
        assert not classifier.is_total
        with pytest.raises(PolicyError):
            classifier.eval(Packet(port=1))

    def test_negate_flips_filters(self):
        web = match(dstport=80).compile().negate()
        assert web.eval(Packet(dstport=80)) == frozenset()
        assert web.eval(Packet(dstport=22)) == {Packet(dstport=22)}

    def test_negate_rejects_non_filter(self):
        with pytest.raises(PolicyError):
            fwd(2).compile().negate()

    def test_iteration_and_len(self):
        classifier = IDENTITY_CLASSIFIER
        assert len(classifier) == 1
        assert list(classifier)[0].is_identity


class TestCompilationAgreesWithEval:
    """The central compiler-correctness property."""

    @settings(max_examples=120, deadline=None)
    @given(policies(max_depth=4), packets())
    def test_policy_compile_matches_eval(self, policy, packet):
        assert policy.compile().eval(packet) == policy.eval(packet)

    @settings(max_examples=120, deadline=None)
    @given(predicates(max_depth=4), packets())
    def test_predicate_compile_matches_eval(self, predicate, packet):
        assert predicate.compile().eval(packet) == predicate.eval(packet)

    def test_paper_compiled_example(self):
        """The compiled cross-product from Section 3.1: A's outbound web
        policy composed with B's inbound source-split policy."""
        outbound = match(port=1, dstport=80) >> fwd(9)
        inbound = (match(port=9, srcip="0.0.0.0/1") >> fwd(5)) + (
            match(port=9, srcip="128.0.0.0/1") >> fwd(6))
        composed = (outbound >> inbound).compile()
        low = Packet(port=1, dstport=80, srcip="10.0.0.1")
        high = Packet(port=1, dstport=80, srcip="200.0.0.1")
        assert composed.eval(low) == {low.modify(port=5)}
        assert composed.eval(high) == {high.modify(port=6)}
        assert composed.eval(Packet(port=1, dstport=22, srcip="10.0.0.1")) == frozenset()


class TestComposeOperators:
    def test_parallel_compose_unions(self):
        left = fwd(2).compile()
        right = fwd(3).compile()
        combined = parallel_compose(left, right)
        assert combined.eval(Packet(port=1)) == {Packet(port=2), Packet(port=3)}

    def test_sequential_compose_chains_modifications(self):
        first = modify(dstport=80).compile()
        second = (match(dstport=80) >> fwd(2)).compile()
        combined = sequential_compose(first, second)
        assert combined.eval(Packet(port=1, dstport=22)) == {Packet(port=2, dstport=80)}

    def test_sequential_pullback_unsatisfiable(self):
        first = modify(dstport=22).compile()
        second = (match(dstport=80) >> fwd(2)).compile()
        combined = sequential_compose(first, second)
        assert combined.eval(Packet(port=1, dstport=80)) == frozenset()

    def test_sequential_multicast_left(self):
        left = (fwd(2) + fwd(3)).compile()
        right = (match(port=2) >> modify(dstport=80)).compile()
        combined = sequential_compose(left, right)
        # port-2 copy gets dstport rewritten; port-3 copy is dropped by right.
        assert combined.eval(Packet(port=1)) == {Packet(port=2, dstport=80)}

    def test_parallel_compose_many_empty_is_drop(self):
        assert parallel_compose_many([]).eval(Packet(port=1)) == frozenset()

    def test_parallel_compose_many_folds(self):
        combined = parallel_compose_many([fwd(2).compile(), fwd(3).compile(), drop.compile()])
        assert combined.eval(Packet(port=1)) == {Packet(port=2), Packet(port=3)}

    def test_stats_counting(self):
        stats = ComposeStats()
        parallel_compose(IDENTITY_CLASSIFIER, DROP_CLASSIFIER, stats)
        sequential_compose(IDENTITY_CLASSIFIER, DROP_CLASSIFIER, stats)
        assert stats.parallel_ops == 1
        assert stats.sequential_ops == 1
        assert stats.rule_pairs_examined >= 2
        merged = ComposeStats()
        merged.merge(stats)
        assert merged.parallel_ops == 1
