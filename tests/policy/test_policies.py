"""Tests for policy AST semantics — the paper's Section 3.1 examples plus
algebraic laws checked by hypothesis."""

import pytest
from hypothesis import given, settings

from repro.exceptions import PolicyError
from repro.net.packet import Packet
from repro.policy.policies import (
    Conjunction,
    Parallel,
    Sequential,
    drop,
    fwd,
    identity,
    if_,
    match,
    modify,
)

from tests.policy.strategies import packets, policies, predicates


def outputs(policy, packet):
    return policy.eval(packet)


class TestAtoms:
    def test_identity_passes_through(self):
        packet = Packet(port=1)
        assert outputs(identity, packet) == {packet}

    def test_drop_drops(self):
        assert outputs(drop, Packet(port=1)) == frozenset()

    def test_match_filters(self):
        web = match(dstport=80)
        assert outputs(web, Packet(dstport=80)) == {Packet(dstport=80)}
        assert outputs(web, Packet(dstport=443)) == frozenset()

    def test_fwd_moves_packet(self):
        assert outputs(fwd(3), Packet(port=1)) == {Packet(port=3)}

    def test_modify_rewrites(self):
        moved = outputs(modify(dstip="10.0.0.9"), Packet(dstip="10.0.0.1"))
        assert moved == {Packet(dstip="10.0.0.9")}

    def test_modify_requires_assignment(self):
        with pytest.raises(PolicyError):
            modify()

    def test_fwd_rejects_bad_port(self):
        with pytest.raises(PolicyError):
            fwd(1.5)
        with pytest.raises(PolicyError):
            fwd(True)


class TestComposition:
    def test_paper_application_specific_peering(self):
        """The Section 3.1 example: HTTP to port B(=2), HTTPS to C(=3)."""
        policy = (match(dstport=80) >> fwd(2)) + (match(dstport=443) >> fwd(3))
        assert outputs(policy, Packet(port=1, dstport=80)) == {Packet(port=2, dstport=80)}
        assert outputs(policy, Packet(port=1, dstport=443)) == {Packet(port=3, dstport=443)}
        assert outputs(policy, Packet(port=1, dstport=22)) == frozenset()

    def test_paper_inbound_traffic_engineering(self):
        """Section 3.1: split inbound traffic by source-address halves."""
        policy = (match(srcip="0.0.0.0/1") >> fwd(5)) + (match(srcip="128.0.0.0/1") >> fwd(6))
        low = Packet(port=1, srcip="10.0.0.1")
        high = Packet(port=1, srcip="200.0.0.1")
        assert outputs(policy, low) == {low.at_port(5)}
        assert outputs(policy, high) == {high.at_port(6)}

    def test_paper_load_balancer(self):
        """Section 3.1: rewrite anycast destination per client prefix."""
        policy = match(dstip="74.125.1.1") >> (
            (match(srcip="96.25.160.0/24") >> modify(dstip="74.125.224.161"))
            + (match(srcip="128.125.163.0/24") >> modify(dstip="74.125.137.139")))
        request = Packet(srcip="96.25.160.5", dstip="74.125.1.1")
        assert outputs(policy, request) == {request.modify(dstip="74.125.224.161")}
        other = Packet(srcip="1.2.3.4", dstip="74.125.1.1")
        assert outputs(policy, other) == frozenset()

    def test_sequential_pipes_outputs(self):
        policy = modify(dstport=80) >> match(dstport=80)
        packet = Packet(dstport=443)
        assert outputs(policy, packet) == {Packet(dstport=80)}

    def test_parallel_unions_and_multicasts(self):
        policy = fwd(2) + fwd(3)
        assert outputs(policy, Packet(port=1)) == {Packet(port=2), Packet(port=3)}

    def test_empty_parallel_drops(self):
        assert outputs(Parallel(()), Packet(port=1)) == frozenset()

    def test_empty_sequential_is_identity(self):
        packet = Packet(port=1)
        assert outputs(Sequential(()), packet) == {packet}

    def test_composites_flatten(self):
        nested = (fwd(1) + fwd(2)) + fwd(3)
        assert len(nested.parts) == 3
        chained = (match(dstport=80) >> fwd(1)) >> identity
        assert len(chained.parts) == 3

    def test_composition_rejects_non_policy(self):
        with pytest.raises(PolicyError):
            Parallel((fwd(1), "not a policy"))


class TestPredicateCombinators:
    def test_and(self):
        pred = match(dstport=80) & match(port=1)
        assert pred.holds(Packet(port=1, dstport=80))
        assert not pred.holds(Packet(port=2, dstport=80))

    def test_and_of_plain_matches_compiles_as_their_intersection(self):
        from repro.policy.classifier import DROP_CLASSIFIER, ComposeStats
        stats = ComposeStats()
        pred = Conjunction((match(port=1), match(dstport=80),
                            match(dstip="10.0.0.0/8")))
        one = match(port=1, dstport=80, dstip="10.0.0.0/8")
        assert pred.compile(stats).rules == one.compile().rules
        assert (match(port=1) & match(port=2)).compile(stats) is DROP_CLASSIFIER
        assert stats.sequential_ops == 0  # nothing was folded
        folded = (match(port=1) & ~match(dstport=80)).compile(stats)
        assert stats.sequential_ops > 0 and folded.is_total

    def test_or(self):
        pred = match(dstport=80) | match(dstport=443)
        assert pred.holds(Packet(dstport=443))
        assert not pred.holds(Packet(dstport=22))

    def test_not(self):
        pred = ~match(dstport=80)
        assert pred.holds(Packet(dstport=443))
        assert not pred.holds(Packet(dstport=80))

    def test_if_routes_by_condition(self):
        policy = if_(match(dstport=80), fwd(2), fwd(3))
        assert outputs(policy, Packet(port=1, dstport=80)) == {Packet(port=2, dstport=80)}
        assert outputs(policy, Packet(port=1, dstport=22)) == {Packet(port=3, dstport=22)}

    def test_if_default_else_is_identity(self):
        policy = if_(match(dstport=80), drop)
        packet = Packet(port=1, dstport=22)
        assert outputs(policy, packet) == {packet}

    def test_if_rejects_non_predicate(self):
        with pytest.raises(PolicyError):
            if_(fwd(1), identity)

    def test_match_rejects_space_plus_kwargs(self):
        from repro.policy.headerspace import HeaderSpace
        with pytest.raises(PolicyError):
            match(HeaderSpace(dstport=80), port=1)


class TestSymbolicPorts:
    def test_symbolic_fwd_collected(self):
        policy = (match(dstport=80) >> fwd("B")) + fwd(3)
        assert policy.symbolic_ports() == {"B"}

    def test_substitute_resolves(self):
        policy = (match(dstport=80) >> fwd("B")).substitute_ports({"B": 7})
        assert policy.symbolic_ports() == frozenset()
        assert outputs(policy, Packet(port=1, dstport=80)) == {Packet(port=7, dstport=80)}

    def test_symbolic_eval_raises(self):
        with pytest.raises(PolicyError):
            fwd("B").eval(Packet(port=1))

    def test_symbolic_compile_raises(self):
        with pytest.raises(PolicyError):
            fwd("B").compile()

    def test_unrelated_substitution_is_noop(self):
        policy = fwd("B").substitute_ports({"C": 9})
        assert policy.symbolic_ports() == {"B"}


class TestAlgebraicLaws:
    @settings(max_examples=60, deadline=None)
    @given(policies(), policies(), packets())
    def test_parallel_commutative(self, left, right, packet):
        assert (left + right).eval(packet) == (right + left).eval(packet)

    @settings(max_examples=60, deadline=None)
    @given(policies(), policies(), policies(), packets())
    def test_sequential_associative(self, a, b, c, packet):
        assert ((a >> b) >> c).eval(packet) == (a >> (b >> c)).eval(packet)

    @settings(max_examples=60, deadline=None)
    @given(policies(), packets())
    def test_identity_is_sequential_unit(self, policy, packet):
        assert (identity >> policy).eval(packet) == policy.eval(packet)
        assert (policy >> identity).eval(packet) == policy.eval(packet)

    @settings(max_examples=60, deadline=None)
    @given(policies(), packets())
    def test_drop_is_sequential_zero(self, policy, packet):
        assert (drop >> policy).eval(packet) == frozenset()
        assert (policy >> drop).eval(packet) == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(policies(), packets())
    def test_drop_is_parallel_unit(self, policy, packet):
        assert (policy + drop).eval(packet) == policy.eval(packet)

    @settings(max_examples=60, deadline=None)
    @given(predicates(), packets())
    def test_excluded_middle(self, predicate, packet):
        pred_result = predicate.holds(packet)
        assert (~predicate).holds(packet) == (not pred_result)
        assert (predicate | ~predicate).holds(packet)
        assert not (predicate & ~predicate).holds(packet)
