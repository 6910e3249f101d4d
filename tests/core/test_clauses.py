"""Tests for clause-form policy normalisation."""

import pytest

from repro.exceptions import PolicyError
from repro.policy.policies import drop, fwd, identity, match, modify
from repro.core.clauses import normalize_policy


class TestBasicForms:
    def test_single_forward_clause(self):
        clauses = normalize_policy(match(dstport=80) >> fwd("B"))
        assert len(clauses) == 1
        clause = clauses[0]
        assert clause.target == "B"
        assert not clause.drops
        assert clause.modifications == ()

    def test_parallel_sum_of_clauses(self):
        policy = (match(dstport=80) >> fwd("B")) + (match(dstport=443) >> fwd("C"))
        clauses = normalize_policy(policy)
        assert [clause.target for clause in clauses] == ["B", "C"]

    def test_modify_then_forward(self):
        clauses = normalize_policy(
            match(dstip="74.125.1.1") >> modify(dstip="10.0.0.9") >> fwd("B"))
        clause = clauses[0]
        assert dict(clause.modifications)["dstip"] is not None
        assert clause.target == "B"

    def test_drop_clause(self):
        clauses = normalize_policy(match(srcip="6.6.6.0/24") >> drop)
        assert clauses[0].drops
        assert clauses[0].target is None

    def test_bare_drop_is_inert(self):
        assert normalize_policy(drop) == []

    def test_bare_identity_is_inert(self):
        assert normalize_policy(identity) == []

    def test_bare_predicate_clause(self):
        clauses = normalize_policy(match(dstport=80))
        assert len(clauses) == 1
        assert clauses[0].target is None
        assert not clauses[0].has_action

    def test_bare_forward(self):
        clauses = normalize_policy(fwd("B"))
        assert clauses[0].target == "B"

    def test_bare_modify(self):
        clauses = normalize_policy(modify(dstport=8080))
        assert dict(clauses[0].modifications) == {"dstport": 8080}


class TestDistribution:
    def test_predicate_distributes_over_parallel(self):
        """The paper's load-balancer shape: outer match over inner sum."""
        policy = match(dstip="74.125.1.1") >> (
            (match(srcip="96.0.0.0/8") >> modify(dstip="74.1.1.1"))
            + (match(srcip="128.0.0.0/8") >> modify(dstip="74.2.2.2")))
        clauses = normalize_policy(policy)
        assert len(clauses) == 2
        for clause in clauses:
            # Outer predicate folded into each branch.
            from repro.net.packet import Packet
            assert not clause.predicate.holds(
                Packet(dstip="9.9.9.9", srcip="96.1.1.1"))

    def test_nested_sequential_flattens(self):
        policy = (match(dstport=80) >> (match(protocol=6) >> fwd("B")))
        clauses = normalize_policy(policy)
        assert len(clauses) == 1
        from repro.net.packet import Packet
        assert clauses[0].predicate.holds(Packet(dstport=80, protocol=6))
        assert not clauses[0].predicate.holds(Packet(dstport=80, protocol=17))

    def test_clause_order_preserved(self):
        policy = (match(dstport=1) >> fwd("B")) + (match(dstport=2) >> fwd("C")) + (
            match(dstport=3) >> fwd("D"))
        assert [c.target for c in normalize_policy(policy)] == ["B", "C", "D"]


class TestClauseDstip:
    def test_single_match(self):
        from repro.core.clauses import clause_dstip
        clauses = normalize_policy(match(dstip="20.0.0.0/8") >> fwd("B"))
        assert str(clause_dstip(clauses[0].predicate)) == "20.0.0.0/8"

    def test_conjunction_intersects(self):
        from repro.core.clauses import clause_dstip
        pred = match(dstip="20.0.0.0/8") & match(dstip="20.1.0.0/16")
        assert str(clause_dstip(pred)) == "20.1.0.0/16"

    def test_no_dstip_constraint(self):
        from repro.core.clauses import clause_dstip
        assert clause_dstip(match(dstport=80)) is None

    def test_disjunction_gives_up(self):
        from repro.core.clauses import clause_dstip
        pred = match(dstip="20.0.0.0/8") | match(dstip="30.0.0.0/8")
        assert clause_dstip(pred) is None

    def test_negation_gives_up(self):
        from repro.core.clauses import clause_dstip
        assert clause_dstip(~match(dstip="20.0.0.0/8")) is None

    def test_mixed_conjunction(self):
        from repro.core.clauses import clause_dstip
        pred = match(dstport=80) & match(dstip="20.0.0.0/8")
        assert str(clause_dstip(pred)) == "20.0.0.0/8"


class TestRejectedShapes:
    def test_match_after_modify_rejected(self):
        with pytest.raises(PolicyError):
            normalize_policy(modify(dstport=80) >> match(dstport=80) >> fwd("B"))

    def test_two_targets_rejected(self):
        with pytest.raises(PolicyError):
            normalize_policy(match(dstport=80) >> fwd("B") >> fwd("C"))

    def test_anything_after_drop_rejected(self):
        with pytest.raises(PolicyError):
            normalize_policy(match(dstport=80) >> drop >> fwd("B"))
        with pytest.raises(PolicyError):
            normalize_policy(match(dstport=80) >> drop >> modify(dstport=1))

    def test_drop_plus_modify_impossible(self):
        with pytest.raises(PolicyError):
            normalize_policy(match(dstport=80) >> modify(dstport=1) >> drop)

    def test_describe_is_readable(self):
        clause = normalize_policy(match(dstport=80) >> fwd("B"))[0]
        assert "fwd('B')" in clause.describe()
        dropped = normalize_policy(match(dstport=80) >> drop)[0]
        assert "drop" in dropped.describe()
