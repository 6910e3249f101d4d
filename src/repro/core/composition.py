"""Transformation 4: compose all participants into one switch policy.

The paper composes ``(PA'' + PB'' + PC'') >> (PA'' + PB'' + PC'')`` and
then shows (Section 4.3) that almost all of that work is avoidable:

* *Disjointness*: isolated policies match disjoint flow spaces (different
  ingress/virtual ports), so parallel composition degenerates to rule
  concatenation — :func:`stack_fallback`.
* *Pair pruning*: a stage-1 rule forwarding to virtual port v can only
  interact with stage-2 rules guarded on v, so the sequential composition
  is computed per matching pair — :func:`sequential_compose_indexed`
  indexes stage-2 rules by their port guard instead of trying every pair.
* *Memoization*: each participant's inbound pipeline is compiled once and
  reused for every sender (handled by the compiler's caching layer).

:func:`compose_naive` keeps the unoptimised cross-product path alive for
the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.policy.classifier import (
    Action,
    Classifier,
    ComposeStats,
    Rule,
    parallel_compose_many,
    sequence_rule,
    sequential_compose,
)
from repro.policy.headerspace import WILDCARD


def strip_drop_tail(classifier: Classifier) -> List[Rule]:
    """The classifier's rules without a trailing wildcard drop.

    Explicit drops on narrower matches are preserved — only the catch-all
    "nothing matched" tail is removed so another layer can take over.
    """
    rules = list(classifier.rules)
    while rules and rules[-1].is_drop and rules[-1].match.is_wildcard:
        rules.pop()
    return rules


def stack_fallback(layers: Sequence[Classifier]) -> Classifier:
    """Stack priority layers: earlier layers shadow later ones.

    Each layer's catch-all drop tail is removed so unmatched traffic falls
    through to the next layer; a single shared drop terminates the stack.
    This realises the paper's ``if_(matched, policy, default)`` without
    paying a negation-and-compose: within one layer the rules already
    appear before the fallback, so first-match order *is* the conditional.
    """
    rules: List[Rule] = []
    for layer in layers:
        rules.extend(strip_drop_tail(layer))
    rules.append(Rule(WILDCARD, ()))
    return Classifier(rules)


def sequential_compose_indexed(left: Classifier, right: Classifier,
                               stats: Optional[ComposeStats] = None
                               ) -> Classifier:
    """``left >> right`` with stage-2 rules indexed by their port guard.

    Semantically identical to
    :func:`repro.policy.classifier.sequential_compose`; the index
    (:meth:`~repro.policy.classifier.Classifier.rules_for_port`) merely
    skips (rule, rule) pairs whose port constraints are provably
    incompatible. Actions that leave the port unset fall back to scanning
    every right rule.
    """
    if stats is not None:
        stats.sequential_ops += 1
    return Classifier(compose_rules(left.rules, right, stats))


def compose_rules(rules: Iterable[Rule], right: Classifier,
                  stats: Optional[ComposeStats] = None) -> List[Rule]:
    """What ``rules``, in order, become through ``right``: the loop of
    :func:`sequential_compose_indexed`, for a part of a left classifier
    (the compiler composes the default layer one tag at a time)."""
    def candidates(action: Action) -> Sequence[Rule]:
        port = action.output_port
        return right.rules if port is None else right.rules_for_port(port)

    out: List[Rule] = []
    for rule in rules:
        out.extend(sequence_rule(rule, candidates, stats))
    return out


@dataclass
class CompositionReport:
    """What one composition run did (feeds the Section 4.3 evaluation)."""

    stats: ComposeStats = field(default_factory=ComposeStats)
    stage1_rules: int = 0
    stage2_rules: int = 0
    final_rules: int = 0


def compose_naive(out_parts: Sequence[Classifier], in_parts: Sequence[Classifier],
                  report: Optional[CompositionReport] = None) -> Classifier:
    """The unoptimised composition for the ablation benchmark.

    Parallel-composes every participant classifier on each side (the full
    cross product the paper starts from), then runs the unindexed
    sequential composition.
    """
    stats = report.stats if report is not None else None
    stage1 = parallel_compose_many(list(out_parts), stats)
    stage2 = parallel_compose_many(list(in_parts), stats)
    result = sequential_compose(stage1, stage2, stats)
    if report is not None:
        report.stage1_rules = len(stage1)
        report.stage2_rules = len(stage2)
        report.final_rules = len(result)
    return result
