"""OpenFlow-style flow rules emitted from compiled classifiers.

The classifier is priority-free (order *is* priority); switches want
explicit numeric priorities. :func:`to_flow_rules` assigns descending
priorities, and :func:`render_flow_table` pretty-prints the result the way
``ovs-ofctl dump-flows`` would, which the examples use for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.policy.classifier import Action, Classifier
from repro.policy.headerspace import HeaderSpace


@dataclass(frozen=True)
class FlowRule:
    """One switch flow-table entry.

    ``actions`` is a tuple of :class:`~repro.policy.classifier.Action`;
    empty means drop. Higher ``priority`` wins.
    """

    priority: int
    match: HeaderSpace
    actions: Tuple[Action, ...]

    @property
    def is_drop(self) -> bool:
        """True if matching packets are dropped."""
        return not self.actions

    def describe(self) -> str:
        """A single-line human-readable rendering."""
        if self.match.is_wildcard:
            match_text = "*"
        else:
            match_text = ",".join(
                f"{field}={value!s}" for field, value in self.match.items_sorted())
        if self.is_drop:
            action_text = "drop"
        else:
            parts = []
            for action in self.actions:
                sets = [
                    f"set:{field}={value!s}"
                    for field, value in sorted(action.items())
                    if field != "port"
                ]
                port = action.output_port
                if port is not None:
                    sets.append(f"output:{port}")
                parts.append(" ".join(sets) if sets else "pass")
            action_text = " | ".join(parts)
        return f"priority={self.priority} {match_text} -> {action_text}"


def to_flow_rules(classifier: Classifier, base_priority: int = 0) -> List[FlowRule]:
    """Assign descending priorities to a classifier's rules.

    The first (highest-priority) rule gets ``base_priority + len(rules)``
    so that tables installed later with a higher base can shadow earlier
    ones — the mechanism the two-stage incremental compiler relies on.
    """
    rules = classifier.rules
    top = base_priority + len(rules)
    return [
        FlowRule(priority=top - index, match=rule.match, actions=rule.actions)
        for index, rule in enumerate(rules)
    ]


def render_flow_table(rules: Iterable[FlowRule]) -> str:
    """A printable multi-line table of flow rules, highest priority first."""
    ordered = sorted(rules, key=lambda rule: -rule.priority)
    return "\n".join(rule.describe() for rule in ordered)
