"""Predicate helpers layered on the core AST.

The core predicate classes live in :mod:`repro.policy.policies`; this
module re-exports them under the names used by the paper discussion and
adds :class:`MatchAny` — the field-in-set filter the SDX runtime inserts
for its guards: *ingress isolation* (``port`` in a participant's physical
ports) and the *BGP join* (``dstmac`` in the VMACs of the eligible
forwarding equivalence classes, or ``dstip`` in the eligible prefixes
themselves; Section 4.1, "enforcing consistency with BGP advertisements").

``MatchAny`` matters for performance: a naive ``match(v1) | match(v2)
| ...`` over *k* values costs *k* parallel compositions (quadratic rule
blowup during compilation), while this class compiles directly to *k*
prioritized rules.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.net.packet import Packet
from repro.policy.classifier import (
    IDENTITY_ACTION,
    Classifier,
    ComposeStats,
    Rule,
)
from repro.policy.headerspace import (
    WILDCARD,
    Constraint,
    HeaderSpace,
    admits,
    coerce_constraint,
    value_mask,
)
from repro.policy.policies import (
    Conjunction,
    Disjunction,
    Drop,
    Identity,
    Match,
    Negation,
    Predicate,
    drop,
    match,
)

#: Aliases matching Pyretic's vocabulary.
TruePredicate = Identity
FalsePredicate = Drop
MatchPredicate = Match

__all__ = [
    "Conjunction",
    "Disjunction",
    "FalsePredicate",
    "MatchAny",
    "MatchPredicate",
    "Negation",
    "Predicate",
    "TruePredicate",
    "match",
    "match_any",
]


class MatchAny(Predicate):
    """True when a field satisfies any constraint of a set: equals one of
    its values, or lies in one of its prefixes.

    The constraints are ordered most specific first — longer prefixes
    before shorter, exact values by value — so the compiled classifier's
    first-match semantics equal the predicate's even when prefixes nest.
    """

    def __init__(self, field: str, values: Iterable):
        self.field = field
        self.values: Tuple[Constraint, ...] = tuple(sorted(
            {coerce_constraint(field, value) for value in values},
            key=_specificity))

    def holds(self, packet: Packet) -> bool:
        value = packet.get(self.field)
        return any(admits(constraint, value) for constraint in self.values)

    def _compile(self, stats: Optional[ComposeStats]) -> Classifier:
        rules = [
            Rule(HeaderSpace(**{self.field: value}), (IDENTITY_ACTION,))
            for value in self.values
        ]
        rules.append(Rule(WILDCARD, ()))
        return Classifier(rules)

    def __repr__(self) -> str:
        shown = ", ".join(str(v) for v in self.values[:4])
        suffix = ", ..." if len(self.values) > 4 else ""
        return f"match_any({self.field} in {{{shown}{suffix}}})"


def _specificity(constraint: Constraint) -> Tuple[int, int]:
    """Sort key putting the constraint that pins more bits first, then
    the lower value."""
    value, mask = value_mask(constraint)
    return -mask, value


def match_any(field: str, values: Iterable) -> Predicate:
    """A predicate true when ``field`` satisfies any of ``values``.

    An empty set yields the false predicate (the SDX uses this when a
    next-hop exported no routes at all). A single exact value collapses
    to a plain :func:`match`; a single prefix stays a set.
    """
    collected = set(values)
    if not collected:
        return drop
    if len(collected) == 1:
        only = coerce_constraint(field, *collected)
        if value_mask(only)[1] == -1:
            return match(**{field: only})
    return MatchAny(field, collected)
