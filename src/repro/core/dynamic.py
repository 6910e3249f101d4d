"""Dynamic RIB-tracking predicates (Section 3.2, "grouping traffic based
on BGP attributes").

The paper's example selects "all traffic sent by YouTube servers" via
``RIB.filter('as_path', '.*43515$')``. A snapshot of that filter goes
stale as routes churn; :class:`RibPrefixSet` is the *live* version: the
predicate re-resolves against the owner's current Loc-RIB at every
compilation, so the YouTube prefix set tracks BGP automatically::

    edge.add_outbound(
        rib_match("srcip", "as_path", r".*43515$") >> fwd("Transcoder"))

A dynamic predicate cannot be evaluated or compiled until the compiler
binds it to its owner's RIB view — using one outside an installed policy
raises :class:`~repro.exceptions.PolicyError`.
"""

from __future__ import annotations

from typing import Optional

from repro.bgp.rib import RibView
from repro.exceptions import PolicyError
from repro.net.packet import IP_FIELDS, Packet
from repro.policy.classifier import Classifier, ComposeStats
from repro.policy.policies import (
    Conjunction,
    Disjunction,
    Negation,
    Predicate,
)
from repro.policy.predicates import match_any


class RibPrefixSet(Predicate):
    """True when an IP field lies in a prefix set defined by a live RIB
    attribute filter (re-evaluated at each compilation)."""

    def __init__(self, field: str, attribute: str, pattern: str):
        if field not in IP_FIELDS:
            raise PolicyError(
                f"rib_match needs an IP field (srcip/dstip), got {field!r}")
        self.field = field
        self.attribute = attribute
        self.pattern = pattern

    def resolve(self, view: RibView) -> Predicate:
        """The concrete prefix-set predicate for the current RIB."""
        prefixes = view.filter(self.attribute, self.pattern)
        return match_any(self.field, prefixes)

    def holds(self, packet: Packet) -> bool:
        """Dynamic predicates cannot be evaluated unresolved."""
        raise PolicyError(
            f"rib_match({self.field!r}, {self.attribute!r}, "
            f"{self.pattern!r}) is unresolved; install it through the SDX "
            f"policy API so the compiler can bind it to a RIB view")

    def _compile(self, stats: Optional[ComposeStats]) -> Classifier:
        raise PolicyError(
            f"cannot compile unresolved rib_match({self.pattern!r})")

    def __repr__(self) -> str:
        return (f"rib_match({self.field}, {self.attribute} ~ "
                f"{self.pattern!r})")


def rib_match(field: str, attribute: str, pattern: str) -> RibPrefixSet:
    """A live RIB-attribute predicate, e.g. all YouTube-originated space::

        rib_match("srcip", "as_path", r".*43515$")
    """
    return RibPrefixSet(field, attribute, pattern)


def contains_dynamic(predicate: Predicate) -> bool:
    """True if a predicate tree contains any unresolved dynamic node."""
    if isinstance(predicate, RibPrefixSet):
        return True
    return any(contains_dynamic(part) for part in predicate.children()
               if isinstance(part, Predicate))


def resolve_dynamic(predicate: Predicate, view: RibView) -> Predicate:
    """A copy of ``predicate`` with every dynamic node resolved against
    ``view`` (returns the original object when nothing is dynamic)."""
    if isinstance(predicate, RibPrefixSet):
        return predicate.resolve(view)
    if isinstance(predicate, Conjunction):
        return Conjunction(tuple(
            resolve_dynamic(part, view) for part in predicate.parts))
    if isinstance(predicate, Disjunction):
        return Disjunction(tuple(
            resolve_dynamic(part, view) for part in predicate.parts))
    if isinstance(predicate, Negation):
        return Negation(resolve_dynamic(predicate.inner, view))
    return predicate
