"""Clause-form normalisation of participant policies.

Every SDX policy in the paper is a sum of guarded clauses::

    (match(dstport=80) >> fwd(B)) + (match(dstport=443) >> fwd(C))

Normalising to that form before compilation buys two things:

* **Exact default fall-through.** The paper combines a policy with its
  BGP defaults via ``if_(matched, policy, default)``; a clause's match
  predicate *is* the "matched" condition, so traffic failing the
  predicate (or the BGP eligibility guard) falls through to the default
  layer precisely, and an explicit ``match(...) >> drop`` clause still
  shadows it.
* **Cheap composition.** Clauses compile to small classifiers that stack
  by priority, with no cross products between a participant's own
  clauses.

Supported surface forms: parallel sums distribute; sequential chains are
``predicates… >> modifications… >> (fwd | drop)``; ``match`` predicates
may use the full predicate algebra (``&``, ``|``, ``~``,
``match_any``). A bare ``drop`` or ``identity`` summand is inert,
matching parallel-composition semantics. Matching *after* a modification
is rejected (write the post-state into the predicate instead).

Overlapping clauses of one participant resolve by priority (earlier
clause wins) rather than Pyretic's multicast union — the paper's
workloads assume unicast, mutually disjoint clauses, and the controller
keeps that behaviour predictable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from repro.core.dynamic import contains_dynamic
from repro.exceptions import PolicyError
from repro.policy.policies import (
    Drop,
    Forward,
    Identity,
    Modify,
    Parallel,
    Policy,
    PortRef,
    Predicate,
    Sequential,
    identity,
)


@dataclass(frozen=True)
class Clause:
    """One normalised policy clause: predicate, rewrites, disposition."""

    predicate: Predicate
    modifications: Tuple[Tuple[str, Any], ...] = ()
    target: Optional[PortRef] = None
    drops: bool = False

    @property
    def has_action(self) -> bool:
        """True if the clause rewrites, forwards, or drops."""
        return bool(self.modifications) or self.target is not None or self.drops

    @cached_property
    def dynamic(self) -> bool:
        """True if the predicate tracks the RIB (:mod:`repro.core.dynamic`)
        and has to be resolved anew at every compilation — decided once
        per clause, not per use."""
        return contains_dynamic(self.predicate)

    @cached_property
    def dstip(self):
        """:func:`clause_dstip` of the predicate — the same before and after
        dynamic nodes are resolved, which never become a plain ``match``."""
        return clause_dstip(self.predicate)

    def describe(self) -> str:
        """A compact human-readable rendering."""
        parts = [repr(self.predicate)]
        for name, value in self.modifications:
            parts.append(f"mod({name}={value!s})")
        if self.drops:
            parts.append("drop")
        elif self.target is not None:
            parts.append(f"fwd({self.target!r})")
        return " >> ".join(parts)


def clause_dstip(predicate: "Predicate"):
    """The destination prefix a predicate pins down, if determinable.

    Returns the intersection of every positive ``dstip`` constraint in a
    conjunction, or ``None`` when the predicate does not constrain
    ``dstip`` conjunctively (disjunctions and negations give up — callers
    must then assume the whole address space). The compiler uses this to
    emit eligibility guards only for prefix groups the clause can reach.
    """
    from repro.policy.policies import Conjunction, Match

    if isinstance(predicate, Match):
        return predicate.space.get("dstip")
    if isinstance(predicate, Conjunction):
        found = None
        for part in predicate.parts:
            constraint = clause_dstip(part)
            if constraint is None:
                continue
            if found is None:
                found = constraint
            else:
                merged = found.intersection(constraint)
                if merged is None:
                    return constraint  # unsatisfiable; any answer is safe
                found = merged
        return found
    return None


def normalize_policy(policy: Policy) -> List[Clause]:
    """Flatten a policy tree into an ordered list of clauses.

    Raises :class:`~repro.exceptions.PolicyError` for shapes outside the
    supported fragment (see module docstring).
    """
    return _normalize(policy)


def _normalize(policy: Policy) -> List[Clause]:
    if isinstance(policy, Parallel):
        clauses: List[Clause] = []
        for part in policy.parts:
            clauses.extend(_normalize(part))
        return clauses
    if isinstance(policy, Sequential):
        return _normalize_chain(list(policy.parts))
    return _normalize_chain([policy])


def _normalize_chain(parts: List[Policy]) -> List[Clause]:
    # Distribute over the first Parallel, keeping surrounding context.
    for index, part in enumerate(parts):
        if isinstance(part, Parallel):
            clauses: List[Clause] = []
            for branch in part.parts:
                expanded = parts[:index] + [branch] + parts[index + 1:]
                clauses.extend(_normalize_chain(expanded))
            return clauses
        if isinstance(part, Sequential):
            flattened = parts[:index] + list(part.parts) + parts[index + 1:]
            return _normalize_chain(flattened)

    predicates: List[Predicate] = []
    modifications: Dict[str, Any] = {}
    target: Optional[PortRef] = None
    drops = False
    seen_action = False

    for part in parts:
        if isinstance(part, (Identity,)):
            continue
        if isinstance(part, Drop):
            drops = True
            seen_action = True
            continue
        if isinstance(part, Predicate):
            if seen_action:
                raise PolicyError(
                    f"match after a modification/forward is unsupported: "
                    f"{part!r}; fold the condition into the leading predicate")
            if drops:
                raise PolicyError("nothing may follow drop in a clause")
            predicates.append(part)
            continue
        if isinstance(part, Modify):
            if drops:
                raise PolicyError("nothing may follow drop in a clause")
            seen_action = True
            modifications.update(part.action)
            continue
        if isinstance(part, Forward):
            if drops:
                raise PolicyError("nothing may follow drop in a clause")
            if target is not None:
                raise PolicyError(
                    f"clause has two forwarding targets ({target!r} and "
                    f"{part.port!r}); SDX clauses are unicast")
            seen_action = True
            target = part.port
            continue
        raise PolicyError(f"unsupported policy element in clause: {part!r}")

    if drops and (modifications or target is not None):
        raise PolicyError("a dropping clause cannot also modify or forward")

    if not predicates:
        predicate: Predicate = identity
    elif len(predicates) == 1:
        predicate = predicates[0]
    else:
        from repro.policy.policies import Conjunction
        predicate = Conjunction(tuple(predicates))

    clause = Clause(
        predicate=predicate,
        modifications=tuple(sorted(modifications.items())),
        target=target,
        drops=drops)
    if not clause.has_action and isinstance(predicate, Identity):
        # `identity` or an empty chain: inert under parallel composition.
        return []
    if clause.drops and isinstance(predicate, Identity):
        # A bare `drop` summand contributes nothing under parallel
        # composition; explicit blocking must carry a predicate.
        return []
    return [clause]
