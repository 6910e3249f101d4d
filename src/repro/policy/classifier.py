"""Prioritized rule tables and their composition algebra.

A :class:`Classifier` is an ordered list of :class:`Rule` objects — the
intermediate representation between the policy AST and concrete OpenFlow
rules. Packet semantics are *first match wins*. Compiled classifiers are
always **total**: the last rule matches every packet, so evaluation never
falls off the end and negation is well-defined.

The two composition operators mirror Pyretic's compilation (Monsanto et
al., NSDI 2013):

* :func:`parallel_compose` — the rule-level cross product implementing
  ``p1 + p2`` (apply both policies, union the outputs).
* :func:`sequential_compose` — pulls each right-hand match back through the
  left-hand rule's actions, implementing ``p1 >> p2``.

These are exactly the operations whose cost Section 4.3 of the SDX paper
optimises, so the SDX compiler counts invocations through
:class:`ComposeStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping,
    Optional, Sequence, Tuple)

from repro.exceptions import PolicyError
from repro.net.packet import Packet, check_field, coerce_field_value
from repro.policy.headerspace import WILDCARD, HeaderSpace, admits


class Action(Mapping[str, Any]):
    """One forwarding action: a set of header-field assignments.

    The empty action is the identity (forward unmodified); an action that
    assigns ``port`` moves the packet. A rule with *no* actions drops.
    """

    __slots__ = ("_assignments", "_hash")

    def __init__(self, **assignments: Any):
        normalised = {
            name: coerce_field_value(name, value)
            for name, value in assignments.items()
        }
        object.__setattr__(self, "_assignments", normalised)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_dict(cls, assignments: Dict[str, Any]) -> "Action":
        action = cls()
        object.__setattr__(action, "_assignments", assignments)
        return action

    def __getitem__(self, name: str) -> Any:
        return self._assignments[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._assignments)

    def __len__(self) -> int:
        return len(self._assignments)

    @property
    def is_identity(self) -> bool:
        """True if this action leaves the packet untouched."""
        return not self._assignments

    @property
    def output_port(self) -> Optional[int]:
        """The port this action sends the packet to, if any."""
        return self._assignments.get("port")

    def apply(self, packet: Packet) -> Packet:
        """The packet after this action's assignments."""
        if not self._assignments:
            return packet
        return packet.modify(**{k: v for k, v in self._assignments.items()})

    def then(self, later: "Action") -> "Action":
        """The action equivalent to applying ``self`` then ``later``."""
        if later.is_identity:
            return self
        if self.is_identity:
            return later
        merged = dict(self._assignments)
        merged.update(later._assignments)
        return Action._from_dict(merged)

    def sets_field(self, name: str) -> bool:
        """True if this action assigns ``name``."""
        check_field(name)
        return name in self._assignments

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Action):
            return self._assignments == other._assignments
        return NotImplemented

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(frozenset(self._assignments.items()))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        if self.is_identity:
            return "Action(id)"
        inner = ", ".join(
            f"{name}={self._assignments[name]!s}" for name in sorted(self._assignments))
        return f"Action({inner})"


#: The identity action (forward unmodified).
IDENTITY_ACTION = Action()


def _dedup_actions(actions: Iterable[Action]) -> Tuple[Action, ...]:
    """Drop duplicate actions while preserving first-seen order."""
    return tuple(dict.fromkeys(actions))


@dataclass(frozen=True)
class Rule:
    """One prioritized rule: a match and the actions for matching packets.

    An empty ``actions`` tuple drops the packet; several actions multicast.
    """

    match: HeaderSpace
    actions: Tuple[Action, ...]

    @property
    def is_drop(self) -> bool:
        """True if matching packets are dropped."""
        return not self.actions

    @property
    def is_identity(self) -> bool:
        """True if matching packets pass through unmodified."""
        return self.actions == (IDENTITY_ACTION,)

    def apply(self, packet: Packet) -> FrozenSet[Packet]:
        """The output packets for a packet known to match this rule."""
        return frozenset(action.apply(packet) for action in self.actions)

    def __repr__(self) -> str:
        actions = "drop" if self.is_drop else " | ".join(map(repr, self.actions))
        return f"Rule({self.match!r} -> {actions})"


class Classifier:
    """An ordered, first-match-wins rule table.

    Compiled classifiers are total; :meth:`eval` raises
    :class:`~repro.exceptions.PolicyError` if no rule matches, which
    indicates a compiler bug rather than a user error.
    """

    __slots__ = ("_rules", "_by_port")

    def __init__(self, rules: Sequence[Rule]):
        self._rules = tuple(rules)
        self._by_port: Optional[Dict[Any, List[Rule]]] = None

    @property
    def rules(self) -> Tuple[Rule, ...]:
        """The rules, highest priority first."""
        return self._rules

    def rules_for_port(self, port: int) -> Sequence[Rule]:
        """The rules a packet located at ``port`` can match, in priority
        order: those guarded on that port or on none. Indexed on first
        use, so composing many stages through one classifier (every
        outbound block and every fast-path burst through the same inbound
        stage) walks it once."""
        if self._by_port is None:
            guarded: Dict[Any, List[Tuple[int, Rule]]] = {}
            unguarded: List[Tuple[int, Rule]] = []
            for item in enumerate(self._rules):
                guard = item[1].match.get("port")
                (unguarded if guard is None
                 else guarded.setdefault(guard, [])).append(item)
            self._by_port = {
                guard: [rule for _position, rule in sorted(
                    items + unguarded, key=lambda item: item[0])]
                for guard, items in guarded.items()}
            self._by_port[None] = [rule for _position, rule in unguarded]
        return self._by_port.get(port, self._by_port[None])

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    @property
    def is_total(self) -> bool:
        """True if the final rule matches every packet."""
        return bool(self._rules) and self._rules[-1].match.is_wildcard

    def first_match(self, packet: Packet) -> Optional[Rule]:
        """The highest-priority rule matching ``packet``, if any."""
        for rule in self._rules:
            if rule.match.matches(packet):
                return rule
        return None

    def eval(self, packet: Packet) -> FrozenSet[Packet]:
        """The output packet set for ``packet`` (empty set = dropped)."""
        rule = self.first_match(packet)
        if rule is None:
            raise PolicyError(f"classifier is not total: no rule matches {packet!r}")
        return rule.apply(packet)

    def negate(self) -> "Classifier":
        """The complement of a *predicate* classifier.

        Identity rules become drops and vice versa. Only meaningful when
        every rule is a pure filter (identity or drop).
        """
        flipped = []
        for rule in self._rules:
            if rule.is_drop:
                flipped.append(Rule(rule.match, (IDENTITY_ACTION,)))
            elif rule.is_identity:
                flipped.append(Rule(rule.match, ()))
            else:
                raise PolicyError(f"cannot negate non-filter rule {rule!r}")
        return Classifier(flipped)

    def __repr__(self) -> str:
        return f"Classifier({len(self._rules)} rules)"


#: A classifier passing every packet through unmodified.
IDENTITY_CLASSIFIER = Classifier([Rule(WILDCARD, (IDENTITY_ACTION,))])

#: A classifier dropping every packet.
DROP_CLASSIFIER = Classifier([Rule(WILDCARD, ())])


@dataclass
class ComposeStats:
    """Counters for composition work, used by the Section 4.3 evaluation."""

    parallel_ops: int = 0
    sequential_ops: int = 0
    rule_pairs_examined: int = 0

    def merge(self, other: "ComposeStats") -> None:
        """Fold another counter set into this one."""
        self.parallel_ops += other.parallel_ops
        self.sequential_ops += other.sequential_ops
        self.rule_pairs_examined += other.rule_pairs_examined


def _cross_rules(left: Sequence[Rule], right: Sequence[Rule],
                 stats: Optional[ComposeStats]) -> List[Rule]:
    """The lexicographic cross product implementing parallel composition."""
    out: List[Rule] = []
    for rule_l in left:
        for rule_r in right:
            if stats is not None:
                stats.rule_pairs_examined += 1
            match = rule_l.match.intersect(rule_r.match)
            if match is None:
                continue
            out.append(Rule(match, _dedup_actions(rule_l.actions + rule_r.actions)))
    return out


def parallel_compose(left: Classifier, right: Classifier,
                     stats: Optional[ComposeStats] = None) -> Classifier:
    """The classifier for ``p_left + p_right``.

    For every packet the result unions the actions of the first matching
    rule on each side. The cross product in lexicographic (left-major)
    order realises exactly that for total classifiers.
    """
    if stats is not None:
        stats.parallel_ops += 1
    return Classifier(_cross_rules(left.rules, right.rules, stats))


def _pullback(action: Action, match: HeaderSpace) -> Optional[HeaderSpace]:
    """The pre-image of ``match`` under ``action``.

    Constraints on fields the action assigns are checked against the
    assigned value (and dropped if satisfied); the rest carry over to the
    original packet. Returns ``None`` when unsatisfiable.
    """
    remaining: Dict[str, Any] = {}
    for fieldname, constraint in match.items():
        if action.sets_field(fieldname):
            if not admits(constraint, action[fieldname]):
                return None
        else:
            remaining[fieldname] = constraint
    if not remaining:
        return WILDCARD
    return HeaderSpace._from_dict(remaining)


def _sequence_action(rule_match: HeaderSpace, action: Action,
                     candidates: Iterable[Rule],
                     stats: Optional[ComposeStats]) -> List[Rule]:
    """Rules for packets in ``rule_match`` that take ``action`` and are
    then classified, first match wins, by ``candidates``.

    Stops at the first candidate whose pulled-back match covers
    ``rule_match``: it catches every packet the rule passes on, so any
    rule emitted after it could never fire.
    """
    out: List[Rule] = []
    for rule_r in candidates:
        if stats is not None:
            stats.rule_pairs_examined += 1
        pulled = _pullback(action, rule_r.match)
        if pulled is None:
            continue
        match = rule_match.intersect(pulled)
        if match is None:
            continue
        out.append(Rule(match, tuple(action.then(a) for a in rule_r.actions)))
        if pulled.covers(rule_match):
            break
    return out


def sequence_rule(rule_l: Rule,
                  candidates: Callable[[Action], Iterable[Rule]],
                  stats: Optional[ComposeStats]) -> List[Rule]:
    """One left-hand rule pushed through a right-hand classifier — the
    inner loop of every sequential composition.

    ``candidates(action)`` are the right-hand rules, in priority order,
    that packets leaving through ``action`` can reach (all of them, or an
    index's sound subset). Multicast rules combine their per-action
    results in parallel.
    """
    if rule_l.is_drop:
        return [rule_l]
    per_action = [
        _sequence_action(rule_l.match, action, candidates(action), stats)
        for action in rule_l.actions
    ]
    combined = per_action[0]
    for more in per_action[1:]:
        combined = _cross_rules(combined, more, stats)
    return combined


def sequential_compose(left: Classifier, right: Classifier,
                       stats: Optional[ComposeStats] = None) -> Classifier:
    """The classifier for ``p_left >> p_right``.

    Each left rule's actions are pushed through the right classifier by
    pulling the right-hand matches back through the action's assignments
    (:func:`sequence_rule`).
    """
    if stats is not None:
        stats.sequential_ops += 1
    def candidates(_action: Action) -> Sequence[Rule]:
        return right.rules

    out: List[Rule] = []
    for rule_l in left.rules:
        out.extend(sequence_rule(rule_l, candidates, stats))
    return Classifier(out)


def parallel_compose_many(classifiers: Sequence[Classifier],
                          stats: Optional[ComposeStats] = None) -> Classifier:
    """Fold :func:`parallel_compose` over ``classifiers`` (drop if empty)."""
    if not classifiers:
        return DROP_CLASSIFIER
    result = classifiers[0]
    for classifier in classifiers[1:]:
        result = parallel_compose(result, classifier, stats)
    return result


def merge_drop_tail(classifier: Classifier) -> Classifier:
    """Collapse a trailing run of drop rules into the final catch-all.

    Compiled SDX policies end in a catch-all drop; any drop rules directly
    above it are redundant because falling through reaches the catch-all
    with the same outcome.
    """
    rules = list(classifier.rules)
    if not rules or not rules[-1].is_drop or not rules[-1].match.is_wildcard:
        return classifier
    while len(rules) >= 2 and rules[-2].is_drop:
        del rules[-2]
    return Classifier(rules)
