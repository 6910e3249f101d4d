"""Classifier diffing: the minimal FlowMod delta between rule sets.

A rule's identity on the switch is its ``(priority, match)`` pair — the
key OpenFlow's ``OFPFC_MODIFY_STRICT`` / ``OFPFC_DELETE_STRICT`` operate
on. Diffing the installed table against a newly compiled classifier under
that key yields the three standard mod kinds:

* **add** — key present only in the target;
* **modify** — key present in both with different actions;
* **delete** — key present only in the installed table.

Rules whose key *and* actions are unchanged are not touched at all, which
is what preserves their packet counters across a recompile (the property
the Figure 9/10 update-cost measurements depend on).
"""

from __future__ import annotations

import difflib
import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.policy.classifier import Action, Classifier
from repro.policy.flowrules import FlowRule, to_flow_rules
from repro.policy.headerspace import HeaderSpace

#: The switch-side identity of a rule: its priority and exact match.
RuleKey = Tuple[int, HeaderSpace]

#: Exclusive upper bound for aligned main-table priorities. Fast-path
#: shadow rules live at and above this value, so the aligner never
#: assigns into that band (the incremental engine's ``FAST_PATH_BASE``
#: is this same constant).
PRIORITY_CEILING = 1_000_000

#: Gap left between freshly assigned priorities so later insertions can
#: slot between existing rules without renumbering them.
PRIORITY_STRIDE = 64


def rule_key(rule: FlowRule) -> RuleKey:
    """The ``(priority, match)`` key identifying ``rule`` on the switch."""
    return (rule.priority, rule.match)


class FlowModOp(enum.Enum):
    """The three FlowMod kinds the southbound engine emits."""

    ADD = "add"
    MODIFY = "modify"
    DELETE = "delete"


@dataclass(frozen=True)
class FlowMod:
    """One flow-table update message.

    For :attr:`FlowModOp.DELETE` the ``actions`` record what was installed
    (useful for logging); the switch only needs the key.
    """

    op: FlowModOp
    priority: int
    match: HeaderSpace
    actions: Tuple[Action, ...] = ()

    @property
    def key(self) -> RuleKey:
        """The rule key this mod operates on."""
        return (self.priority, self.match)

    @property
    def rule(self) -> FlowRule:
        """The mod's payload as a :class:`FlowRule`."""
        return FlowRule(priority=self.priority, match=self.match,
                        actions=self.actions)

    @classmethod
    def add(cls, rule: FlowRule) -> "FlowMod":
        """An ADD installing ``rule``."""
        return cls(FlowModOp.ADD, rule.priority, rule.match, rule.actions)

    @classmethod
    def modify(cls, rule: FlowRule) -> "FlowMod":
        """A MODIFY rewriting the actions of ``rule``'s key."""
        return cls(FlowModOp.MODIFY, rule.priority, rule.match, rule.actions)

    @classmethod
    def delete(cls, rule: FlowRule) -> "FlowMod":
        """A DELETE removing ``rule``'s key."""
        return cls(FlowModOp.DELETE, rule.priority, rule.match, rule.actions)

    def describe(self) -> str:
        """A one-line human-readable rendering."""
        return f"{self.op.value} {self.rule.describe()}"


@dataclass(frozen=True)
class Delta:
    """A minimal update set turning one rule table into another.

    ``unchanged`` counts rules shared verbatim by both sides — the rules a
    full reinstall would have needlessly touched.
    """

    adds: Tuple[FlowMod, ...] = ()
    modifies: Tuple[FlowMod, ...] = ()
    deletes: Tuple[FlowMod, ...] = ()
    unchanged: int = 0

    @property
    def mods(self) -> Tuple[FlowMod, ...]:
        """Every mod, adds then modifies then deletes."""
        return self.adds + self.modifies + self.deletes

    @property
    def total(self) -> int:
        """How many FlowMods this delta sends."""
        return len(self.adds) + len(self.modifies) + len(self.deletes)

    @property
    def is_empty(self) -> bool:
        """True when the tables already agree."""
        return self.total == 0

    @property
    def full_reinstall_cost(self) -> int:
        """What a clear-and-reinstall would have cost in FlowMods.

        One delete per installed rule plus one add per target rule — the
        baseline the delta engine is measured against.
        """
        installed = len(self.modifies) + len(self.deletes) + self.unchanged
        target = len(self.adds) + len(self.modifies) + self.unchanged
        return installed + target

    def describe(self) -> str:
        """A short summary line."""
        return (f"delta(+{len(self.adds)} ~{len(self.modifies)} "
                f"-{len(self.deletes)} ={self.unchanged})")


def _keyed(rules: Iterable[FlowRule]) -> Tuple[Dict[RuleKey, FlowRule], Dict[RuleKey, int]]:
    """First-instance-wins key map plus per-key duplicate counts.

    First match wins inside a priority tie, so when two rules share a key
    only the first is live; the duplicates are shadow copies the delta
    collapses away.
    """
    keyed: Dict[RuleKey, FlowRule] = {}
    extras: Dict[RuleKey, int] = {}
    for rule in rules:
        key = rule_key(rule)
        if key in keyed:
            extras[key] = extras.get(key, 0) + 1
        else:
            keyed[key] = rule
    return keyed, extras


def compute_delta(installed: Sequence[FlowRule],
                  target: Sequence[FlowRule]) -> Delta:
    """The minimal delta turning ``installed`` into ``target``.

    Keys duplicated on either side collapse to their first (live)
    instance: installed shadow copies become a MODIFY (the engine's modify
    removes every instance of a key before reinstalling one), and target
    shadow copies are skipped as unreachable.
    """
    installed_map, installed_extras = _keyed(installed)
    target_map, _target_extras = _keyed(target)

    adds: List[FlowMod] = []
    modifies: List[FlowMod] = []
    deletes: List[FlowMod] = []
    unchanged = 0
    for key, rule in target_map.items():
        old = installed_map.get(key)
        if old is None:
            adds.append(FlowMod.add(rule))
        elif old.actions != rule.actions or installed_extras.get(key):
            modifies.append(FlowMod.modify(rule))
        else:
            unchanged += 1
    for key, rule in installed_map.items():
        if key not in target_map:
            deletes.append(FlowMod.delete(rule))
    return Delta(adds=tuple(adds), modifies=tuple(modifies),
                 deletes=tuple(deletes), unchanged=unchanged)


def _shared_run(left: Iterable[HeaderSpace],
                right: Iterable[HeaderSpace]) -> int:
    """How many leading positions of the two sequences hold equal matches."""
    count = 0
    for one, other in zip(left, right):
        if one is not other and one != other:
            break
        count += 1
    return count


def align_flow_rules(installed: Sequence[FlowRule], classifier: Classifier,
                     base_priority: int = 0,
                     ceiling: int = PRIORITY_CEILING) -> List[FlowRule]:
    """Assign priorities to ``classifier``, reusing installed ones.

    A rule's key is ``(priority, match)``, so a positional renumbering
    (what :func:`~repro.policy.flowrules.to_flow_rules` does) turns every
    shifted-but-otherwise-identical rule into a delete/add pair. This
    aligner instead matches the target's rule sequence against the
    installed table (longest common subsequence over the match fields):
    aligned rules keep their installed priority — diffing to a no-op or a
    single MODIFY — and only genuinely new rules get fresh priorities,
    slotted into the gaps :data:`PRIORITY_STRIDE` leaves between existing
    rules. The assignment always descends strictly in classifier order,
    stays above ``base_priority`` and below ``ceiling``, and falls back
    to a plain dense renumbering in the (practically unreachable) case
    that no gap can hold the insertions.
    """
    rules = classifier.rules
    if not rules:
        return []
    anchors: List[FlowRule] = []
    for rule in sorted(installed, key=lambda fr: -fr.priority):
        if base_priority < rule.priority < ceiling and (
                not anchors or rule.priority < anchors[-1].priority):
            anchors.append(rule)
    old = [fr.match for fr in anchors]
    new = [r.match for r in rules]
    # A recompilation rewrites one stretch of the table: peel the head
    # and tail both sides share and align only the middle.
    head = _shared_run(old, new)
    tail = _shared_run(reversed(old[head:]), reversed(new[head:]))
    matcher = difflib.SequenceMatcher(
        a=old[head:len(old) - tail], b=new[head:len(new) - tail],
        autojunk=False)
    anchored: Dict[int, int] = {
        index: anchors[index].priority for index in range(head)}
    for offset in range(1, tail + 1):
        anchored[len(new) - offset] = anchors[-offset].priority
    for block in matcher.get_matching_blocks():
        for offset in range(block.size):
            anchored[head + block.b + offset] = (
                anchors[head + block.a + offset].priority)

    priorities = [0] * len(rules)
    upper = ceiling  # exclusive bound for everything still unassigned
    buffered: List[int] = []  # consecutive unanchored target indices
    for index in range(len(rules)):
        anchor = anchored.get(index)
        if anchor is None or anchor >= upper or upper - anchor - 1 < len(buffered):
            # No anchor, or no room above it for the buffered insertions:
            # the rule gets a fresh priority (its installed twin, if any,
            # is deleted by the diff).
            buffered.append(index)
            continue
        step = max(1, (upper - anchor) // (len(buffered) + 1))
        for position, buffered_index in enumerate(buffered):
            priorities[buffered_index] = upper - step * (position + 1)
        priorities[index] = anchor
        upper = anchor
        buffered = []
    if buffered:
        # The tail below the last anchor: pack it just above
        # ``base_priority``, strided, leaving room for future growth.
        stride = min(PRIORITY_STRIDE,
                     (upper - base_priority - 1) // len(buffered))
        if stride < 1:
            return to_flow_rules(classifier, base_priority)
        for position, buffered_index in enumerate(buffered):
            priorities[buffered_index] = (
                base_priority + stride * (len(buffered) - position))
    return [FlowRule(priority=priorities[index], match=rule.match,
                     actions=rule.actions)
            for index, rule in enumerate(rules)]


def diff_classifier(installed: Sequence[FlowRule], classifier: Classifier,
                    base_priority: int = 0) -> Delta:
    """The delta from ``installed`` to a compiled ``classifier``.

    Target priorities come from :func:`align_flow_rules`, so rules the
    classifier shares with the installed table keep their keys and diff
    to nothing (or to a single MODIFY when only the actions changed);
    applying the delta yields a table equivalent to a fresh
    :meth:`~repro.dataplane.flowtable.FlowTable.install_classifier` —
    same rule order, same lookups — though not necessarily the same
    numeric priorities.
    """
    return compute_delta(installed,
                         align_flow_rules(installed, classifier, base_priority))
