"""Classifier diffing: the minimal FlowMod delta between rule sets.

A rule's identity on the switch is its ``(priority, match)`` pair — the
key OpenFlow's ``OFPFC_MODIFY_STRICT`` / ``OFPFC_DELETE_STRICT`` operate
on. Diffing the installed table against a newly compiled one under that
key yields the three standard mod kinds:

* **add** — key present only in the target;
* **modify** — key present in both with different actions;
* **delete** — key present only in the installed table.

Rules whose key *and* actions are unchanged are not touched at all, which
is what preserves their packet counters across a recompile (the property
the Figure 9/10 update-cost measurements depend on).

Two ways to get that delta, one answer. :func:`compute_delta` keys every
rule on both sides. :func:`compute_block_delta` diffs by *block* — one
policy holder's numbered rules, one run of the default layer, the
catch-all drop (:attr:`repro.core.compiler.CompilationResult.blocks`): a
block the new compilation shares with the installed one, as the very same
tuple, is counted unchanged by its length without hashing a rule; only the
other blocks are keyed, the new against the installed ones they replace.
Its precondition is that the main table (below :data:`PRIORITY_CEILING`)
holds exactly the installed blocks, which the southbound engine knows from
the table's generation; when it cannot know — the table moved in any way
the engine did not make — it falls back to :func:`compute_delta` over the
live table. The two agree on adds and modifies in order, deletes as a set
and ``unchanged``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.policy.classifier import Action
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import HeaderSpace

#: The switch-side identity of a rule: its priority and exact match.
RuleKey = Tuple[int, HeaderSpace]

#: Exclusive upper bound of main-table priorities. Fast-path shadow rules
#: live at and above this value (the incremental engine's
#: ``FAST_PATH_BASE`` is this same constant); the compiler numbers the main
#: table below it, each rule by its overlap depth under the top of its
#: band (:meth:`repro.core.compiler.SdxCompiler._reduce`): the policy
#: holders' blocks from just under the ceiling, the default layer from
#: ``DEFAULT_BAND_TOP`` and the catch-all drop at ``DROP_PRIORITY``.
PRIORITY_CEILING = 1_000_000
DEFAULT_BAND_TOP = 500_000
DROP_PRIORITY = 1


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
    """First-instance-wins key map plus per-key duplicate counts."""
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

    Neither a flow table nor a compilation holds a key twice; in a list
    that does, the first instance stands for the key: an installed key
    listed again becomes a MODIFY, a target's repeats are skipped.
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


def compute_block_delta(installed: Sequence[Sequence[FlowRule]],
                        target: Sequence[Sequence[FlowRule]],
                        reclaim: Iterable[FlowRule] = ()) -> Tuple[Delta, int]:
    """:func:`compute_delta` from the rules of ``installed`` and
    ``reclaim`` to the rules of ``target``, block by block; with the number
    of rules it keyed.

    A target block that *is* an installed block is unchanged whole; the
    other target blocks are keyed against the installed blocks no longer
    there, and what of those is left — with every ``reclaim`` rule — is
    deleted. Like a compilation, ``target`` holds no key twice.
    """
    in_target = {id(block) for block in target}
    gone: Dict[RuleKey, FlowRule] = {
        rule_key(rule): rule for block in installed
        if id(block) not in in_target for rule in block}
    keyed = len(gone)
    adds: List[FlowMod] = []
    modifies: List[FlowMod] = []
    unchanged = 0
    in_installed = {id(block) for block in installed}
    for block in target:
        if id(block) in in_installed:
            unchanged += len(block)
            continue
        keyed += len(block)
        for rule in block:
            old = gone.pop(rule_key(rule), None)
            if old is None:
                adds.append(FlowMod.add(rule))
            elif old.actions != rule.actions:
                modifies.append(FlowMod.modify(rule))
            else:
                unchanged += 1
    deletes = tuple(map(FlowMod.delete, chain(reclaim, gone.values())))
    return Delta(adds=tuple(adds), modifies=tuple(modifies), deletes=deletes,
                 unchanged=unchanged), keyed
