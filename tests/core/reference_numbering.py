"""The whole-block numbering, kept as the tests' oracle.

This is how ``SdxCompiler._reduce`` keyed the table before it carried each
VMAC tag's rules on their own: every policy holder's block compiled whole
(each clause guarded by its owner's ports and one ``match_any`` over all
its tags, as :func:`whole_block` does), composed with stage 2
whole and numbered in one index; the default layer stacked whole —
every tag's exceptions, every tag's shared rules, the learning rules, the
catch-all drop — composed whole, its trailing drops merged into the
catch-all, numbered in one index, and each rule on a holder's ingress
port dropped if that holder's block covers it. It reads the stage-1
material a compilation kept (grouping, default pieces, stage 2), not what
the compiler composed or numbered of it.
"""

from typing import List, Optional

from repro.core.compiler import clause_action, compile_guarded_clauses
from repro.core.composition import sequential_compose_indexed
from repro.core.defaults import ingress_guard
from repro.core.fec import Grouping
from repro.policy.classifier import merge_drop_tail
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import HeaderSpace
from repro.policy.matchindex import MatchIndex
from repro.policy.policies import Conjunction
from repro.policy.predicates import match_any
from repro.southbound.diff import (
    DEFAULT_BAND_TOP, DROP_PRIORITY, PRIORITY_CEILING)


def file_at_depth(index: MatchIndex, match: HeaderSpace, *,
                  unless_covered: bool = False) -> Optional[int]:
    """File ``match`` at its *overlap depth* and return it: the length of
    the longest chain of filed matches, each overlapping the next, that
    ends in it — so matches of one depth are pairwise disjoint, and of two
    that overlap the later is the deeper. With ``unless_covered`` a match
    a filed one covers is not filed, and the answer is ``None``."""
    depth = 0
    for bucket in index.meeting(match):
        for earlier, above in bucket.items():
            if unless_covered and earlier.covers(match):
                return None
            if above >= depth and earlier.overlaps(match):
                depth = above + 1
    index.add(match, depth)
    return depth


def numbered(rules, top: int, unless_covered: bool):
    """``rules`` keyed from ``top`` down in one index, and that index."""
    index = MatchIndex()
    out = [FlowRule(top - depth, rule.match, rule.actions) for rule in rules
           if (depth := file_at_depth(index, rule.match,
                                      unless_covered=unless_covered))
           is not None]
    return out, index


def whole_block(compiler, owner, tags, fallback):
    """``owner``'s outbound clauses as one partial classifier: each
    clause's ingress guard, predicate and ``match_any`` over its ``tags``
    compiled together, negation masks expanded against ``fallback``."""
    pairs = []
    for clause, allowed in zip(owner.outbound_clauses(), tags):
        if allowed is not None and not allowed:
            continue
        guarded = [ingress_guard(owner),
                   compiler._resolved_predicate(owner, clause, {})]
        if allowed is not None:
            guarded.append(match_any(compiler.tag_field, allowed))
        pairs.append((Conjunction(guarded), clause_action(
            clause, None if clause.drops
            else compiler.topology.vport(str(clause.target)))))
    return compile_guarded_clauses(pairs, fallback)


def reference_table(controller, result) -> List[FlowRule]:
    """The table ``result`` is, keyed block by whole block."""
    compiler = controller.compiler
    unless_covered = compiler.reduce_table
    out: List[FlowRule] = []
    covering = {}
    if compiler.optimized:
        _groups, grouping, by_context = result.reuse.get(
            ("groups", None), (None, ([], Grouping(), {})))[1]
        eligible = compiler._eligibility(grouping, by_context)
        layer = result.reuse["defaults", None][1].classifier
        for owner in controller.topology.policy_holders():
            clauses = owner.outbound_clauses()
            part = whole_block(
                compiler, owner, eligible(owner, clauses), layer)
            rules, index = numbered(
                sequential_compose_indexed(part, result.stage2).rules,
                PRIORITY_CEILING - 1, unless_covered)
            out.extend(rules)
            if unless_covered:
                covering.update(dict.fromkeys(owner.switch_ports, index))
        tail = sequential_compose_indexed(layer, result.stage2)
    else:
        tail = result.reuse["reduction", None][0]
    *body, last = merge_drop_tail(tail).rules
    rules, _index = numbered(body, DEFAULT_BAND_TOP, unless_covered)
    out.extend(rule for rule in rules
               if (index := covering.get(rule.match.get("port"))) is None
               or not index.covers(rule.match))
    out.append(FlowRule(DROP_PRIORITY, last.match, last.actions))
    return out
