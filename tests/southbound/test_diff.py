"""Tests for classifier diffing (repro.southbound.diff)."""

from repro.policy.classifier import Action, Classifier, Rule
from repro.policy.flowrules import FlowRule, to_flow_rules
from repro.policy.headerspace import WILDCARD, HeaderSpace
from repro.southbound.diff import (
    FlowMod,
    FlowModOp,
    align_flow_rules,
    compute_delta,
    diff_classifier,
    rule_key,
)


def rule(priority, actions=(), **constraints):
    return FlowRule(priority=priority, match=HeaderSpace(**constraints),
                    actions=actions)


FWD1 = (Action(port=1),)
FWD2 = (Action(port=2),)


class TestComputeDelta:
    def test_identical_tables_are_empty(self):
        rules = [rule(5, FWD1, dstport=80), rule(1, FWD2)]
        delta = compute_delta(rules, list(rules))
        assert delta.is_empty
        assert delta.unchanged == 2

    def test_added_rule(self):
        old = [rule(1, FWD2)]
        new = old + [rule(5, FWD1, dstport=80)]
        delta = compute_delta(old, new)
        assert [m.op for m in delta.adds] == [FlowModOp.ADD]
        assert delta.adds[0].key == (5, HeaderSpace(dstport=80))
        assert not delta.modifies and not delta.deletes
        assert delta.unchanged == 1

    def test_removed_rule(self):
        old = [rule(5, FWD1, dstport=80), rule(1, FWD2)]
        new = [rule(1, FWD2)]
        delta = compute_delta(old, new)
        assert [m.op for m in delta.deletes] == [FlowModOp.DELETE]
        assert delta.deletes[0].priority == 5

    def test_changed_actions_become_modify(self):
        old = [rule(5, FWD1, dstport=80)]
        new = [rule(5, FWD2, dstport=80)]
        delta = compute_delta(old, new)
        assert [m.op for m in delta.modifies] == [FlowModOp.MODIFY]
        assert delta.modifies[0].actions == FWD2
        assert delta.total == 1

    def test_same_match_new_priority_is_add_plus_delete(self):
        old = [rule(5, FWD1, dstport=80)]
        new = [rule(7, FWD1, dstport=80)]
        delta = compute_delta(old, new)
        assert len(delta.adds) == 1 and len(delta.deletes) == 1
        assert delta.adds[0].priority == 7
        assert delta.deletes[0].priority == 5

    def test_duplicate_installed_key_collapses_to_modify(self):
        first = rule(5, FWD1, dstport=80)
        shadow = rule(5, FWD2, dstport=80)
        delta = compute_delta([first, shadow], [first])
        assert [m.op for m in delta.modifies] == [FlowModOp.MODIFY]
        assert delta.modifies[0].actions == FWD1

    def test_duplicate_target_key_uses_first_instance(self):
        live = rule(5, FWD1, dstport=80)
        shadow = rule(5, FWD2, dstport=80)
        delta = compute_delta([], [live, shadow])
        assert len(delta.adds) == 1
        assert delta.adds[0].actions == FWD1

    def test_full_reinstall_cost(self):
        old = [rule(5, FWD1, dstport=80), rule(3, FWD2, dstport=22),
               rule(1, FWD2)]
        new = [rule(5, FWD2, dstport=80), rule(2, FWD1, dstport=443),
               rule(1, FWD2)]
        delta = compute_delta(old, new)
        # delete all three + add all three.
        assert delta.full_reinstall_cost == 6
        assert delta.total == 3  # one modify, one add, one delete
        assert delta.unchanged == 1

    def test_describe_mentions_every_kind(self):
        old = [rule(5, FWD1, dstport=80), rule(3, FWD2, dstport=22)]
        new = [rule(5, FWD2, dstport=80), rule(2, FWD1)]
        text = compute_delta(old, new).describe()
        assert "+1" in text and "~1" in text and "-1" in text


class TestDiffClassifier:
    def test_fresh_install_descends_in_classifier_order(self):
        classifier = Classifier([
            Rule(HeaderSpace(dstport=80), FWD1),
            Rule(WILDCARD, ()),
        ])
        delta = diff_classifier([], classifier, base_priority=10)
        assert len(delta.adds) == 2
        first, second = delta.adds
        assert first.match == HeaderSpace(dstport=80)
        assert first.priority > second.priority > 10
        assert {m.match for m in delta.adds} == {
            r.match for r in to_flow_rules(classifier, 10)}

    def test_noop_against_installed_classifier(self):
        classifier = Classifier([
            Rule(HeaderSpace(dstport=80), FWD1),
            Rule(WILDCARD, ()),
        ])
        installed = to_flow_rules(classifier, 0)
        assert diff_classifier(installed, classifier).is_empty

    def test_insertion_does_not_renumber_neighbours(self):
        old = Classifier([
            Rule(HeaderSpace(dstport=80), FWD1),
            Rule(HeaderSpace(dstport=22), FWD2),
            Rule(WILDCARD, ()),
        ])
        installed = align_flow_rules([], old)
        new = Classifier([
            Rule(HeaderSpace(dstport=80), FWD1),
            Rule(HeaderSpace(dstport=443), FWD1),
            Rule(HeaderSpace(dstport=22), FWD2),
            Rule(WILDCARD, ()),
        ])
        delta = diff_classifier(installed, new)
        # The insertion slots into a priority gap: one add, zero churn.
        assert len(delta.adds) == 1
        assert delta.adds[0].match == HeaderSpace(dstport=443)
        assert not delta.modifies and not delta.deletes
        assert delta.unchanged == 3

    def test_aligned_priorities_descend_strictly(self):
        old = Classifier([Rule(HeaderSpace(dstport=p), FWD1)
                          for p in (80, 443, 22)])
        installed = align_flow_rules([], old)
        new = Classifier(
            [Rule(HeaderSpace(dstport=p), FWD1)
             for p in (8080, 80, 8443, 443, 22, 53)] + [Rule(WILDCARD, ())])
        target = align_flow_rules(installed, new)
        priorities = [r.priority for r in target]
        assert priorities == sorted(priorities, reverse=True)
        assert len(set(priorities)) == len(priorities)
        kept = {r.priority for r in installed}
        assert kept <= set(priorities)  # survivors keep their keys


    def test_only_the_rewritten_stretch_is_aligned(self, monkeypatch):
        """A recompilation rewrites one stretch of the table; the shared
        head and tail are peeled off before the (quadratic-ish) matcher
        sees anything, and the delta is what aligning everything gives."""
        import difflib
        ports = list(range(1_000, 1_400))
        old = Classifier([Rule(HeaderSpace(dstport=p), FWD1) for p in ports]
                         + [Rule(WILDCARD, ())])
        installed = align_flow_rules([], old)
        middle = ([Rule(HeaderSpace(dstport=p), FWD1) for p in ports[:200]]
                  + [Rule(HeaderSpace(dstport=5_000 + p), FWD2)
                     for p in range(5)]
                  + [Rule(HeaderSpace(dstport=p), FWD1) for p in ports[203:]])
        new = Classifier(middle + [Rule(WILDCARD, ())])
        seen = []
        matcher = difflib.SequenceMatcher

        def recording(a, b, autojunk):
            seen.append((len(a), len(b)))
            return matcher(a=a, b=b, autojunk=autojunk)

        monkeypatch.setattr(difflib, "SequenceMatcher", recording)
        delta = diff_classifier(installed, new)
        assert seen == [(3, 5)]
        assert len(delta.adds) == 5 and len(delta.deletes) == 3
        assert not delta.modifies and delta.unchanged == 398

    def test_peeling_handles_pure_growth_and_shrinkage(self):
        rules = [Rule(HeaderSpace(dstport=p), FWD1) for p in (80, 443, 22)]
        installed = align_flow_rules([], Classifier(rules))
        repeated = Classifier(rules[:2] + [rules[1]] + rules[2:])
        delta = diff_classifier(installed, repeated)
        assert delta.unchanged == 3 and not delta.deletes
        shorter = diff_classifier(installed, Classifier(rules[:1] + rules[2:]))
        assert len(shorter.deletes) == 1 and shorter.unchanged == 2


class TestFlowMod:
    def test_key_and_rule_round_trip(self):
        base = rule(5, FWD1, dstport=80)
        mod = FlowMod.add(base)
        assert mod.key == rule_key(base)
        assert mod.rule == base

    def test_describe(self):
        assert compute_delta([], [rule(5, FWD1, dstport=80)]).adds[0] \
            .describe().startswith("add priority=5")
