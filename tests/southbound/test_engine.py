"""Tests for the southbound engine: scheduling, batching, and the
delta-equals-fresh-install / two-phase-safety properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.flowtable import FlowTable
from repro.policy.classifier import Action, Classifier, Rule
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import HeaderSpace
from repro.southbound.diff import FlowMod, FlowModOp, diff_classifier
from repro.southbound.engine import (
    SouthboundConfig,
    SouthboundEngine,
    schedule_two_phase,
)


def rule(priority, actions=(), **constraints):
    return FlowRule(priority=priority, match=HeaderSpace(**constraints),
                    actions=actions)


FWD1 = (Action(port=1),)
FWD2 = (Action(port=2),)


class TestScheduling:
    def test_adds_and_modifies_before_deletes(self):
        mods = [FlowMod.delete(rule(9)), FlowMod.add(rule(1, FWD1)),
                FlowMod.modify(rule(5, FWD2, dstport=80))]
        ordered = schedule_two_phase(mods)
        ops = [m.op for m in ordered]
        assert ops == [FlowModOp.MODIFY, FlowModOp.ADD, FlowModOp.DELETE]

    def test_phase_one_descends_phase_two_ascends(self):
        mods = [
            FlowMod.add(rule(2, FWD1, dstport=22)),
            FlowMod.add(rule(8, FWD1, dstport=80)),
            FlowMod.delete(rule(9)),
            FlowMod.delete(rule(3, FWD2, dstport=443)),
        ]
        ordered = schedule_two_phase(mods)
        assert [m.priority for m in ordered] == [8, 2, 3, 9]


class TestEngine:
    def test_sync_installs_fresh_table(self):
        table = FlowTable()
        engine = SouthboundEngine(table)
        classifier = Classifier([Rule(HeaderSpace(dstport=80), FWD1),
                                 Rule(HeaderSpace(), ())])
        delta = engine.sync_classifier(classifier)
        assert delta.total == 2
        assert len(table) == 2
        assert engine.stats.adds_sent == 2
        assert engine.stats.batches_applied >= 1

    def test_sync_is_minimal_on_resync(self):
        table = FlowTable()
        engine = SouthboundEngine(table)
        classifier = Classifier([Rule(HeaderSpace(dstport=80), FWD1),
                                 Rule(HeaderSpace(), ())])
        engine.sync_classifier(classifier)
        delta = engine.sync_classifier(classifier)
        assert delta.is_empty
        assert engine.stats.mods_sent == 2  # nothing new sent
        assert engine.stats.rules_unchanged == 2

    def test_push_and_retract_rules(self):
        table = FlowTable()
        engine = SouthboundEngine(table)
        shadow = rule(1_000_001, FWD1, dstport=80)
        assert engine.push_rules([shadow]) == 1
        assert table.rules == (shadow,)
        assert engine.retract_rules([shadow]) == 1
        assert len(table) == 0

    def test_manual_flush_coalesces_across_syncs(self):
        table = FlowTable()
        engine = SouthboundEngine(table)
        first = Classifier([Rule(HeaderSpace(dstport=80), FWD1),
                            Rule(HeaderSpace(), ())])
        second = Classifier([Rule(HeaderSpace(dstport=80), FWD2),
                             Rule(HeaderSpace(), ())])
        with engine.deferred():
            engine.sync_classifier(first)
            assert len(table) == 0 and engine.pending == 2
            engine.sync_classifier(second)
            # The dstport=80 add was rewritten in place: still two pending.
            assert engine.pending == 2
            assert engine.stats.mods_coalesced >= 1
            engine.flush()
        fresh = FlowTable()
        fresh.install_classifier(second)
        assert _semantics(table) == _semantics(fresh)
        assert engine.pending == 0

    def test_batching_respects_max_batch_size(self):
        table = FlowTable()
        engine = SouthboundEngine(table, SouthboundConfig(max_batch_size=2))
        classifier = Classifier(
            [Rule(HeaderSpace(dstport=port), FWD1) for port in (80, 443, 22)]
            + [Rule(HeaderSpace(), ())])
        engine.sync_classifier(classifier)
        assert engine.stats.batches_applied == 2
        assert engine.stats.batch_size_cdf().samples == [2, 2]

    def test_backpressure_forces_flush(self):
        table = FlowTable()
        engine = SouthboundEngine(table, SouthboundConfig(max_pending=2))
        with engine.deferred():
            engine.push_rules([rule(5, FWD1, dstport=80),
                               rule(4, FWD1, dstport=443)])
            assert engine.stats.backpressure_flushes == 1
            assert engine.pending == 0
            assert len(table) == 2

    def test_observer_sees_batches_in_order(self):
        table = FlowTable()
        engine = SouthboundEngine(table, SouthboundConfig(max_batch_size=1))
        seen = []
        engine.add_observer(lambda batch: seen.append(batch[0].key))
        engine.push_rules([rule(5, FWD1, dstport=80), rule(9, FWD2)])
        assert seen == [(9, HeaderSpace()), (5, HeaderSpace(dstport=80))]

    def test_stats_render_smoke(self):
        table = FlowTable()
        engine = SouthboundEngine(table)
        engine.push_rules([rule(5, FWD1, dstport=80)])
        text = engine.stats.render()
        assert "mods_sent" in text and "apply ms (median)" in text


# ----------------------------------------------------------------------
# Property tests: delta apply ≡ fresh install; two-phase safety
# ----------------------------------------------------------------------

_ACTIONS = st.one_of(
    st.just(()),
    st.sampled_from([1, 2, 3]).map(lambda p: (Action(port=p),)))

_MATCHES = st.fixed_dictionaries({}, optional={
    "dstport": st.sampled_from([80, 443, 22]),
    "dstip": st.sampled_from(["10.0.0.0/8", "10.128.0.0/9",
                              "11.0.0.0/8", "11.0.1.0/24"]),
    "port": st.sampled_from([1, 2]),
}).map(lambda kwargs: HeaderSpace(**kwargs))

_CLASSIFIERS = st.lists(st.tuples(_MATCHES, _ACTIONS), max_size=8).map(
    lambda pairs: Classifier([Rule(m, a) for m, a in pairs]))


def _corpus(old: Classifier, new: Classifier):
    """Representative packets: one inside every rule's match, both sides."""
    packets = []
    for classifier in (old, new):
        for each in classifier.rules:
            packets.append(each.match.concretise(
                dstport=8080, dstip="192.0.2.1", port=9))
    packets.append(HeaderSpace().concretise(
        dstport=8080, dstip="192.0.2.1", port=9))
    return packets


def _outcome(table: FlowTable, packet):
    hit = table.lookup(packet)
    return None if hit is None else hit.actions


def _semantics(table: FlowTable):
    """Rule order and content, ignoring the numeric priorities (the
    aligner keeps installed priorities, a fresh install numbers densely)."""
    return [(r.match, r.actions) for r in table.rules]


@given(old=_CLASSIFIERS, new=_CLASSIFIERS)
@settings(max_examples=150, deadline=None)
def test_delta_apply_equals_fresh_install(old, new):
    table = FlowTable()
    table.install_classifier(old)
    fresh = FlowTable()
    fresh.install_classifier(new)
    delta = diff_classifier(table.rules, new)
    table.apply_delta(schedule_two_phase(delta.mods))
    assert _semantics(table) == _semantics(fresh)
    for packet in _corpus(old, new):
        assert _outcome(table, packet) == _outcome(fresh, packet)


@given(old=_CLASSIFIERS, mid=_CLASSIFIERS, new=_CLASSIFIERS)
@settings(max_examples=100, deadline=None)
def test_coalesced_burst_equals_fresh_install(old, mid, new):
    """The burst path: two queued syncs flushed once ≡ installing the last."""
    table = FlowTable()
    table.install_classifier(old)
    engine = SouthboundEngine(table)
    with engine.deferred():
        engine.sync_classifier(mid)
        engine.sync_classifier(new)
        assert len(table) == len(old.rules)  # nothing applied yet
    fresh = FlowTable()
    fresh.install_classifier(new)
    assert _semantics(table) == _semantics(fresh)


@given(old=_CLASSIFIERS, new=_CLASSIFIERS)
@settings(max_examples=150, deadline=None)
def test_two_phase_intermediate_states_are_safe(old, new):
    """At every mod boundary, each packet forwards the old way or the new
    way — never onto a stale mid-priority rule or into a hole."""
    before = FlowTable()
    before.install_classifier(old)
    after = FlowTable()
    after.install_classifier(new)
    corpus = _corpus(old, new)
    allowed = {
        id(packet): {_outcome(before, packet), _outcome(after, packet)}
        for packet in corpus
    }
    table = FlowTable()
    table.install_classifier(old)
    for mod in schedule_two_phase(diff_classifier(table.rules, new).mods):
        table.apply_mod(mod)
        for packet in corpus:
            assert _outcome(table, packet) in allowed[id(packet)]


class _WindowObserver:
    """Records the engine's optional window hooks in dispatch order."""

    def __init__(self):
        self.events = []

    def on_apply_begin(self):
        self.events.append("begin")

    def on_batch_pending(self, batch):
        self.events.append(("pending", len(batch)))

    def __call__(self, batch):
        self.events.append(("applied", len(batch)))

    def on_apply_end(self):
        self.events.append("end")


class TestObserverHooks:
    def test_window_hooks_dispatch_in_order(self):
        table = FlowTable()
        engine = SouthboundEngine(table,
                                  SouthboundConfig(max_batch_size=2))
        observer = _WindowObserver()
        engine.add_observer(observer)
        engine.push_rules([rule(i, FWD1, dstport=1000 + i)
                           for i in range(3)])
        assert observer.events == [
            "begin", ("pending", 2), ("applied", 2),
            ("pending", 1), ("applied", 1), "end"]

    def test_plain_callable_observers_still_work(self):
        table = FlowTable()
        engine = SouthboundEngine(table)
        batches = []
        engine.add_observer(batches.append)
        engine.push_rules([rule(1, FWD1, dstport=80)])
        assert len(batches) == 1

    def test_empty_window_dispatches_no_hooks(self):
        engine = SouthboundEngine(FlowTable())
        observer = _WindowObserver()
        engine.add_observer(observer)
        engine.flush()
        assert observer.events == []
