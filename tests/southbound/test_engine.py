"""Tests for the southbound engine: scheduling, batching, and the
delta-equals-fresh-install / two-phase-safety properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.flowtable import FlowTable
from repro.policy.classifier import Action, Classifier, Rule
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import HeaderSpace
from repro.policy.matchindex import MatchIndex
from repro.southbound.diff import FlowMod, FlowModOp, compute_delta
from repro.southbound.engine import (
    SouthboundConfig,
    SouthboundEngine,
    schedule_two_phase,
)

from tests.core.reference_numbering import file_at_depth


def rule(priority, actions=(), **constraints):
    return FlowRule(priority=priority, match=HeaderSpace(**constraints),
                    actions=actions)


FWD1 = (Action(port=1),)
FWD2 = (Action(port=2),)


def keyed(classifier, top=100):
    """``classifier`` keyed the compiler's way: every rule ``top`` less its
    overlap depth — rules that share a priority never share a packet."""
    index = MatchIndex()
    return [FlowRule(top - file_at_depth(index, r.match), r.match, r.actions)
            for r in classifier.rules]


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
        delta = engine.sync_classifier(keyed(classifier))
        assert delta.total == 2
        assert len(table) == 2
        assert engine.stats.adds_sent == 2
        assert engine.stats.batches_applied >= 1

    def test_sync_is_minimal_on_resync(self):
        table = FlowTable()
        engine = SouthboundEngine(table)
        classifier = Classifier([Rule(HeaderSpace(dstport=80), FWD1),
                                 Rule(HeaderSpace(), ())])
        engine.sync_classifier(keyed(classifier))
        delta = engine.sync_classifier(keyed(classifier))
        assert delta.is_empty
        assert engine.stats.mods_sent == 2  # nothing new sent
        assert engine.stats.rules_unchanged == 2

    def test_push_and_retract_rules(self):
        table = FlowTable()
        engine = SouthboundEngine(table)
        shadow = rule(1_000_001, FWD1, dstport=80)
        assert engine.push_rules([shadow]) == 1
        assert table.rules == (shadow,)
        # Pushed rules leave the way fast-path rules do: the next sync of
        # the main table reclaims what it does not name.
        assert len(engine.sync_classifier([]).deletes) == 1
        assert len(table) == 0

    def test_manual_flush_coalesces_across_syncs(self):
        table = FlowTable()
        engine = SouthboundEngine(table)
        first = Classifier([Rule(HeaderSpace(dstport=80), FWD1),
                            Rule(HeaderSpace(), ())])
        second = Classifier([Rule(HeaderSpace(dstport=80), FWD2),
                             Rule(HeaderSpace(), ())])
        with engine.deferred():
            engine.sync_classifier(keyed(first))
            assert len(table) == 0 and engine.pending == 2
            engine.sync_classifier(keyed(second))
            # The dstport=80 add was rewritten in place: still two pending.
            assert engine.pending == 2
            assert engine.stats.mods_coalesced >= 1
            engine.flush()
        assert set(table.rules) == set(keyed(second))
        assert engine.pending == 0

    def test_batching_respects_max_batch_size(self):
        table = FlowTable()
        engine = SouthboundEngine(table, SouthboundConfig(max_batch_size=2))
        classifier = Classifier(
            [Rule(HeaderSpace(dstport=port), FWD1) for port in (80, 443, 22)]
            + [Rule(HeaderSpace(), ())])
        engine.sync_classifier(keyed(classifier))
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

#: Up to eight rules and, half the time, a catch-all under them — which
#: sits one level below whatever it follows, so its key differs from table
#: to table (the compiler pins its own; the schedule must not need that).
_CLASSIFIERS = st.builds(
    lambda pairs, total: Classifier(
        [Rule(m, a) for m, a in pairs] + [Rule(HeaderSpace(), ())] * total),
    st.lists(st.tuples(_MATCHES, _ACTIONS), max_size=8), st.booleans())


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


def _outcome(table, packet):
    """What ``table`` — a flow table or a classifier — does to ``packet``."""
    hit = (table.lookup(packet) if isinstance(table, FlowTable)
           else table.first_match(packet))
    return None if hit is None else hit.actions


def _installed(classifier: Classifier) -> FlowTable:
    table = FlowTable()
    table.install_many(keyed(classifier))
    return table


@given(old=_CLASSIFIERS, new=_CLASSIFIERS)
@settings(max_examples=150, deadline=None)
def test_delta_apply_equals_fresh_install(old, new):
    """Keys are a function of the classifier: the delta lands on exactly
    the table a fresh install builds, which forwards as the classifier."""
    table = _installed(old)
    delta = compute_delta(table.rules, keyed(new))
    table.apply_delta(schedule_two_phase(delta.mods))
    assert set(table.rules) == set(_installed(new).rules)
    assert delta.unchanged == len(set(keyed(old)) & set(keyed(new)))
    for packet in _corpus(old, new):
        assert _outcome(table, packet) == _outcome(new, packet)


@given(old=_CLASSIFIERS, mid=_CLASSIFIERS, new=_CLASSIFIERS)
@settings(max_examples=100, deadline=None)
def test_coalesced_burst_equals_fresh_install(old, mid, new):
    """The burst path: two queued syncs flushed once ≡ installing the last."""
    table = _installed(old)
    engine = SouthboundEngine(table)
    with engine.deferred():
        engine.sync_classifier(keyed(mid))
        engine.sync_classifier(keyed(new))
        assert len(table) == len(old.rules)  # nothing applied yet
    assert set(table.rules) == set(keyed(new))
    for packet in _corpus(old, new):
        assert _outcome(table, packet) == _outcome(new, packet)


@given(old=_CLASSIFIERS, new=_CLASSIFIERS)
@settings(max_examples=150, deadline=None)
def test_two_phase_intermediate_states_are_safe(old, new):
    """At every mod boundary, each packet forwards the old way or the new
    way — never onto a stale mid-priority rule or into a hole — although
    old and new rules meet on shared levels along the way."""
    corpus = _corpus(old, new)
    allowed = {
        id(packet): {_outcome(old, packet), _outcome(new, packet)}
        for packet in corpus
    }
    table = _installed(old)
    mods = schedule_two_phase(compute_delta(table.rules, keyed(new)).mods)
    for mod in mods:
        table.apply_mod(mod)
        for packet in corpus:
            assert _outcome(table, packet) in allowed[id(packet)]


class _WindowObserver:
    """Records the engine's optional window hooks in dispatch order."""

    def __init__(self):
        self.events = []

    def on_apply_begin(self):
        self.events.append("begin")

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
            "begin", ("applied", 2), ("applied", 1), "end"]

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
