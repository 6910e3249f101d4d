"""SouthboundStats holds the registry's ``sdx_southbound_*`` counters:
every readable attribute, snapshot key, and render row reports what the
registry reports, and the batch distributions are a bounded window."""

from repro.dataplane.flowtable import FlowTable
from repro.policy.classifier import Action
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import HeaderSpace
from repro.southbound.engine import SouthboundConfig, SouthboundEngine
from repro.southbound.stats import SouthboundStats
from repro.telemetry import Telemetry
from repro.telemetry.registry import MetricsRegistry


def _classifier(*ports: int) -> list:
    """Disjoint rules, so one level — keyed as the compiler would."""
    return [FlowRule(10, HeaderSpace(dstport=port), (Action(port=port),))
            for port in ports]


class TestFacadeSemantics:
    def test_attributes_start_at_zero(self):
        stats = SouthboundStats()
        assert stats.adds_sent == 0
        assert stats.modifies_sent == 0
        assert stats.deletes_sent == 0
        assert stats.mods_sent == 0
        assert stats.mods_coalesced == 0
        assert stats.syncs == 0
        assert stats.rules_unchanged == 0
        assert stats.batches_applied == 0
        assert stats.backpressure_flushes == 0

    def test_counters_are_the_registrys(self):
        registry = MetricsRegistry()
        stats = SouthboundStats(registry=registry)
        stats.counters["adds_sent"].inc(3)
        stats.counters["modifies_sent"].inc()
        stats.counters["deletes_sent"].inc(2)
        assert stats.mods_sent == 6
        assert registry.get("sdx_southbound_flowmods_total", op="add").value == 3
        assert registry.get("sdx_southbound_flowmods_total",
                            op="modify").value == 1
        assert registry.get("sdx_southbound_flowmods_total",
                            op="delete").value == 2

    def test_assignment_is_refused(self):
        import pytest
        stats = SouthboundStats()
        with pytest.raises(AttributeError):
            stats.mods_coalesced = 7  # would shadow the counter's value
        with pytest.raises(AttributeError):
            stats.no_such_counter

    def test_record_batch_feeds_window_and_histograms(self):
        registry = MetricsRegistry()
        stats = SouthboundStats(registry=registry)
        stats.record_batch(4, 0.002)
        stats.record_batch(2, 0.001)
        assert stats.batch_size_cdf().samples == [2, 4]
        assert stats.apply_time_cdf().samples == [0.001, 0.002]
        assert stats.batches_applied == 2
        assert registry.get("sdx_southbound_batch_size").count == 2
        assert registry.get("sdx_southbound_batch_size").max == 4
        assert registry.get("sdx_southbound_apply_seconds").count == 2

    def test_cdfs_still_exact(self):
        stats = SouthboundStats()
        for size in (1, 2, 3, 4):
            stats.record_batch(size, size / 1000)
        assert stats.batch_size_cdf().quantile(1.0) == 4
        assert stats.apply_time_cdf().quantile(0.0) == 0.001

    def test_batch_window_is_bounded(self):
        from repro.southbound.stats import BATCH_WINDOW
        stats = SouthboundStats()
        for size in range(BATCH_WINDOW + 10):
            stats.record_batch(size, 0.001)
        # Memory stays flat under day-long churn: the latest window only,
        # while the counter and the histograms keep the whole count.
        assert len(stats.batch_size_cdf()) == BATCH_WINDOW
        assert stats.batch_size_cdf().quantile(0.0) == 10
        assert stats.batches_applied == BATCH_WINDOW + 10

    def test_private_registries_are_isolated(self):
        first = SouthboundStats()
        second = SouthboundStats()
        first.counters["adds_sent"].inc(5)
        assert second.adds_sent == 0

    def test_snapshot_keys_unchanged(self):
        stats = SouthboundStats()
        assert set(stats.snapshot()) == {
            "adds_sent", "modifies_sent", "deletes_sent", "mods_sent",
            "mods_coalesced", "syncs", "rules_unchanged",
            "batches_applied", "backpressure_flushes",
        }

    def test_render_rows_unchanged(self):
        stats = SouthboundStats()
        stats.counters["adds_sent"].inc()
        stats.record_batch(1, 0.001)
        text = stats.render()
        assert "mods_sent" in text
        assert "apply ms (median)" in text
        assert "batch size (max)" in text


class TestEnginePreservation:
    def test_engine_counters_match_registry_verbatim(self):
        table = FlowTable()
        engine = SouthboundEngine(table)
        engine.sync_classifier(_classifier(80, 443))
        engine.sync_classifier(_classifier(80, 443, 8080))
        engine.sync_classifier(_classifier(80))
        stats = engine.stats
        registry = engine.telemetry.registry
        # Scalar for scalar, the facade and the registry agree.
        assert stats.adds_sent == registry.get(
            "sdx_southbound_flowmods_total", op="add").value
        assert stats.modifies_sent == registry.get(
            "sdx_southbound_flowmods_total", op="modify").value
        assert stats.deletes_sent == registry.get(
            "sdx_southbound_flowmods_total", op="delete").value
        assert stats.mods_coalesced == registry.get(
            "sdx_southbound_coalesced_total").value
        assert stats.syncs == registry.get(
            "sdx_southbound_syncs_total").value == 3
        assert stats.rules_unchanged == registry.get(
            "sdx_southbound_rules_unchanged_total").value
        assert stats.batches_applied == registry.get(
            "sdx_southbound_batches_total").value
        assert stats.backpressure_flushes == registry.get(
            "sdx_southbound_backpressure_flushes_total").value
        # And the historical semantics hold: 2 + 1 adds, then 2 deletes.
        assert stats.adds_sent == 3
        assert stats.deletes_sent == 2
        assert stats.rules_unchanged == 3  # 2 kept + 1 kept across syncs

    def test_backpressure_flush_counted_in_both_views(self):
        table = FlowTable()
        engine = SouthboundEngine(table, SouthboundConfig(max_pending=2))
        with engine.deferred():
            engine.sync_classifier(_classifier(80, 443, 8080))
        assert engine.stats.backpressure_flushes == 1
        assert engine.telemetry.registry.get(
            "sdx_southbound_backpressure_flushes_total").value == 1

    def test_coalescing_counted_in_both_views(self):
        table = FlowTable()
        engine = SouthboundEngine(table)
        with engine.deferred():
            engine.sync_classifier(_classifier(80))
            engine.sync_classifier(_classifier(80, 443))
        assert engine.stats.mods_coalesced == engine.queue.coalesced
        assert engine.telemetry.registry.get(
            "sdx_southbound_coalesced_total").value == engine.queue.coalesced

    def test_shared_registry_injection(self):
        registry = MetricsRegistry()
        table = FlowTable()
        engine = SouthboundEngine(table, telemetry=Telemetry(registry=registry))
        engine.sync_classifier(_classifier(80))
        assert registry.get(
            "sdx_southbound_flowmods_total", op="add").value == 1
