"""Tests for counters, gauges, streaming histograms, and the registry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry.registry import (
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("events_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_set_is_monotonic(self):
        counter = MetricsRegistry().counter("events_total")
        counter.set(10)
        assert counter.value == 10
        counter.set(10)  # idempotent re-set is fine
        with pytest.raises(ValueError):
            counter.set(9)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("level")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4


class TestHistogram:
    def test_counts_and_sum(self):
        histogram = Histogram.from_samples("latency", [1.0, 2.0, 3.0])
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(6.0)
        assert histogram.mean == pytest.approx(2.0)

    def test_exact_endpoints(self):
        histogram = Histogram.from_samples("latency", [0.5, 1.7, 42.0])
        assert histogram.quantile(0.0) == 0.5
        assert histogram.quantile(1.0) == 42.0
        assert histogram.min == 0.5
        assert histogram.max == 42.0

    def test_interior_quantile_within_bucket_error(self):
        samples = [float(v) for v in range(1, 1001)]
        histogram = Histogram.from_samples("latency", samples)
        # Log buckets (base 1.1) bound the relative error at ~5%.
        assert histogram.quantile(0.5) == pytest.approx(500, rel=0.06)
        assert histogram.quantile(0.99) == pytest.approx(990, rel=0.06)

    def test_quantile_bounds_checked(self):
        histogram = Histogram.from_samples("latency", [1.0])
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_empty_histogram_quantiles_are_zero(self):
        histogram = MetricsRegistry().histogram("latency")
        assert histogram.quantile(0.5) == 0.0
        assert histogram.count == 0

    def test_zero_and_negative_samples_underflow_bucket(self):
        histogram = Histogram.from_samples("sizes", [0.0, 0.0, 5.0])
        assert histogram.count == 3
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(1.0) == 5.0
        assert histogram.quantile(0.5) >= 0.0

    def test_single_sample_all_quantiles_collapse(self):
        histogram = Histogram.from_samples("latency", [3.7])
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert histogram.quantile(q) == 3.7
        summary = histogram.percentiles()
        assert summary["p50"] == summary["p99"] == summary["max"] == 3.7

    def test_heavily_skewed_distribution(self):
        # 999 fast samples and one 10^6x outlier: the tail quantiles
        # must not contaminate the body, and the max stays exact.
        samples = [0.001] * 999 + [1000.0]
        histogram = Histogram.from_samples("latency", samples)
        assert histogram.quantile(0.5) == pytest.approx(0.001, rel=0.06)
        assert histogram.quantile(0.99) == pytest.approx(0.001, rel=0.06)
        assert histogram.quantile(1.0) == 1000.0
        assert histogram.percentiles()["max"] == 1000.0
        # Quantiles stay monotone across the jump to the outlier bucket.
        values = [histogram.quantile(q)
                  for q in (0.5, 0.9, 0.99, 0.999, 1.0)]
        assert values == sorted(values)

    def test_percentiles_summary(self):
        histogram = Histogram.from_samples("latency", [1.0, 2.0, 3.0])
        summary = histogram.percentiles()
        assert set(summary) == {"p50", "p90", "p99", "max"}
        assert summary["max"] == 3.0

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6),
                    min_size=1, max_size=100))
    def test_quantiles_bounded_by_min_max_property(self, samples):
        histogram = Histogram.from_samples("latency", samples)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert min(samples) <= histogram.quantile(q) <= max(samples)

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                    min_size=1, max_size=100))
    def test_median_relative_error_property(self, samples):
        from repro.experiments.metrics import Cdf
        histogram = Histogram.from_samples("latency", samples)
        exact = Cdf(samples)
        # Endpoints agree exactly with the Cdf contract.
        assert histogram.quantile(0.0) == exact.quantile(0.0)
        assert histogram.quantile(1.0) == exact.quantile(1.0)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("events_total", "help")
        second = registry.counter("events_total")
        assert first is second
        assert len(registry) == 1

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        add = registry.counter("mods_total", op="add")
        delete = registry.counter("mods_total", op="delete")
        assert add is not delete
        add.inc()
        assert registry.get("mods_total", op="add").value == 1
        assert registry.get("mods_total", op="delete").value == 0

    def test_full_name_includes_labels(self):
        registry = MetricsRegistry()
        metric = registry.counter("mods_total", op="add")
        assert metric.full_name == "mods_total{op=add}"

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_losses_collects_by_suffix(self):
        registry = MetricsRegistry()
        dropped = registry.counter("x_dropped_total")
        registry.counter("x_misses_total")
        registry.counter("x_skipped_total")
        registry.counter("x_total")  # not a loss counter
        dropped.inc(3)
        losses = registry.losses()
        assert losses == {"x_dropped_total": 3, "x_misses_total": 0,
                          "x_skipped_total": 0}

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(4.0)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 2
        assert snapshot["g"] == 1.5
        assert snapshot["h"]["count"] == 1
        assert snapshot["h"]["max"] == 4.0

    def test_render_lists_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h")
        text = registry.render()
        assert "c" in text
        assert "(no samples)" in text

    def test_render_empty(self):
        assert MetricsRegistry().render() == "(no metrics)"
