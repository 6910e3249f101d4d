"""Counters and latency distributions of the southbound engine.

What the Figure 9/10 update-cost benchmarks report of the delta engine:
FlowMods sent per kind, coalescing savings, batch sizes, per-batch apply
latency, and how many rules each sync left untouched (the
counter-preserving majority). The scalars *are* the registry's
``sdx_southbound_*`` counters — the engine increments them, ``repro
stats`` and the Prometheus exposition read the same objects — and
``stats.adds_sent`` and friends read their values.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.telemetry.registry import Counter, MetricsRegistry

#: How many of the latest batches the two CDFs are taken over: a window,
#: so a day of churn holds no more than a minute of it.
BATCH_WINDOW = 4096

class SouthboundStats:
    """Cumulative southbound-engine measurements, held in the registry.

    Pass the controller's registry to share one namespace with the rest
    of the pipeline; the default is a private registry so standalone
    engines (and tests) stay isolated.
    """

    # Counting goes through ``counters``: ``stats.adds_sent = n`` raises.
    __slots__ = ("registry", "counters", "_batch_size", "_apply_latency",
                 "_batches")

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        counter, histogram = self.registry.counter, self.registry.histogram
        flowmods = ("sdx_southbound_flowmods_total",
                    "FlowMods applied to the table, by kind")
        #: Snapshot key -> its registry counter; the engine calls ``inc``.
        self.counters: Dict[str, Counter] = {
            "adds_sent": counter(*flowmods, op="add"),
            "modifies_sent": counter(*flowmods, op="modify"),
            "deletes_sent": counter(*flowmods, op="delete"),
            "mods_coalesced": counter(
                "sdx_southbound_coalesced_total",
                "Mods absorbed by per-key coalescing before reaching the switch"),
            "syncs": counter("sdx_southbound_syncs_total",
                             "Classifier syncs processed (one per recompile swap)"),
            "rules_unchanged": counter(
                "sdx_southbound_rules_unchanged_total",
                "Rules a sync left untouched (counters preserved)"),
            "batches_applied": counter("sdx_southbound_batches_total",
                                       "Batches applied to the table"),
            "backpressure_flushes": counter(
                "sdx_southbound_backpressure_flushes_total",
                "Flushes forced by queue backpressure"),
        }
        self._batch_size = histogram(
            "sdx_southbound_batch_size", "FlowMods per applied batch")
        self._apply_latency = histogram(
            "sdx_southbound_apply_seconds", "Wall-clock seconds per applied batch")
        #: ``(size, seconds)`` of the latest batches, in order.
        self._batches: Deque[Tuple[int, float]] = deque(maxlen=BATCH_WINDOW)

    def __getattr__(self, key: str) -> int:
        """``stats.adds_sent`` and the other snapshot keys, as numbers."""
        if key == "counters" or key not in self.counters:
            raise AttributeError(key)
        return self.counters[key].value

    @property
    def mods_sent(self) -> int:
        """Total FlowMods actually applied to the table."""
        return self.adds_sent + self.modifies_sent + self.deletes_sent

    def record_batch(self, size: int, seconds: float) -> None:
        """Account one applied batch."""
        self.counters["batches_applied"].inc()
        self._batches.append((size, seconds))
        self._batch_size.observe(size)
        self._apply_latency.observe(seconds)

    def batch_size_cdf(self):
        """Distribution of the latest :data:`BATCH_WINDOW` batch sizes (a
        :class:`~repro.experiments.metrics.Cdf`)."""
        from repro.experiments.metrics import Cdf
        return Cdf(size for size, _seconds in self._batches)

    def apply_time_cdf(self):
        """Distribution of the latest per-batch apply latencies."""
        from repro.experiments.metrics import Cdf
        return Cdf(seconds for _size, seconds in self._batches)

    def snapshot(self) -> Dict[str, int]:
        """The scalar counters as a plain dict (for logs and diffing)."""
        values = {key: counter.value for key, counter in self.counters.items()}
        return {**values, "mods_sent": self.mods_sent}

    def render(self) -> str:
        """A printable table of counters plus latency quantiles."""
        from repro.experiments.metrics import render_table
        rows = [[name, value] for name, value in self.snapshot().items()]
        if self._batches:
            latency, sizes = self.apply_time_cdf(), self.batch_size_cdf()
            rows += [
                ["apply ms (median)", f"{latency.median * 1000:.3f}"],
                ["apply ms (p99)", f"{latency.quantile(0.99) * 1000:.3f}"],
                ["batch size (median)", f"{sizes.median:g}"],
                ["batch size (max)", f"{sizes.quantile(1.0):g}"]]
        return render_table(["counter", "value"], rows)

    def __repr__(self) -> str:
        return (f"SouthboundStats({self.mods_sent} sent, "
                f"{self.mods_coalesced} coalesced, "
                f"{self.batches_applied} batches)")
