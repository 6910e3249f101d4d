"""Performance observability: where the time of a pipeline run went.

The third observability axis, next to :mod:`repro.telemetry` (what the
pipeline did) and :mod:`repro.monitoring` (what the data plane carried).
Three pieces, all behind ``repro profile``:

- :mod:`repro.profiling.phases` — deterministic attribution of wall
  time, call counts, and memory to named pipeline stages (policy join,
  MDS/FEC grouping, classifier cross-product, incremental delta,
  southbound diff/swap, dataplane verify, runtime drain), computed from
  the telemetry span buffer;
- :mod:`repro.profiling.profiler` — :class:`PhaseProfiler`, a tracer
  listener that snapshots :mod:`tracemalloc` at span boundaries and can
  scope a :mod:`cProfile` capture to a single named span;
- :mod:`repro.profiling.folded` — the folded-stack exporter
  (``repro profile --flamegraph`` emits standard flamegraph input).

Whether a change made the pipeline faster or slower is not measured
here: that is the contract benchmark under ``benchmarks/sdxbench/``
(docs/PERFORMANCE.md).
"""

from repro.profiling.folded import folded_stacks
from repro.profiling.phases import (
    PHASE_BY_SPAN,
    PhaseReport,
    PhaseStat,
    attribute_spans,
)
from repro.profiling.profiler import PhaseProfiler

__all__ = [
    "PHASE_BY_SPAN",
    "PhaseProfiler",
    "PhaseReport",
    "PhaseStat",
    "attribute_spans",
    "folded_stacks",
]
