"""Measurement harness shared by the benchmark suite and the examples.

- :mod:`repro.experiments.metrics` — CDFs and labelled data series;
- :mod:`repro.experiments.harness` — one runner per table/figure of the
  paper's evaluation, returning printable rows; the Figure 5 timelines
  and the Section 4.3.2 trace replay run on the runtime's simulated
  clock through :class:`~repro.monitoring.driver.MonitoredTrafficDriver`
  and :class:`~repro.runtime.loop.ControlPlaneRuntime`;
- :mod:`repro.experiments.monitoring` — the closed monitoring loops.
"""

from repro.experiments.metrics import Cdf, Series
from repro.experiments.harness import (
    replay_trace,
    run_fig5a,
    run_fig5b,
    run_fig6,
    run_fig9,
    run_fig10,
    run_table1,
)

__all__ = [
    "Cdf",
    "Series",
    "replay_trace",
    "run_fig5a",
    "run_fig5b",
    "run_fig6",
    "run_fig9",
    "run_fig10",
    "run_table1",
]
