"""The southbound flow-update engine (controller → switch).

The compiler and the incremental engine produce *desired* rule tables;
a real switch wants a stream of FlowMod messages. This subpackage is the
layer between the two — what the paper's prototype delegated to Pyretic's
OpenFlow runtime, rebuilt here so update cost is measurable and bounded:

* :mod:`repro.southbound.diff` — the minimal delta (adds / modifies /
  deletes, keyed by match + priority) between an installed rule set and a
  freshly compiled one, and the priority bands the compiler numbers in;
* :mod:`repro.southbound.queue` — an update queue that coalesces
  back-to-back mods for the same rule key, batches FlowMods, and applies
  backpressure under bursts;
* :mod:`repro.southbound.engine` — the priority-safe two-phase scheduler
  (install adds/modifies before deletes) guaranteeing every intermediate
  table state forwards each packet the old way or the new way, never into
  a transient hole;
* :mod:`repro.southbound.stats` — per-batch counters and latency
  histograms, rendered through :mod:`repro.experiments.metrics`.
"""

from repro.southbound.diff import (
    Delta,
    FlowMod,
    FlowModOp,
    DEFAULT_BAND_TOP,
    DROP_PRIORITY,
    PRIORITY_CEILING,
    compute_delta,
    rule_key,
)
from repro.southbound.engine import SouthboundConfig, SouthboundEngine, schedule_two_phase
from repro.southbound.queue import UpdateQueue
from repro.southbound.stats import SouthboundStats

__all__ = [
    "DEFAULT_BAND_TOP",
    "DROP_PRIORITY",
    "Delta",
    "FlowMod",
    "FlowModOp",
    "PRIORITY_CEILING",
    "SouthboundConfig",
    "SouthboundEngine",
    "SouthboundStats",
    "UpdateQueue",
    "compute_delta",
    "rule_key",
    "schedule_two_phase",
]
