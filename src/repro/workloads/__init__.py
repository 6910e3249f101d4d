"""Synthetic evaluation inputs calibrated to the paper's Section 6.

The authors drove their evaluation with RIPE RIS data from the three
largest IXPs (Table 1) and a policy generator parameterised by AS role
(Section 6.1). Neither the traces nor the exact generator are public, so
this package regenerates statistically equivalent inputs:

- :mod:`repro.workloads.datasets` — the Table 1 profiles (AMS-IX, DE-CIX,
  LINX) as data, with scaling support;
- :mod:`repro.workloads.routing` — prefix pools and AS-path synthesis;
- :mod:`repro.workloads.topology` — heavy-tailed synthetic IXPs ("1% of
  ASes announce >50% of prefixes");
- :mod:`repro.workloads.policies` — the eyeball/transit/content policy
  mix of Section 6.1, and :func:`loaded_exchange`, the one recipe for a
  generated exchange running it;
- :mod:`repro.workloads.updates` — bursty BGP update traces matching the
  Section 4.3 measurements (75% of bursts ≤ 3 prefixes, inter-arrivals
  ≥ 10 s 75% of the time, 10-14% of prefixes ever updated).

Everything is seeded and deterministic.
"""

from repro.workloads.churn import (
    FAULT_KINDS,
    ChaosFault,
    ChaosSchedule,
    generate_chaos_schedule,
    generate_withdrawal_flood,
)
from repro.workloads.datasets import AMS_IX, DE_CIX, LINX, IxpProfile
from repro.workloads.routing import PrefixPool, synthesize_as_path
from repro.workloads.topology import ParticipantSpec, SyntheticIxp, generate_ixp
from repro.workloads.policies import (
    PolicyAssignment,
    generate_policies,
    loaded_exchange,
)
from repro.workloads.updates import (
    TraceEvent,
    TraceStats,
    generate_burst_trace,
    generate_trace,
)

__all__ = [
    "AMS_IX",
    "ChaosFault",
    "ChaosSchedule",
    "DE_CIX",
    "FAULT_KINDS",
    "IxpProfile",
    "LINX",
    "ParticipantSpec",
    "PolicyAssignment",
    "PrefixPool",
    "SyntheticIxp",
    "TraceEvent",
    "TraceStats",
    "generate_chaos_schedule",
    "generate_ixp",
    "generate_policies",
    "generate_withdrawal_flood",
    "generate_burst_trace",
    "generate_trace",
    "loaded_exchange",
    "synthesize_as_path",
]
