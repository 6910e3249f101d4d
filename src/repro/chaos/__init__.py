"""Fault injection for the BGP session lifecycle (``repro soak --chaos``).

The PR-3 fuzzer proves the incremental compiler equals a full
recompilation on *clean* traces; this package proves the same pipeline
— and the PR-4 control-plane runtime in front of it — survives the
traces operators actually see: sessions failing mid-burst, flap storms
with damping holds, correlated multi-peer outages, wedged routes, and
resets racing the southbound two-phase swap.

Faults are data (:class:`~repro.workloads.churn.ChaosSchedule`) and the
driver is one more :class:`~repro.verification.kernel.Check`: it holds
two arms (inline controller vs runtime) and checks settle assertions
after every fault. Replay, shrinking to minimal schedules, replayable
JSON artifacts and the budgeted soak session are the shared harness
kernel's (:mod:`repro.verification.kernel`), the same ones ``repro
fuzz`` runs.
"""

from repro.chaos.driver import (
    ChaosReport,
    ChaosRunner,
    ChaosSoakConfig,
    ChaosSoakReport,
    FaultOutcome,
    run_chaos,
    run_chaos_soak,
)

__all__ = [
    "ChaosReport",
    "ChaosRunner",
    "ChaosSoakConfig",
    "ChaosSoakReport",
    "FaultOutcome",
    "run_chaos",
    "run_chaos_soak",
]
