"""Differential fuzzing and invariant verification for the SDX pipeline.

The paper's correctness story rests on two claims that are easy to break
and hard to eyeball: the two-stage incremental compiler is *semantically
transparent* (Section 4.3 — "the fast path trades space, never
correctness"), and the southbound table swap is *consistency preserving*
(every packet follows the old or the new path at every intermediate
state). This package turns both claims into executable oracles:

- :mod:`repro.verification.kernel` — the one harness kernel: cases,
  the ``Check`` protocol, the lockstep ``replay`` driver, the shrinker,
  replayable failure artifacts, and the budgeted session loop;
- :mod:`repro.verification.scenario` — seeded, replayable scenarios:
  a small exchange, a policy mix, and a BGP update trace drawn from the
  same calibrated distributions as :mod:`repro.workloads.updates`;
- :mod:`repro.verification.corpus` — a deterministic packet corpus
  biased toward the scenario's policy match values and announced
  prefixes;
- :mod:`repro.verification.reference` — an independent packet-level
  interpreter built on the real :class:`~repro.dataplane.switch
  .SoftwareSwitch` / :class:`~repro.dataplane.flowtable.FlowTable`
  machinery but sharing no compiler code;
- :mod:`repro.verification.invariants` — isolation, BGP consistency,
  default-route conformance via VNH/VMAC tags, and loss-free two-phase
  southbound swaps;
- :mod:`repro.verification.fuzz` — the fuzzing session behind
  ``python -m repro fuzz`` and ``make fuzz``;

and the checks the kernel drives (:class:`repro.chaos.ChaosRunner` is
the sixth):

- :mod:`repro.verification.oracle` — ``oracle``: three lockstep
  executions per trace (full recompilation, incremental engine,
  reference interpreter) diffed after every update, plus the standing
  invariants;
- :mod:`repro.verification.runtime` — ``runtime``: runtime-vs-inline
  equivalence over canonical (VNH/VMAC-renaming-insensitive) state
  snapshots (``python -m repro fuzz --runtime``);
- :mod:`repro.verification.statics` — ``statics``: dead-clause and
  route-less-forward verdicts of the static policy verifier checked
  packet-by-packet against the reference interpreter
  (``python -m repro fuzz --statics``);
- :mod:`repro.verification.dataplane` — ``dataplane``: the incremental
  dataplane verifier held byte-identical to a fresh whole-table
  analysis, plus the SDX010-SDX012 witness contracts against the real
  flow table (``python -m repro fuzz --dataplane``);
- :mod:`repro.verification.federation` — ``federation``: SDX008/SDX009
  witness contracts plus the real-vs-reference federated walk
  comparison (``python -m repro fuzz --federation``).
"""

from repro.verification.corpus import generate_corpus
from repro.verification.fuzz import FuzzConfig, run_fuzz
from repro.verification.invariants import (
    SwapMonitor,
    Violation,
    check_all,
    check_bgp_consistency,
    check_default_conformance,
    check_single_delivery,
)
from repro.verification.kernel import (
    Case,
    Check,
    FailureArtifact,
    OracleFailure,
    SessionReport,
    replay,
    replay_artifact,
    run_session,
    shrink,
)
from repro.verification.oracle import (
    DifferentialOracle,
    compare_controllers,
    forwarding_outcomes,
)
from repro.verification.reference import ReferenceInterpreter
from repro.verification.runtime import CanonicalState, canonical_state
from repro.verification.scenario import (
    Scenario,
    ScenarioAnnouncement,
    ScenarioParticipant,
    ScenarioPolicy,
    TraceStep,
    generate_scenario,
)

__all__ = [
    "CanonicalState",
    "Case",
    "Check",
    "DifferentialOracle",
    "FailureArtifact",
    "FuzzConfig",
    "OracleFailure",
    "ReferenceInterpreter",
    "Scenario",
    "ScenarioAnnouncement",
    "ScenarioParticipant",
    "ScenarioPolicy",
    "SessionReport",
    "SwapMonitor",
    "TraceStep",
    "Violation",
    "canonical_state",
    "check_all",
    "check_bgp_consistency",
    "check_default_conformance",
    "check_single_delivery",
    "compare_controllers",
    "forwarding_outcomes",
    "generate_corpus",
    "generate_scenario",
    "replay",
    "replay_artifact",
    "run_fuzz",
    "run_session",
    "shrink",
]
