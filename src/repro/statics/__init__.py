"""Static policy verification: pre-compilation lint for the SDX.

``repro.statics`` analyses (participant policies x route-server RIB
state x fabric topology) *before* compilation and reports
misconfigurations the composition pipeline would otherwise resolve
silently — dead clauses, forwards the BGP join erases, isolation
violations, inter-participant blackholes, unreachable defaults, and
malformed raw policy documents.

Entry points:

* :func:`analyze_controller` — lint everything installed in a live (or
  not-yet-started) :class:`~repro.core.controller.SdxController`;
* :func:`lint_config` — lint a JSON configuration document, including
  raw-document checks that run before any policy is installed;
* ``repro lint-policies`` — the CLI frontend (text + JSON output,
  non-zero exit on error-severity diagnostics).

The *dataplane* layer (:mod:`repro.statics.dataplane`, checks
``SDX010``..``SDX014``) verifies the other end of the pipeline — the
compiled flow rules actually installed in the table — incrementally on
every southbound FlowMod window, with :func:`analyze_flowtable` /
``repro lint-dataplane`` as the one-shot frontends.

Every diagnostic carries a stable check ID (``SDX001``..), a severity,
and a source clause location; the check catalogue lives in
``docs/ANALYSIS.md``. Dead-clause and route-less-forward verdicts are
cross-validated against the reference interpreter by the fuzz harness
(:mod:`repro.verification.statics`), so the analyzer itself is a
fuzz-tested artifact.
"""

from repro.statics.analyzer import (
    DEFAULT_CHECKS,
    StaticsContext,
    analyze_context,
    analyze_controller,
    lint_config,
)
from repro.statics.checks import (
    BlackholeCheck,
    DeadClauseCheck,
    FieldSanityCheck,
    IsolationCheck,
    RoutelessForwardCheck,
    ShadowOverlapCheck,
    UnreachableDefaultCheck,
)
from repro.statics.dataplane import (
    DATAPLANE_CHECK_IDS,
    CommittedSpace,
    DataplaneVerifier,
    analyze_controller_dataplane,
    analyze_flowtable,
    committed_spaces_from_controller,
    walk_classes,
)
from repro.statics.diagnostics import (
    Diagnostic,
    RawPolicyDocument,
    Severity,
    SourceLocation,
    StaticsReport,
)
from repro.statics.regions import ClauseRegions, clause_regions, effective_regions

__all__ = [
    "DATAPLANE_CHECK_IDS",
    "CommittedSpace",
    "DataplaneVerifier",
    "analyze_controller_dataplane",
    "analyze_flowtable",
    "committed_spaces_from_controller",
    "walk_classes",
    "DEFAULT_CHECKS",
    "StaticsContext",
    "analyze_context",
    "analyze_controller",
    "lint_config",
    "BlackholeCheck",
    "DeadClauseCheck",
    "FieldSanityCheck",
    "IsolationCheck",
    "RoutelessForwardCheck",
    "ShadowOverlapCheck",
    "UnreachableDefaultCheck",
    "Diagnostic",
    "RawPolicyDocument",
    "Severity",
    "SourceLocation",
    "StaticsReport",
    "ClauseRegions",
    "clause_regions",
    "effective_regions",
]
