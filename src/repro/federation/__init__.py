"""Multi-SDX federation: several exchanges stitched by shared participants.

A federation models the deployment *Prelude* warns about: multiple SDX
instances, each with its own route server, fabric, and policy set, glued
together by ASes present at more than one exchange. A packet that
egresses exchange A through a shared participant can re-enter exchange B
as that participant's traffic and be classified again — so locally valid
outbound policies can compose into inter-exchange forwarding loops and
stitched-path blackholes that no single exchange can see.

The subsystem has four layers:

* :mod:`repro.federation.topology` — exchanges, per-exchange presence
  (shared ASes with per-exchange ports), derived inter-exchange transit
  links, and federation-wide prefix origins;
* :mod:`repro.federation.controller` — :class:`FederatedController`, one
  :class:`~repro.core.controller.SdxController` per exchange behind a
  single policy-change/settle surface with federation-aware
  ``statics_mode`` gating;
* :mod:`repro.federation.dataplane` — the cross-fabric driver walking a
  packet through real per-exchange fabrics with loop detection, plus the
  hop-state walk every execution arm shares;
* :mod:`repro.federation.checks` — the SDX008 (inter-exchange forwarding
  loop) and SDX009 (stitched-path blackhole) static checks over the
  cross-exchange reachability graph, and :func:`analyze_federation`;

with :mod:`repro.federation.config` (JSON federated configs for
``repro lint-policies``) riding on top. Seeded federated scenarios are
multi-exchange :class:`~repro.verification.scenario.Scenario` values;
the fuzzer cross-validates the walk in
:mod:`repro.verification.federation`.
"""

from repro.federation.checks import (
    DEFAULT_FEDERATION_CHECKS,
    FederationContext,
    InterExchangeLoopCheck,
    StitchedBlackholeCheck,
    analyze_federation,
)
from repro.federation.config import (
    export_federation_config,
    federation_from_config,
    is_federated_config,
    load_federation_config,
    save_federation_config,
)
from repro.federation.controller import FederatedController
from repro.federation.dataplane import (
    MAX_FEDERATED_HOPS,
    FederatedDataPlane,
    FederatedHop,
    FederatedOutcome,
    walk_federation,
)
from repro.federation.topology import (
    ExchangePresence,
    FederatedParticipantSpec,
    FederationTopology,
    TransitLink,
)

__all__ = [
    "DEFAULT_FEDERATION_CHECKS",
    "FederationContext",
    "InterExchangeLoopCheck",
    "StitchedBlackholeCheck",
    "analyze_federation",
    "export_federation_config",
    "federation_from_config",
    "is_federated_config",
    "load_federation_config",
    "save_federation_config",
    "FederatedController",
    "MAX_FEDERATED_HOPS",
    "FederatedDataPlane",
    "FederatedHop",
    "FederatedOutcome",
    "walk_federation",
    "ExchangePresence",
    "FederatedParticipantSpec",
    "FederationTopology",
    "TransitLink",
]
