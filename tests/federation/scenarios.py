"""Hand-built federated scenarios shared across the federation tests.

Three canonical shapes:

* :func:`loop_scenario` — the two-exchange, two-transit pair whose
  composed outbound policies forward port-80 traffic in a cycle
  (the SDX008 witness case);
* :func:`blackhole_scenario` — a sender steers traffic into a shared
  transit whose policy at the *next* exchange drops it (the SDX009
  witness case);
* :func:`clean_scenario` — a stitched path that terminates at the
  destination prefix's registered origin (no findings).
"""

from repro.verification.scenario import (
    Scenario,
    ScenarioAnnouncement,
    ScenarioParticipant,
    ScenarioPolicy,
)

PREFIX = "198.51.100.0/24"
PORT = 80


def loop_scenario() -> Scenario:
    """Two shared transits steering port-80 traffic at each other."""
    return Scenario(
        seed=1,
        exchanges=("IXP-A", "IXP-B"),
        participants=(
            ScenarioParticipant(name="West", asn=65001,
                                exchanges=("IXP-A", "IXP-B")),
            ScenarioParticipant(name="East", asn=65002,
                                exchanges=("IXP-B", "IXP-A")),
        ),
        prefixes=(PREFIX,),
        owners=(),
        announcements=(
            ScenarioAnnouncement(exchange="IXP-A", participant="West",
                                 prefix=PREFIX, as_path=(65001, 64700)),
            ScenarioAnnouncement(exchange="IXP-B", participant="East",
                                 prefix=PREFIX, as_path=(65002, 64700)),
        ),
        policies=(
            ScenarioPolicy(exchange="IXP-A", participant="East",
                           direction="out", field="dstport", value=PORT,
                           target="West"),
            ScenarioPolicy(exchange="IXP-B", participant="West",
                           direction="out", field="dstport", value=PORT,
                           target="East"),
        ),
        trace=(),
    )


def blackhole_scenario() -> Scenario:
    """A sender steers traffic into a transit that drops it one IXP later.

    ``Sender`` (IXP-A only) forwards port-80 traffic to the shared
    ``Transit``, which resells ``Relay``'s route from IXP-B at IXP-A.
    At IXP-B, ``Transit`` drops exactly that traffic — locally a
    legitimate scrubbing policy, but composed with IXP-A's steering it
    blackholes traffic IXP-A accepted.
    """
    return Scenario(
        seed=2,
        exchanges=("IXP-A", "IXP-B"),
        participants=(
            ScenarioParticipant(name="Sender", asn=65001,
                                exchanges=("IXP-A",)),
            ScenarioParticipant(name="Transit", asn=65002,
                                exchanges=("IXP-A", "IXP-B")),
            ScenarioParticipant(name="Relay", asn=65003,
                                exchanges=("IXP-B",)),
        ),
        prefixes=(PREFIX,),
        owners=(),
        announcements=(
            ScenarioAnnouncement(exchange="IXP-A", participant="Transit",
                                 prefix=PREFIX, as_path=(65002, 64700)),
            ScenarioAnnouncement(exchange="IXP-B", participant="Relay",
                                 prefix=PREFIX, as_path=(65003, 64700)),
        ),
        policies=(
            ScenarioPolicy(exchange="IXP-A", participant="Sender",
                           direction="out", field="dstport", value=PORT,
                           target="Transit"),
            ScenarioPolicy(exchange="IXP-B", participant="Transit",
                           direction="out", field="dstport", value=PORT,
                           target=None),
        ),
        trace=(),
    )


def clean_scenario() -> Scenario:
    """A stitched path that terminates: the destination has an origin.

    ``Eyeball`` (IXP-B) steers port-80 traffic into the shared
    ``Transit``, which carries it to IXP-A where ``Content`` — the
    registered origin of the prefix — announces it. Delivered via
    origin; nothing to report.
    """
    return Scenario(
        seed=3,
        exchanges=("IXP-A", "IXP-B"),
        participants=(
            ScenarioParticipant(name="Transit", asn=65010,
                                exchanges=("IXP-A", "IXP-B")),
            ScenarioParticipant(name="Content", asn=65020,
                                exchanges=("IXP-A",)),
            ScenarioParticipant(name="Eyeball", asn=65030,
                                exchanges=("IXP-B",)),
        ),
        prefixes=(PREFIX,),
        owners=((PREFIX, "Content"),),
        announcements=(
            ScenarioAnnouncement(exchange="IXP-A", participant="Content",
                                 prefix=PREFIX, as_path=(65020, 64900)),
            ScenarioAnnouncement(exchange="IXP-B", participant="Transit",
                                 prefix=PREFIX,
                                 as_path=(65010, 65020, 64900)),
        ),
        policies=(
            ScenarioPolicy(exchange="IXP-B", participant="Eyeball",
                           direction="out", field="dstport", value=PORT,
                           target="Transit"),
        ),
        trace=(),
    )
