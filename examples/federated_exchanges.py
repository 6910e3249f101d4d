#!/usr/bin/env python3
"""Two federated SDX instances and the loop no single exchange can see.

Section 7 of the paper ("a software defined *internet exchange*", not
"exchanges") leaves open what happens when several SDXes deploy
independently. This example builds that world: two exchanges joined by
two transit networks present at both, then shows the failure mode the
federation subsystem exists to catch — two outbound policies, each
locally valid at its own exchange, that compose into an inter-exchange
forwarding loop.

Three acts, one loop-prone pair:

1. the SDX008 static check flags the loop and names a concrete witness
   packet plus the exact cycle of ``(exchange, participant)`` states;
2. rebuilding the same federation with ``statics_mode="strict"`` rejects
   the second policy at install time, before any fabric compiles it;
3. with statics off, the naive per-exchange reference interpreters
   actually forward the witness packet in the diagnosed cycle — the
   diagnostic is a real packet-level fact, not a modelling artifact.

Run with::

    python examples/federated_exchanges.py
"""


def build():
    """A clean two-exchange federation for the policy linter.

    One transit AS attends both exchanges and re-announces a content
    prefix at the second, stitching a cross-exchange path: traffic an
    eyeball network steers into the transit at IXP-B re-enters IXP-A
    and is delivered to the content network that originates the prefix.
    This steady state lints clean — the stitched path terminates.
    """
    from repro import fwd, match
    from repro.bgp.asn import AsPath
    from repro.federation import FederatedController
    from repro.net.addresses import IPv4Prefix

    federation = FederatedController(statics_mode="off", with_dataplane=False)
    federation.add_exchange("IXP-A")
    federation.add_exchange("IXP-B")
    federation.add_participant("Transit", 65010, exchanges=("IXP-A", "IXP-B"))
    federation.add_participant("Content", 65020, exchanges=("IXP-A",))
    federation.add_participant("Eyeball", 65030, exchanges=("IXP-B",))

    content_prefix = IPv4Prefix("203.0.113.0/24")
    federation.register_origin(content_prefix, "Content")
    federation.announce_route(
        "IXP-A", "Content", content_prefix, AsPath([65020, 64900]))
    # The transit met the origin at IXP-A and resells the route at IXP-B.
    federation.announce_route(
        "IXP-B", "Transit", content_prefix, AsPath([65010, 65020, 64900]))

    federation.add_outbound(
        "IXP-B", "Eyeball", match(dstport=80) >> fwd("Transit"))
    return federation


def loop_scenario():
    """The canonical loop-prone pair as a replayable federated scenario.

    Two transit networks attend both exchanges, each announcing the same
    external prefix at a *different* exchange (neither originates it).
    Each installs one outbound policy steering port-80 traffic to the
    other — at the exchange where the other is the one with the route.
    Locally both clauses are reasonable; composed, port-80 traffic for
    the prefix orbits ``(IXP-B, WestTransit) -> (IXP-A, EastTransit)``
    forever.
    """
    from repro.verification.scenario import (
        Scenario,
        ScenarioAnnouncement,
        ScenarioParticipant,
        ScenarioPolicy,
    )

    return Scenario(
        seed=8,
        exchanges=("IXP-A", "IXP-B"),
        participants=(
            ScenarioParticipant(
                name="WestTransit", asn=65001, exchanges=("IXP-A", "IXP-B")),
            ScenarioParticipant(
                name="EastTransit", asn=65002, exchanges=("IXP-B", "IXP-A")),
        ),
        prefixes=("198.51.100.0/24",),
        announcements=(
            ScenarioAnnouncement(
                exchange="IXP-A", participant="WestTransit",
                prefix="198.51.100.0/24", as_path=(65001, 64700)),
            ScenarioAnnouncement(
                exchange="IXP-B", participant="EastTransit",
                prefix="198.51.100.0/24", as_path=(65002, 64700)),
        ),
        policies=(
            ScenarioPolicy(
                exchange="IXP-A", participant="EastTransit", direction="out",
                field="dstport", value=80, target="WestTransit"),
            ScenarioPolicy(
                exchange="IXP-B", participant="WestTransit", direction="out",
                field="dstport", value=80, target="EastTransit"),
        ),
        trace=(),
    )


def main() -> None:
    """Run the three-act demonstration and print each verdict."""
    from repro.exceptions import StaticPolicyError
    from repro.federation import analyze_federation
    from repro.verification.federation import reference_walk

    scenario = loop_scenario()

    print("act 1: the SDX008 static check sees across both exchanges")
    federation = scenario.build_federation(
        statics_mode="off", with_dataplane=False)
    report = analyze_federation(federation)
    loops = report.by_check("SDX008")
    assert loops, "SDX008 must flag the loop-prone pair"
    for diagnostic in loops:
        print(f"  {diagnostic.describe()}")
    print()

    print("act 2: statics_mode='strict' rejects the pair at install time")
    try:
        scenario.build_federation(statics_mode="strict", with_dataplane=False)
    except StaticPolicyError as error:
        print(f"  rejected: {error}")
    else:
        raise AssertionError("strict mode must reject the loop-prone pair")
    print()

    print("act 3: with statics off, the witness packet really does orbit")
    diagnostic = loops[0]
    payload = dict(diagnostic.data)
    outcome = reference_walk(
        scenario, payload["origin_exchange"], payload["origin_participant"],
        diagnostic.witness)
    print(f"  witness {diagnostic.witness!r}")
    print(f"  federated reference: {outcome.describe()}")
    assert outcome.is_loop, "the reference must forward the witness in a cycle"


if __name__ == "__main__":
    main()
