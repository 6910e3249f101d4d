"""SDX007 on exchanges that withhold routes from some receivers.

SDX007 reads which prefixes each member goes without off the route
server's ``Decision`` of every prefix — the receivers it maps to ``None``
— instead of asking ``route_for`` per member and prefix. A hypothesis
property holds it to that naive reading, kept here as the oracle, after
every step of the restricted-export operation sequence: deny and allow
lists, blocking and allow-list communities, member ASNs on paths, session
resets and failures, and a member leaving the route server.
"""

import pytest
from hypothesis import given, settings

from repro.bgp.routeserver import Decision
from repro.exceptions import ParticipantError
from repro.policy.policies import fwd, match
from repro.statics.analyzer import analyze_controller
from repro.statics.checks import UnreachableDefaultCheck

from tests.restricted_exports import apply_operation, build, operations


def findings(controller):
    """SDX007's unrouted prefixes per member."""
    report = analyze_controller(controller, checks=(UnreachableDefaultCheck(),))
    return {diag.location.participant: dict(diag.data)["prefixes"]
            for diag in report.diagnostics}


def naive(controller):
    """Per member, each prefix it does not announce whose ``Decision``
    gives it no route, in prefix order."""
    server = controller.route_server
    peers = set(server.peers())
    expected = {}
    for participant in controller.topology.participants():
        if participant.is_remote:
            continue
        own = set(participant.local_prefixes)
        if participant.name in peers:
            own.update(server.announced_by(participant.name))
        unrouted = [str(prefix) for prefix in server.all_prefixes()
                    if prefix not in own and server.decide(prefix).route_for(
                        participant.name) is None]
        if unrouted:
            expected[participant.name] = unrouted
    return expected


@settings(max_examples=150, deadline=None)
@given(operations)
def test_findings_equal_the_per_member_route_for_reading(ops):
    controller = build()
    installed = {0, 1, 2}
    assert findings(controller) == naive(controller)
    for operation in ops:
        apply_operation(controller, installed, operation)
        assert findings(controller) == naive(controller), operation


def test_sdx007_asks_no_route_for(monkeypatch):
    controller = build()
    for announcer in ("A", "B", "C"):
        controller.route_server.set_export_policy(announcer, deny=["D"])
    expected = naive(controller)
    assert expected["D"] == ["20.0.0.0/8", "22.0.0.0/8"]

    def refuse(self, receiver):
        raise AssertionError("SDX007 asked route_for")
    monkeypatch.setattr(Decision, "route_for", refuse)
    assert findings(controller) == expected


class TestAMemberThatLeftTheRouteServer:
    """A member removed from the route server but still in the topology
    announces nothing and is given nothing: an INFO finding, not a crash
    that wedges every later gated edit."""

    def test_announced_by_names_the_unknown_peer(self):
        controller = build()
        controller.route_server.remove_peer("D")
        with pytest.raises(ParticipantError):
            controller.route_server.announced_by("D")

    def test_lint_reports_it_as_routeless(self):
        controller = build()
        controller.route_server.remove_peer("D")
        report = controller.lint_policies()
        diag, = [d for d in report.diagnostics
                 if d.check_id == "SDX007" and d.location.participant == "D"]
        assert diag.severity.value == "info"
        assert dict(diag.data)["prefixes"] == [
            str(prefix) for prefix in controller.route_server.all_prefixes()]

    def test_a_strict_edit_by_another_member_is_admitted(self):
        controller = build(statics_mode="strict")
        controller.route_server.remove_peer("D")
        handle = controller.participant("A")
        handle.add_outbound(match(dstport=99) >> fwd("B"))
        assert len(controller.topology.participant("A").outbound_policies) == 3
