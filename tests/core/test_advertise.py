"""Re-advertisement toward the border routers: one shared table, written
once per prefix, and an overlay only where a router is given something
else (Section 4.2: with VNHs every router holding a route for a prefix is
given the same next hop)."""

from repro.bgp import routeserver
from repro.bgp.routeserver import Decision
from repro.dataplane.router import BorderRouter, SharedTable
from repro.net.packet import Packet
from repro.statics.dataplane import committed_spaces_from_controller
from repro.verification.invariants import check_default_conformance
from repro.workloads import loaded_exchange
from repro.workloads.updates import generate_trace

from tests.statics import test_committed_spaces

#: Every border router holds exactly what a full per-router push would give.
assert_routers_current = (
    test_committed_spaces.TestTableSwapAdvertisesWhatChanged
    .assert_routers_current)


def advertisements(controller):
    registry = controller.telemetry.registry
    return {op: registry.get("sdx_router_advertisements_total", op=op).value
            for op in ("install", "withdraw")}


def calls(monkeypatch, cls, *names):
    """Count calls of ``cls``'s methods ``names``."""
    counted = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cls, name)

        def counting(self, *args, _name=name, _original=original, **kwargs):
            counted[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    return counted


class TestOneSharedTable:
    def test_start_writes_each_prefix_once(self, monkeypatch):
        shared = calls(monkeypatch, SharedTable, "install", "withdraw")
        own = calls(monkeypatch, BorderRouter, "install_route",
                    "withdraw_route")
        controller, _ixp = loaded_exchange(8, 40, seed=0,
                                           with_dataplane=True)
        prefixes = controller.route_server.all_prefixes()
        assert shared["install"] + shared["withdraw"] == len(prefixes) == 40
        # One announcer each: the router a route is withheld from is its
        # own announcer's, and no untagged route differs from the best's.
        assert own == {"install_route": 2, "withdraw_route": 40}
        assert_routers_current(controller)

    def test_advertisements_are_counted_not_sent(self):
        """(prefix, router) pairs, as a route server would send them: eight
        routers, forty prefixes, each withheld from its one announcer."""
        controller, _ixp = loaded_exchange(8, 40, seed=0,
                                           with_dataplane=True)
        assert advertisements(controller) == {"install": 280, "withdraw": 40}
        prefix = controller.route_server.all_prefixes()[0]
        route = controller.route_server.decide(prefix).best
        controller.withdraw_route(route.learned_from, prefix)
        assert advertisements(controller) == {"install": 286, "withdraw": 42}
        controller.run_background_recompilation()
        assert advertisements(controller) == {"install": 292, "withdraw": 44}
        assert_routers_current(controller)


class TestAMemberJoiningAStartedExchange:
    def test_its_router_holds_the_routes_at_once(self):
        controller, _ixp = loaded_exchange(8, 40, seed=0,
                                           with_dataplane=True)
        controller.add_participant("Znew", 65123, ports=1)
        router = controller.topology.participant("Znew").router
        assert router.fib_size == 40
        assert check_default_conformance(controller) == []
        assert_routers_current(controller)
        server = controller.route_server
        for prefix in server.all_prefixes():
            probe = Packet(dstip=prefix.first_address + 1, dstport=80)
            egress = controller.egress_of("Znew", probe)
            assert egress is not None
            assert prefix in server.announced_by(egress)


class TestAMemberLeavingAStartedExchange:
    def test_its_router_holds_nothing_before_any_recompile(self):
        """A peer the route server drops takes every route it held with it
        in the same step — those of prefixes it never announced too, each
        counted as a withdrawal — and the push stays per prefix, not per
        router."""
        from repro.workloads import generate_trace
        controller, ixp = loaded_exchange(20, 200, seed=0,
                                          with_dataplane=True)
        for event in generate_trace(ixp, max_updates=150, seed=0):
            controller.submit_update(event.update)
        router = controller.topology.participant("AS12").router
        assert router.fib_size > 0
        held = len(router.routes())
        before = advertisements(controller)
        announced = len(controller.route_server.announced_by("AS12"))
        controller.route_server.remove_peer("AS12")
        assert router.fib_size == 0
        assert check_default_conformance(controller) == []
        after = advertisements(controller)
        assert after["withdraw"] - before["withdraw"] >= held
        pushed = sum(after.values()) - sum(before.values())
        assert pushed <= (announced * len(controller.topology.participants())
                          + held)
        # Later pushes no longer reach the detached router.
        assert all(router not in routers
                   for routers in controller._overlaid.values())
        controller.run_background_recompilation()
        assert router.fib_size == 0
        assert check_default_conformance(controller) == []


class TestOneDecisionPerRibChange:
    """The route server keeps each prefix's decision until a write re-ranks
    the prefix: the update's own diff, its fast path and router push, the
    re-optimisation that follows and a from-scratch committed-space build
    all read the one decision the write took. Each reader deciding for
    itself is what the kept table replaced."""

    @staticmethod
    def built(monkeypatch):
        """Every :class:`Decision` the route server builds from here on."""
        made = []

        def counting(*args):
            made.append(Decision(*args))
            return made[-1]

        monkeypatch.setattr(routeserver, "Decision", counting)
        return made

    def test_an_update_and_what_follows_it_decide_each_prefix_once(
            self, monkeypatch):
        controller, ixp = loaded_exchange(
            20, 200, seed=0, with_dataplane=True, statics_mode="strict",
            dataplane_statics_mode="strict")
        server = controller.route_server
        built = self.built(monkeypatch)
        for prefix in server.all_prefixes():
            server.decide(prefix)
        assert built == []  # the router push at start decided every prefix
        runs = controller.telemetry.registry.get("sdx_bgp_decision_runs_total")
        before = runs.value
        event = generate_trace(ixp, seed=1, max_updates=1)[0]
        controller.submit_update(event.update)
        assert controller.fast_path_log[-1].prefixes == event.update.prefixes
        controller.run_background_recompilation()
        committed_spaces_from_controller(controller)
        assert runs.value - before >= 1
        assert len(built) == runs.value - before
