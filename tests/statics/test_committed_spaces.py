"""The committed-space provider: kept per prefix, refreshed for what changed.

``SdxController._committed_spaces`` keeps the dataplane verifier's
committed-traffic population keyed by prefix and derives again only the
prefixes the route server's or the allocator's change log names. Two
properties hold it to what it replaced: after every step of a random
update / export / policy / session sequence it equals the from-scratch
``committed_spaces_from_controller``, and that function's reading of a
``Decision``'s shape equals the per-(participant, prefix) double loop it
used to be — kept here as the oracle — on exchanges with deny lists,
allow lists, blocking and allow-list communities, member ASNs on paths, a
multi-port member, a remote member and a member that left the route server.
"""

import pytest
from hypothesis import given, settings

from repro.policy.headerspace import HeaderSpace
from repro.statics.dataplane import (
    CommittedSpace,
    committed_spaces_from_controller,
)
from repro.workloads.policies import generate_policies, install_assignments
from repro.workloads.topology import generate_ixp
from repro.workloads.updates import generate_trace

from tests.restricted_exports import apply_operation, build, operations


def double_loop(controller):
    """The parent commit's ``committed_spaces_from_controller``, verbatim."""
    allocator = controller.allocator
    prefixes = set()
    for group in allocator.groups():
        prefixes.update(group.prefixes)
    prefixes.update(allocator.ephemeral_prefixes())
    spaces = []
    for prefix in sorted(prefixes):
        vmac = allocator.vmac_for_prefix(prefix)
        if vmac is None:
            continue
        ports = []
        decision = controller.route_server.decide(prefix)
        for participant in controller.topology.participants():
            if participant.is_remote:
                continue
            if decision.route_for(participant.name) is None:
                continue
            ports.extend(participant.switch_ports)
        if not ports:
            continue
        spaces.append(CommittedSpace(
            label=f"{vmac}->{prefix}",
            space=HeaderSpace(dstmac=vmac, dstip=prefix),
            ports=tuple(sorted(set(ports)))))
    return spaces


@settings(max_examples=150, deadline=None)
@given(operations)
def test_kept_spaces_equal_the_from_scratch_walk_and_the_double_loop(ops):
    """And the provider's change log names, since the last call, every
    label whose space came, went or changed — all the verifier reads."""
    controller = build()
    installed = {0, 1, 2}
    kept = controller._committed_spaces()
    assert list(kept) == double_loop(controller)
    before, version = dict(kept.by_label), kept.changes.version
    for operation in ops:
        apply_operation(controller, installed, operation)
        fresh = committed_spaces_from_controller(controller)
        assert fresh == double_loop(controller), operation
        assert list(controller._committed_spaces()) == fresh, operation
        after = {space.label: space for space in fresh}
        named = kept.changes.since(version)
        if named is not None:
            assert {label for label in before.keys() | after.keys()
                    if before.get(label) != after.get(label)} <= set(named)
        before, version = after, kept.changes.version


def gated_exchange(prefixes):
    ixp = generate_ixp(16, prefixes, seed=3)
    controller = ixp.build_controller(with_dataplane=True,
                                      dataplane_statics_mode="warn")
    install_assignments(controller, generate_policies(ixp, seed=4))
    controller.start()
    return ixp, controller


@pytest.mark.parametrize("prefixes", [32, 128])
def test_a_gated_update_derives_the_spaces_it_moved_not_all_of_them(prefixes):
    """Fails at the parent, whose provider walked every tagged prefix on
    every update: there the runs grow with the table."""
    ixp, controller = gated_exchange(prefixes)
    runs = controller.telemetry.registry.get("sdx_bgp_decision_runs_total")
    tagged = len(controller._committed_spaces())
    costs = []
    for event in generate_trace(ixp, seed=5, max_updates=12):
        before = runs.value
        controller.submit_update(event.update)
        costs.append(runs.value - before)
        assert (list(controller._committed_spaces())
                == committed_spaces_from_controller(controller))
    # Ingest decides a touched prefix twice, the fast path, the router push
    # and the provider once each — whatever the table holds.
    assert max(costs) <= 8 * max(
        len(event.update.prefixes)
        for event in generate_trace(ixp, seed=5, max_updates=12))
    assert tagged >= prefixes // 2  # the walk the parent made per update


class TestTableSwapAdvertisesWhatChanged:
    """``_advertise_moved`` between the two phases of a table swap pushes the
    prefixes a change log names since the last push, not every table."""

    @staticmethod
    def pushes(controller, action):
        pushed = []
        advertise = controller._advertise_routers
        controller._advertise_routers = lambda prefixes, *decided: (
            pushed.append(set(prefixes)), advertise(prefixes, *decided))
        try:
            action()
        finally:
            del controller._advertise_routers
        return pushed

    def test_start_and_unknown_changes_push_everything(self):
        ixp = generate_ixp(16, 32, seed=3)
        controller = ixp.build_controller(with_dataplane=True)
        install_assignments(controller, generate_policies(ixp, seed=4))
        everything = set(controller.route_server.all_prefixes())
        assert self.pushes(controller, controller.start) == [everything]
        # Nothing moved: the next swap pushes nothing.
        assert self.pushes(controller, controller.recompile) == [set()]
        name = controller.route_server.peers()[0]

        def restrict():
            controller.route_server.set_export_policy(name, deny=[])
            controller.recompile()
        assert self.pushes(controller, restrict) == [everything]

    @staticmethod
    def assert_routers_current(controller):
        """Every border router holds exactly what a full push would give."""
        server = controller.route_server
        for participant in controller.topology.participants():
            expected = {}
            for prefix in server.all_prefixes():
                best = server.best_route_for(participant.name, prefix)
                if best is not None:
                    expected[prefix] = (
                        controller.allocator.next_hop_for_prefix(prefix)
                        or best.attributes.next_hop)
            assert participant.router.routes() == expected

    def test_a_swap_pushes_what_either_log_names(self):
        ixp, controller = gated_exchange(32)
        everything = set(controller.route_server.all_prefixes())
        for event in generate_trace(ixp, seed=5, max_updates=6):
            named = set(event.update.prefixes)
            pushed = self.pushes(controller, lambda: (
                controller.submit_update(event.update),
                controller.run_background_recompilation()))
            # The update's own push, then the swap's: the prefix again (its
            # ephemeral tag is reclaimed) and whatever else changed tag.
            assert pushed[0] == named and named <= pushed[1] < everything
            self.assert_routers_current(controller)

    def test_a_stuck_route_is_resynchronised_by_the_next_swap(self):
        from repro.bgp.messages import Update
        _ixp, controller = gated_exchange(32)
        prefix = controller.last_compilation.groups[0].representative
        route = controller.route_server.ranked_routes(prefix)[0]
        controller.route_server.inject_unnotified(
            Update.withdraw(route.learned_from, prefix))
        pushed = self.pushes(controller, controller.recompile)
        assert prefix in pushed[0]
        self.assert_routers_current(controller)
