"""End-to-end ControlPlaneRuntime behaviour against a real controller.

Covers the step-driven loop, every overload policy, and the scheduler
integration — including the satellite acceptance cases: shedding shows
up in loss accounting, degrade mode converges back to the fully
composed table, and announce/withdraw/announce coalescing yields the
latest route.
"""

from repro.bgp.asn import AsPath
from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Update
from repro.net.addresses import IPv4Prefix
from repro.runtime import (
    ManualClock,
    OverloadPolicy,
    RuntimeConfig,
    SchedulerConfig,
)
from repro.verification.runtime import canonical_state

from tests.core.scenarios import figure1_controller, packet

FRESH = [IPv4Prefix(f"19.{index}.0.0/16") for index in range(64)]


def announce(sdx, name, prefix, path, med=0):
    """An Update as participant ``name`` would send it (real port IP)."""
    participant = sdx.topology.participant(name)
    return Update.announce(name, prefix, RouteAttributes(
        next_hop=participant.ports[0].ip, as_path=AsPath(path), med=med))


def started_runtime(**overrides):
    """A started Figure-1 controller plus a ManualClock runtime."""
    sdx, *_ = figure1_controller()
    sdx.start()
    config = RuntimeConfig(**overrides)
    runtime = sdx.build_runtime(config, clock=ManualClock())
    return sdx, runtime


class TestDeterministicMode:
    def test_coalescing_yields_latest_route(self):
        sdx, runtime = started_runtime()
        before = sdx.route_server.updates_processed
        prefix = FRESH[0]
        runtime.submit_update(announce(sdx, "C", prefix, [65003, 111]))
        runtime.submit_update(Update.withdraw("C", prefix))
        runtime.submit_update(announce(sdx, "C", prefix, [65003, 222]))
        runtime.settle()
        # Three submissions collapse to one route-server submission...
        assert sdx.route_server.updates_processed == before + 1
        assert runtime.stats()["coalesced"] == 2
        # ...carrying the *latest* state.
        route = sdx.route_server.best_route_for("A", prefix)
        assert route.attributes.as_path.asns[-1] == 222

    def test_announce_then_withdraw_nets_to_nothing(self):
        sdx, runtime = started_runtime()
        prefix = FRESH[1]
        runtime.submit_update(announce(sdx, "C", prefix, [65003, 111]))
        runtime.submit_update(Update.withdraw("C", prefix))
        runtime.settle()
        assert sdx.route_server.best_route_for("A", prefix) is None

    def test_policy_events_drain_first(self):
        sdx, runtime = started_runtime()
        seen = []
        runtime.submit_update(announce(sdx, "C", FRESH[2], [65003, 111]))
        runtime.submit_update(announce(sdx, "C", FRESH[3], [65003, 111]))
        runtime.submit_policy("marker", lambda controller: seen.append(
            controller.route_server.updates_processed))
        assert runtime.step(limit=1) == 1
        assert seen  # the policy ran even though it was submitted last
        assert runtime.queue.depth == 2

    def test_settle_clears_fast_path_debt(self):
        sdx, runtime = started_runtime()
        runtime.submit_update(announce(sdx, "C", FRESH[4], [65003, 111]))
        runtime.drain()
        assert sdx.engine.dirty
        runtime.settle()
        assert not sdx.engine.dirty
        assert sdx.engine.pressure().fast_path_rules == 0

    def test_matches_inline_execution(self):
        updates = []
        sdx, runtime = started_runtime()
        for index, prefix in enumerate(FRESH[:12]):
            updates.append(announce(sdx, "C", prefix, [65003, 700 + index]))
            if index % 3 == 0:
                updates.append(Update.withdraw("C", prefix))
        for update in updates:
            runtime.submit_update(update)
        runtime.settle()

        inline, *_ = figure1_controller()
        inline.start()
        for update in updates:
            inline.submit_update(update)
        inline.run_background_recompilation()
        assert not canonical_state(inline).diff(canonical_state(sdx))


class TestBurstCounts:
    def test_coalescing_of_a_seeded_burst_trace_is_pinned(self):
        """How many events coalesce, and so how many reach the route
        server, is a work count fixed for the seed: pinned exactly."""
        from repro.workloads.policies import (
            generate_policies,
            install_assignments,
        )
        from repro.workloads.topology import generate_ixp
        from repro.workloads.updates import generate_burst_trace

        ixp = generate_ixp(12, 100, seed=7)
        sdx = ixp.build_controller()
        install_assignments(sdx, generate_policies(ixp, seed=8))
        sdx.start()
        events = generate_burst_trace(ixp, bursts=6, burst_size=100,
                                      hot_prefixes=12, seed=9)
        runtime = sdx.build_runtime(RuntimeConfig(batch_size=64))
        for index, event in enumerate(events):
            runtime.submit_update(event.update)
            if (index + 1) % 64 == 0:
                runtime.step()
        runtime.settle()
        stats = runtime.stats()
        assert (stats["coalesced"], stats["submitted_total"]) == (448, 600)
        assert sdx.route_server.updates_processed == 164


class TestRejectedPolicyEvent:
    """A strict gate refusing one event's change undoes that change only:
    the batch it was popped with goes on, and the accounting holds."""

    def test_the_rest_of_the_batch_is_processed_and_counted(self):
        from repro.policy.policies import fwd, match

        sdx, a, *_ = figure1_controller(statics_mode="strict")
        sdx.start()
        runtime = sdx.build_runtime(RuntimeConfig(), clock=ManualClock())
        rules, policies = sdx.table.rules, a.participant.outbound_policies
        runtime.submit_policy("dead", lambda controller: a.add_outbound(
            (match(dstport=80) & match(protocol=6)) >> fwd("B")))  # SDX001
        sound = match(dstport=8080) >> fwd("B")
        runtime.submit_policy("sound", lambda controller: a.add_outbound(sound))
        runtime.submit_update(announce(sdx, "C", FRESH[5], [65003, 111]))
        assert runtime.step() == 3
        stats = runtime.stats()
        assert stats["submitted_total"] == (
            stats["processed"] + stats["coalesced"] + stats["dropped"]) == 3
        assert stats["batches"] == 1
        assert sdx.telemetry.registry.get(
            "sdx_runtime_policy_rejected_total").value == 1
        # The refused edit is gone, the two events after it happened.
        assert a.participant.outbound_policies == policies + (sound,)
        assert sdx.route_server.best_route_for("A", FRESH[5]) is not None
        runtime.settle()
        assert sdx.table.rules != rules and sdx.southbound.pending == 0


class TestBlockPolicy:
    def test_blocks_by_draining_synchronously(self):
        sdx, runtime = started_runtime(
            max_queue_depth=2, batch_size=2,
            overload_policy=OverloadPolicy.BLOCK)
        before = sdx.route_server.updates_processed
        for index in range(6):
            runtime.submit_update(
                announce(sdx, "C", FRESH[10 + index], [65003, 111]))
        runtime.settle()
        stats = runtime.stats()
        assert stats["blocked"] > 0
        assert stats["dropped"] == 0
        assert sdx.route_server.updates_processed == before + 6


class TestShedOldest:
    def test_shedding_is_loss_accounted(self):
        sdx, runtime = started_runtime(
            max_queue_depth=2, overload_policy=OverloadPolicy.SHED_OLDEST)
        for index in range(6):
            runtime.submit_update(
                announce(sdx, "C", FRESH[20 + index], [65003, 111]))
        stats = runtime.stats()
        assert stats["dropped"] == 4
        assert runtime.queue.depth == 2
        # Loss accounting surfaces the drop centrally, by full name.
        losses = sdx.telemetry.registry.losses()
        assert losses["sdx_runtime_events_dropped_total"] == 4
        runtime.settle()

    def test_shed_counts_absorbed_events(self):
        sdx, runtime = started_runtime(
            max_queue_depth=2, overload_policy=OverloadPolicy.SHED_OLDEST)
        prefix = FRESH[27]
        runtime.submit_update(announce(sdx, "C", prefix, [65003, 1]))
        runtime.submit_update(announce(sdx, "C", prefix, [65003, 2]))
        runtime.submit_update(
            announce(sdx, "C", FRESH[28], [65003, 111]))
        # Shedding the coalesced head drops one event: the submission it
        # absorbed is already counted as coalesced, and counts once.
        runtime.submit_update(
            announce(sdx, "C", FRESH[29], [65003, 111]))
        stats = runtime.stats()
        assert (stats["dropped"], stats["coalesced"]) == (1, 1)
        runtime.settle()
        stats = runtime.stats()
        assert stats["submitted_total"] == 4 == (
            stats["processed"] + stats["coalesced"] + stats["dropped"])


class TestDegradeMode:
    def degraded_runtime(self):
        return started_runtime(
            max_queue_depth=4, batch_size=4, coalesce=False,
            overload_policy=OverloadPolicy.DEGRADE, degrade_patience=1,
            degrade_high_fraction=0.5, degrade_low_fraction=0.25)

    def test_enters_under_sustained_saturation(self):
        sdx, runtime = self.degraded_runtime()
        assert not runtime.degraded
        for index in range(4):
            runtime.submit_update(
                announce(sdx, "C", FRESH[30 + index], [65003, 111]))
        assert runtime.degraded
        assert sdx.policies_suspended
        assert runtime.stats()["degrade_entries"] == 1
        # Degraded forwarding is default-BGP-only: A's port-80 policy
        # (fwd B) is suspended, so traffic follows the best route (C).
        assert sdx.egress_of("A", packet("11.0.0.1")) == "C"

    def test_no_thrash_during_sustained_burst(self):
        """One hot burst must produce ONE degrade entry, not an
        enter/exit cycle per drained batch (each exit is a recompile)."""
        sdx, runtime = started_runtime(
            max_queue_depth=4, batch_size=4, coalesce=False,
            overload_policy=OverloadPolicy.DEGRADE, degrade_patience=2,
            degrade_high_fraction=0.5, degrade_low_fraction=0.25)
        for index in range(30):
            runtime.submit_update(
                announce(sdx, "C", FRESH[index % 8], [65003, 111]))
        assert runtime.degraded
        assert runtime.stats()["degrade_entries"] == 1
        # Recovery needs `degrade_patience` calm steps, then happens on
        # its own — no settle() force required.
        runtime.drain()
        assert runtime.degraded
        runtime.step()
        assert not runtime.degraded

    def test_converges_back_to_composed_table(self):
        sdx, runtime = self.degraded_runtime()
        updates = [announce(sdx, "C", FRESH[40 + index], [65003, 111])
                   for index in range(4)]
        for update in updates:
            runtime.submit_update(update)
        assert runtime.degraded
        runtime.settle()
        assert not runtime.degraded
        assert not sdx.policies_suspended
        # Policies are live again: the composed table matches a
        # controller that saw the same updates and never degraded.
        assert sdx.egress_of("A", packet("11.0.0.1")) == "B"
        inline, *_ = figure1_controller()
        inline.start()
        for update in updates:
            inline.submit_update(update)
        inline.run_background_recompilation()
        assert not canonical_state(inline).diff(canonical_state(sdx))


class TestSchedulerIntegration:
    def test_rules_watermark_recompiles_mid_burst(self):
        sdx, runtime = started_runtime(
            scheduler=SchedulerConfig(max_fast_path_rules=1))
        runtime.submit_update(announce(sdx, "C", FRESH[50], [65003, 111]))
        runtime.step()
        assert not sdx.engine.dirty
        counter = sdx.telemetry.registry.get(
            "sdx_runtime_recompiles_total", trigger="rules")
        assert counter is not None and counter.value == 1

    def test_idle_gap_recompiles(self):
        sdx, runtime = started_runtime(
            scheduler=SchedulerConfig(idle_seconds=10.0))
        runtime.submit_update(announce(sdx, "C", FRESH[51], [65003, 111]))
        runtime.drain()
        assert sdx.engine.dirty
        runtime.clock.advance(9.0)
        runtime.step()
        assert sdx.engine.dirty  # gap not yet long enough
        runtime.clock.advance(1.0)
        runtime.step()
        assert not sdx.engine.dirty
        counter = sdx.telemetry.registry.get(
            "sdx_runtime_recompiles_total", trigger="idle")
        assert counter is not None and counter.value == 1
