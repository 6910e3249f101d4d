"""Runtime overload under withdrawal-only floods.

The churn suite's overload satellite: drive the runtime's pressure
handling with :func:`~repro.workloads.churn.generate_withdrawal_flood`
— pure withdrawals never net upward into announcements, so the queue
sees sustained one-directional pressure — and pin the loss accounting
*exactly*. The standing identity is::

    submitted_total == processed + coalesced + dropped

after every settle, and ``dropped`` must equal the
``sdx_runtime_events_dropped_total`` counter to the event, not merely
be positive.
"""

from repro.bgp.asn import AsPath
from repro.net.addresses import IPv4Prefix
from repro.runtime import ManualClock, OverloadPolicy, RuntimeConfig
from repro.verification.runtime import canonical_state
from repro.workloads.churn import generate_withdrawal_flood

from tests.core.scenarios import figure1_controller

#: Prefixes pre-announced by B and C so the flood withdraws real routes.
PREFIXES = [f"23.{index}.0.0/16" for index in range(16)]
SENDERS = ("B", "C")


def seeded_controller():
    """A started Figure-1 controller with the flood prefixes announced."""
    sdx, *_ = figure1_controller()
    announce_flood_prefixes(sdx)
    sdx.start()
    return sdx


def announce_flood_prefixes(sdx):
    """Announce every flood prefix, alternating between B and C."""
    for index, prefix in enumerate(PREFIXES):
        sender = SENDERS[index % len(SENDERS)]
        asn = 65002 if sender == "B" else 65003
        sdx.announce_route(sender, IPv4Prefix(prefix),
                           AsPath([asn, 900 + index]))


def assert_loss_identity(sdx, runtime):
    """The accounting identity, with the counter matched by full name."""
    stats = runtime.stats()
    assert stats["submitted_total"] == (
        stats["processed"] + stats["coalesced"] + stats["dropped"])
    losses = sdx.telemetry.registry.losses()
    dropped_counted = losses.get("sdx_runtime_events_dropped_total", 0)
    assert dropped_counted == stats["dropped"]
    return stats


class TestShedOldestFlood:
    def test_flood_loss_matches_dropped_counter_exactly(self):
        sdx = seeded_controller()
        runtime = sdx.build_runtime(RuntimeConfig(
            max_queue_depth=4, coalesce=False,
            overload_policy=OverloadPolicy.SHED_OLDEST), clock=ManualClock())
        flood = generate_withdrawal_flood(SENDERS, PREFIXES, count=24, seed=5)
        for update in flood:
            runtime.submit_update(update)
        # 24 unique events into a depth-4 queue with no draining: the
        # 20 oldest were shed, one per overflowing submission.
        assert runtime.stats()["dropped"] == 20
        runtime.settle()
        stats = assert_loss_identity(sdx, runtime)
        assert stats["submitted_total"] == 24
        assert stats["processed"] == 4
        assert stats["dropped"] == 20

    def test_identity_holds_under_interleaved_draining(self):
        sdx = seeded_controller()
        runtime = sdx.build_runtime(RuntimeConfig(
            max_queue_depth=8, batch_size=4, coalesce=False,
            overload_policy=OverloadPolicy.SHED_OLDEST), clock=ManualClock())
        flood = generate_withdrawal_flood(SENDERS, PREFIXES, count=60, seed=6)
        for index, update in enumerate(flood):
            runtime.submit_update(update)
            if index % 10 == 9:
                runtime.step()
        runtime.settle()
        stats = assert_loss_identity(sdx, runtime)
        assert stats["submitted_total"] == 60
        assert stats["dropped"] > 0  # the flood outran the drain cadence

    def test_identity_holds_when_shedding_meets_coalescing(self):
        # 8 (peer, prefix) keys into a depth-4 queue: events coalesce
        # while pending and coalesced heads get shed. A shed event counts
        # once — what it absorbed is already counted as coalesced.
        sdx = seeded_controller()
        runtime = sdx.build_runtime(RuntimeConfig(
            max_queue_depth=4,
            overload_policy=OverloadPolicy.SHED_OLDEST), clock=ManualClock())
        flood = generate_withdrawal_flood(
            SENDERS, PREFIXES[:4], count=40, seed=7)
        for update in flood:
            runtime.submit_update(update)
        runtime.settle()
        stats = assert_loss_identity(sdx, runtime)
        assert stats["submitted_total"] == 40
        assert stats["coalesced"] > 0 and stats["dropped"] > 0

    def test_coalescing_flood_drops_nothing(self):
        # Over a hot set of 4 prefixes the flood coalesces per
        # (peer, prefix) key: at most 8 distinct keys never overflow a
        # depth-16 queue, so the whole flood is absorbed loss-free.
        sdx = seeded_controller()
        runtime = sdx.build_runtime(RuntimeConfig(
            max_queue_depth=16,
            overload_policy=OverloadPolicy.SHED_OLDEST), clock=ManualClock())
        flood = generate_withdrawal_flood(
            SENDERS, PREFIXES[:4], count=40, seed=7)
        for update in flood:
            runtime.submit_update(update)
        runtime.settle()
        stats = assert_loss_identity(sdx, runtime)
        assert stats["dropped"] == 0
        assert stats["coalesced"] == 40 - stats["processed"]
        losses = sdx.telemetry.registry.losses()
        assert losses["sdx_runtime_events_dropped_total"] == 0


class TestDegradeFlood:
    def test_flood_degrades_without_loss_and_recovers(self):
        sdx = seeded_controller()
        runtime = sdx.build_runtime(RuntimeConfig(
            max_queue_depth=4, batch_size=4, coalesce=False,
            overload_policy=OverloadPolicy.DEGRADE, degrade_patience=1,
            degrade_high_fraction=0.5, degrade_low_fraction=0.25),
            clock=ManualClock())
        flood = generate_withdrawal_flood(SENDERS, PREFIXES, count=4, seed=8)
        for update in flood:
            runtime.submit_update(update)
        assert runtime.degraded
        assert sdx.policies_suspended
        runtime.settle()
        assert not runtime.degraded
        assert not sdx.policies_suspended
        stats = assert_loss_identity(sdx, runtime)
        # Degrade sheds *policies*, never events.
        assert stats["dropped"] == 0
        assert stats["processed"] == 4

    def test_flood_converges_to_inline_state(self):
        sdx = seeded_controller()
        runtime = sdx.build_runtime(RuntimeConfig(
            max_queue_depth=4, batch_size=4, coalesce=False,
            overload_policy=OverloadPolicy.DEGRADE, degrade_patience=1,
            degrade_high_fraction=0.5, degrade_low_fraction=0.25),
            clock=ManualClock())
        flood = generate_withdrawal_flood(SENDERS, PREFIXES, count=30, seed=9)
        for update in flood:
            runtime.submit_update(update)
        runtime.settle()
        assert_loss_identity(sdx, runtime)

        inline, *_ = figure1_controller()
        announce_flood_prefixes(inline)
        inline.start()
        for update in flood:
            inline.submit_update(update)
        inline.run_background_recompilation()
        assert not canonical_state(inline).diff(canonical_state(sdx))
