"""Tests for the policy generator and the update-trace generator."""

import pytest

from repro.workloads.datasets import ALL_PROFILES, AMS_IX
from repro.workloads.policies import generate_policies, install_assignments
from repro.workloads.topology import generate_ixp
from repro.workloads.updates import (
    generate_burst_trace,
    generate_trace,
    trace_stats,
)


class TestDatasets:
    def test_table1_values(self):
        assert AMS_IX.collector_peers == 116
        assert AMS_IX.total_peers == 639
        assert AMS_IX.prefixes == 518_082
        assert AMS_IX.bgp_updates == 11_161_624
        assert len(ALL_PROFILES) == 3

    def test_scaling(self):
        scaled = AMS_IX.scaled(0.01)
        assert scaled.prefixes == round(518_082 * 0.01)
        assert scaled.fraction_prefixes_updated == AMS_IX.fraction_prefixes_updated

    def test_scaling_bounds(self):
        with pytest.raises(ValueError):
            AMS_IX.scaled(0)
        with pytest.raises(ValueError):
            AMS_IX.scaled(1.5)

    def test_updates_per_second(self):
        assert AMS_IX.updates_per_second == pytest.approx(
            11_161_624 / (6 * 86_400))


class TestGeneratePolicies:
    def make(self):
        ixp = generate_ixp(100, 2_000, seed=0)
        return ixp, generate_policies(ixp, seed=1)

    def test_deterministic(self):
        ixp = generate_ixp(100, 2_000, seed=0)
        first = generate_policies(ixp, seed=1)
        second = generate_policies(ixp, seed=1)
        assert [a.description for a in first] == [a.description for a in second]

    def test_roles_present(self):
        ixp, assignments = self.make()
        kinds = {a.description.split()[0] for a in assignments}
        assert {"content", "eyeball", "transit"} <= kinds

    def test_eyeballs_have_no_outbound(self):
        ixp, assignments = self.make()
        eyeballs = {s.name for s in ixp.participants if s.category == "eyeball"}
        for assignment in assignments:
            if assignment.participant in eyeballs:
                assert assignment.direction == "in"

    def test_all_install_cleanly(self):
        ixp, assignments = self.make()
        controller = ixp.build_controller()
        installed = install_assignments(controller, assignments)
        assert installed == len(assignments)
        result = controller.start()
        assert result.flow_rule_count > 0

    def test_single_assignment_install(self):
        ixp, assignments = self.make()
        controller = ixp.build_controller()
        assignments[0].install(controller)
        handle = controller.participant(assignments[0].participant)
        assert handle.participant.has_policies

    def test_prefix_sample_restricts_transit_policies(self):
        ixp = generate_ixp(100, 2_000, seed=0)
        sample = ixp.all_prefixes()[:10]
        assignments = generate_policies(ixp, seed=1, prefix_sample=sample)
        for assignment in assignments:
            if assignment.description.startswith("transit") and \
                    assignment.direction == "out":
                assert any(str(p) in assignment.description for p in sample)


class TestGenerateTrace:
    def make_trace(self, **kwargs):
        ixp = generate_ixp(50, 1_000, seed=0)
        defaults = dict(duration_seconds=40_000.0, seed=1,
                        fraction_prefixes_updated=0.12)
        defaults.update(kwargs)
        return ixp, generate_trace(ixp, **defaults)

    def test_deterministic(self):
        _, first = self.make_trace()
        _, second = self.make_trace()
        assert [(e.time, e.update) for e in first] == [
            (e.time, e.update) for e in second]

    def test_times_monotonic(self):
        _, events = self.make_trace()
        times = [event.time for event in events]
        assert times == sorted(times)

    def test_senders_actually_announce(self):
        ixp, events = self.make_trace()
        announcers = {}
        for name, prefix, _path in ixp.announcements:
            announcers.setdefault(prefix, set()).add(name)
        for event in events:
            for prefix in event.update.prefixes:
                assert event.update.sender in announcers[prefix]

    def test_fraction_prefixes_updated_bounded(self):
        ixp, events = self.make_trace(duration_seconds=200_000.0)
        stats = trace_stats(events, total_prefixes=1_000)
        assert stats.fraction_prefixes_updated <= 0.125

    def test_max_updates_stops_exactly(self):
        _, events = self.make_trace(max_updates=77)
        assert len(events) == 77

    def test_burst_statistics_match_paper(self):
        """75% of bursts <= 3 prefixes; inter-arrivals >= 10 s 75% of the
        time, >= 60 s half of the time (tolerances for sampling noise)."""
        _, events = self.make_trace(max_updates=4_000)
        stats = trace_stats(events, total_prefixes=1_000)
        assert 0.65 <= stats.fraction_small_bursts <= 0.85
        assert 0.65 <= stats.fraction_gaps_over_10s <= 0.85
        assert 0.40 <= stats.fraction_gaps_over_60s <= 0.60

    def test_withdraw_then_reannounce(self):
        ixp, events = self.make_trace(max_updates=2_000,
                                      withdraw_probability=0.5)
        withdrawn = set()
        for event in events:
            update = event.update
            for withdrawal in update.withdrawals:
                key = (update.sender, withdrawal.prefix)
                assert key not in withdrawn  # never double-withdraw
                withdrawn.add(key)
            for announcement in update.announcements:
                withdrawn.discard((update.sender, announcement.prefix))

    def test_empty_trace_stats(self):
        stats = trace_stats([], total_prefixes=10)
        assert stats.updates == 0
        assert stats.fraction_prefixes_updated == 0.0

    def test_replay_through_controller(self):
        ixp, events = self.make_trace(max_updates=30)
        controller = ixp.build_controller()
        controller.start()
        for event in events:
            controller.submit_update(event.update)
        assert controller.engine.fast_path_invocations == 30
        controller.run_background_recompilation()
        assert controller.engine.fast_path_rules_live == 0


class TestGenerateBurstTrace:
    def make(self, **kwargs):
        ixp = generate_ixp(20, 200, seed=0)
        defaults = dict(bursts=5, burst_size=40, hot_prefixes=8, seed=1)
        defaults.update(kwargs)
        return ixp, generate_burst_trace(ixp, **defaults)

    def test_deterministic(self):
        _, first = self.make()
        _, second = self.make()
        assert [(e.time, e.update) for e in first] == [
            (e.time, e.update) for e in second]

    def test_size_and_timing(self):
        _, events = self.make(gap_seconds=30.0)
        assert len(events) == 5 * 40
        times = sorted({event.time for event in events})
        assert len(times) == 5  # one shared timestamp per burst
        assert all(b - a == 30.0 for a, b in zip(times, times[1:]))

    def test_hot_set_is_bounded(self):
        _, events = self.make()
        touched = {prefix for event in events
                   for prefix in event.update.prefixes}
        assert len(touched) <= 8

    def test_repeats_within_a_burst(self):
        """Sampling WITH replacement: a 40-update burst over 8 hot
        prefixes must revisit prefixes — that's what coalescing absorbs."""
        _, events = self.make()
        first_burst = [event for event in events
                       if event.time == events[0].time]
        keys = [(e.update.sender, prefix) for e in first_burst
                for prefix in e.update.prefixes]
        assert len(set(keys)) < len(keys)

    def test_senders_actually_announce(self):
        ixp, events = self.make()
        announcers = {}
        for name, prefix, _path in ixp.announcements:
            announcers.setdefault(prefix, set()).add(name)
        for event in events:
            for prefix in event.update.prefixes:
                assert event.update.sender in announcers[prefix]

    def test_rejects_nonpositive_shape(self):
        ixp = generate_ixp(5, 20, seed=0)
        with pytest.raises(ValueError):
            generate_burst_trace(ixp, bursts=0)
        with pytest.raises(ValueError):
            generate_burst_trace(ixp, burst_size=0)
