"""Tests for the traffic driver's timelines and the per-figure experiment
runners (run at miniature scale — the benchmarks run them at full scale)."""

import pytest

from repro.experiments.harness import (
    run_compilation_sweep,
    run_fig5a,
    run_fig5b,
    run_fig6,
    run_fig9,
    run_fig10,
    run_table1,
    run_timeline,
)
from repro.monitoring.driver import DROPPED, MonitoredTrafficDriver
from repro.net.packet import Packet
from repro.policy.policies import fwd, match
from repro.runtime.clock import ManualClock
from repro.workloads.scenarios import ScenarioFlow

from tests.core.scenarios import P1, figure1_controller


class TestTrafficSimulation:
    """:func:`run_timeline` over the traffic driver on the Figure 1
    exchange."""

    def make(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        flows = [
            self.flow("web", "11.0.0.1", 80),
            self.flow("ssh", "11.0.0.1", 22),
        ]
        return sdx, flows

    @staticmethod
    def flow(name, dstip, dstport, *, start=0.0, end=100.0):
        return ScenarioFlow(
            name=name, source="A",
            packet=Packet(dstip=dstip, dstport=dstport, srcip="10.0.0.1",
                          protocol=17),
            dst_prefix=P1, rate_mbps=1.0, start=start, end=end)

    def test_series_track_egress(self):
        sdx, flows = self.make()
        series, landed = run_timeline(sdx, flows, [], 5.0)
        assert series["B"].ys() == [1.0] * 5   # web flow via policy
        assert series["C"].ys() == [1.0] * 5   # default route
        assert series["B"].xs() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert landed == []

    def test_timed_action_fires_once(self):
        sdx, flows = self.make()
        fired = []
        change = (2.0, "probe", lambda controller: fired.append(1))
        _series, landed = run_timeline(sdx, flows, [change], 5.0)
        assert fired == [1]
        assert landed == [(2.0, "probe")]

    def test_change_lands_before_the_first_tick_at_or_after_it(self):
        sdx, flows = self.make()

        def ssh_via_b(controller):
            controller.participant("A").add_outbound(
                match(dstport=22) >> fwd("B"))

        late = (4.5, "after the last tick", ssh_via_b)
        series, landed = run_timeline(
            sdx, flows, [(1.5, "ssh via B", ssh_via_b), late], 5.0)
        assert landed == [(2.0, "ssh via B")]
        assert series["B"].ys() == [1.0, 1.0, 2.0, 2.0, 2.0]
        assert series["C"].ys() == [1.0, 1.0, 0.0, 0.0, 0.0]

    def test_flow_activity_window(self):
        sdx, flows = self.make()
        web = self.flow("web", "11.0.0.1", 80, start=2.0, end=4.0)
        series, _landed = run_timeline(sdx, [web], [], 5.0)
        assert series["B"].ys() == [0.0, 0.0, 1.0, 1.0, 0.0]

    def test_dropped_traffic_labelled(self):
        sdx, _ = self.make()
        void = self.flow("void", "99.0.0.1", 80)
        series, _landed = run_timeline(sdx, [void], [], 2.0)
        assert series[DROPPED].ys() == [1.0, 1.0]

    def test_requires_dataplane(self):
        sdx, *_ = figure1_controller(with_dataplane=False)
        sdx.start()
        runtime = sdx.build_runtime(clock=ManualClock())
        with pytest.raises(ValueError):
            MonitoredTrafficDriver(sdx, runtime, [])


class TestFigureRunners:
    def test_fig5a_shape(self):
        """Web traffic moves to B at the policy event and back to A at the
        withdrawal — the Figure 5a shape."""
        series, events = run_fig5a(time_scale=0.02)
        assert [label for _t, label in events] == [
            "application-specific peering policy", "route withdrawal"]
        a_ys, b_ys = series["A"].ys(), series["B"].ys()
        assert a_ys[0] == 3.0 and b_ys[0] == 0.0      # all via A initially
        middle = len(a_ys) // 2
        assert a_ys[middle] == 2.0 and b_ys[middle] == 1.0  # web via B
        assert a_ys[-1] == 3.0 and b_ys[-1] == 0.0    # withdrawal restores

    def test_fig5b_shape(self):
        """Traffic splits across instances after the balancer installs."""
        series, events = run_fig5b(time_scale=0.05)
        one = series["AWS instance #1"].ys()
        two = series["AWS instance #2"].ys()
        assert one[0] == 2.0 and two[0] == 0.0
        assert one[-1] == 1.0 and two[-1] == 1.0

    def test_fig5_tick_count_is_exact(self):
        """Tick i is at i x tick: 54 s in 0.3 s ticks is 180 ticks, all
        inside the run (a running float sum gave 181)."""
        for time_scale in (0.03, 0.01):
            series, _events = run_fig5a(time_scale=time_scale)
            points = series["A"].points
            assert len(points) == 180
            assert points[-1][0] < 1_800.0 * time_scale

    def test_table1_rows(self):
        rows = run_table1(scale=0.0005)
        assert [row.profile.name for row in rows] == ["AMS-IX", "DE-CIX", "LINX"]
        for row in rows:
            scaled = row.profile.scaled(0.0005)
            assert row.measured_updates == scaled.bgp_updates
            assert abs(row.measured_fraction_updated
                       - row.profile.fraction_prefixes_updated) < 0.03

    def test_fig6_sublinear_and_ordered(self):
        series_list = run_fig6(participant_counts=(25, 50),
                               prefix_counts=(500, 1_000, 2_000),
                               total_prefixes=2_000)
        small, large = series_list
        # More participants -> more groups at every x.
        for (x1, y1), (x2, y2) in zip(small.points, large.points):
            assert y2 >= y1
        # Sub-linear: groups grow slower than prefixes.
        first, last = large.points[0], large.points[-1]
        assert last[1] / first[1] < last[0] / first[0]

    def test_compilation_sweep_rules_grow_with_groups(self):
        points = run_compilation_sweep(
            participant_counts=(80,), prefix_counts=(300, 3_000))
        assert points[1].prefix_groups > points[0].prefix_groups
        assert points[1].flow_rules > points[0].flow_rules
        assert all(point.seconds > 0 for point in points)

    def test_compilation_sweep_counts_are_pinned(self):
        """The Figure 8 sweep's table and group sizes are work counts,
        fixed for the seed: an algorithmic change moves them exactly."""
        points = run_compilation_sweep(
            participant_counts=(60,), prefix_counts=(400, 800))
        assert [(point.flow_rules, point.prefix_groups)
                for point in points] == [(247, 33), (279, 38)]

    def test_fig9_linear_in_burst(self):
        series_list = run_fig9(burst_sizes=(1, 4, 8),
                               participant_counts=(30,), prefixes=300)
        ys = series_list[0].ys()
        assert ys[0] < ys[1] < ys[2]

    def test_fig10_sub_second(self):
        cdfs = run_fig10(updates=20, participant_counts=(30,), prefixes=300)
        cdf = cdfs[30]
        assert cdf.quantile(0.9) < 1.0  # sub-second, as in the paper
