"""Tests for the traffic simulator and the per-figure experiment runners
(run at miniature scale — the benchmarks run them at full scale)."""

import pytest

from repro.experiments.harness import (
    run_compilation_sweep,
    run_fig5a,
    run_fig5b,
    run_fig6,
    run_fig9,
    run_fig10,
    run_table1,
)
from repro.experiments.traffic import DROPPED, FlowSpec, TimedAction, TrafficSimulation
from repro.net.packet import Packet

from tests.core.scenarios import figure1_controller


class TestTrafficSimulation:
    def make(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        flows = [
            FlowSpec(name="web", source="A",
                     packet=Packet(dstip="11.0.0.1", dstport=80,
                                   srcip="10.0.0.1", protocol=17)),
            FlowSpec(name="ssh", source="A",
                     packet=Packet(dstip="11.0.0.1", dstport=22,
                                   srcip="10.0.0.1", protocol=17)),
        ]
        return sdx, flows

    def test_series_track_egress(self):
        sdx, flows = self.make()
        simulation = TrafficSimulation(sdx, flows)
        series = simulation.run(5.0)
        assert series["B"].ys() == [1.0] * 5   # web flow via policy
        assert series["C"].ys() == [1.0] * 5   # default route

    def test_timed_action_fires_once(self):
        sdx, flows = self.make()
        fired = []
        action = TimedAction(time=2.0, label="probe",
                             apply=lambda controller: fired.append(1))
        simulation = TrafficSimulation(sdx, flows, [action])
        simulation.run(5.0)
        assert fired == [1]
        assert simulation.event_log[0][1] == "probe"

    def test_flow_activity_window(self):
        sdx, flows = self.make()
        flows[0].start = 2.0
        flows[0].end = 4.0
        series = TrafficSimulation(sdx, [flows[0]]).run(5.0)
        assert series["B"].ys() == [0.0, 0.0, 1.0, 1.0, 0.0]

    def test_dropped_traffic_labelled(self):
        sdx, _ = self.make()
        flow = FlowSpec(name="void", source="A",
                        packet=Packet(dstip="99.0.0.1", dstport=80,
                                      srcip="10.0.0.1", protocol=17))
        series = TrafficSimulation(sdx, [flow]).run(2.0)
        assert series[DROPPED].ys() == [1.0, 1.0]

    def test_requires_dataplane(self):
        sdx, *_ = figure1_controller(with_dataplane=False)
        sdx.start()
        with pytest.raises(ValueError):
            TrafficSimulation(sdx, [])


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
