"""Tests for the burst-aware trace replay on the runtime's simulated clock
(:func:`repro.experiments.harness.replay_trace`)."""

import pytest

from repro.__main__ import main
from repro.experiments.harness import replay_trace
from repro.workloads import generate_trace, loaded_exchange
from repro.workloads.topology import generate_ixp


def make_controller(participants=40, prefixes=400):
    return loaded_exchange(participants, prefixes, seed=0)


def recompiles(controller, trigger):
    metric = controller.telemetry.registry.get(
        "sdx_runtime_recompiles_total", trigger=trigger)
    return 0 if metric is None else metric.value


class TestTraceReplayer:
    def test_requires_started_controller(self):
        ixp = generate_ixp(10, 50, seed=0)
        controller = ixp.build_controller()
        with pytest.raises(ValueError):
            replay_trace(controller, [])

    def test_replays_every_update(self):
        controller, ixp = make_controller()
        events = generate_trace(ixp, seed=2, max_updates=60)
        runtime, _peak = replay_trace(controller, events)
        assert runtime.stats()["processed"] == 60
        assert len(controller.fast_path_log) == 60

    def test_background_runs_between_bursts(self):
        controller, ixp = make_controller()
        events = generate_trace(ixp, seed=2, max_updates=60)
        replay_trace(controller, events, gap_seconds=10.0)
        # The trace's inter-arrivals exceed 10 s ~75% of the time, so the
        # scheduler's idle trigger must have found many windows.
        assert recompiles(controller, "idle") > 10
        # And the final state is clean.
        assert controller.engine.fast_path_rules_live == 0
        assert not controller.engine.dirty

    def test_huge_gap_threshold_defers_everything(self):
        controller, ixp = make_controller()
        events = generate_trace(ixp, seed=2, max_updates=40)
        _runtime, peak = replay_trace(controller, events, gap_seconds=1e9)
        # No window ever opened: the fast path carried every update and
        # only the final settle re-optimised.
        assert recompiles(controller, "idle") == 0
        assert recompiles(controller, "settle") == 1
        assert peak > 0

    def test_final_background_cleans_up(self):
        controller, ixp = make_controller()
        events = generate_trace(ixp, seed=2, max_updates=20)
        replay_trace(controller, events, gap_seconds=1e9)
        assert recompiles(controller, "settle") == 1
        assert controller.engine.fast_path_rules_live == 0

    def test_summary_renders(self, capsys):
        assert main(["replay", "--participants", "40", "--prefixes", "400",
                     "--updates", "20"]) == 0
        text = capsys.readouterr().out
        assert "20 updates" in text
        assert "fast path median" in text

    def test_peak_rules_exceed_final(self):
        controller, ixp = make_controller()
        events = generate_trace(ixp, seed=2, max_updates=60)
        _runtime, peak = replay_trace(controller, events)
        assert peak >= controller.engine.fast_path_rules_live == 0
        assert max(entry.seconds for entry in controller.fast_path_log) < 1.0


class TestNoUpdates:
    def test_zero_updates_replay_nothing(self, capsys):
        assert main(["replay", "--participants", "20", "--prefixes", "100",
                     "--updates", "0"]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary == "0 updates; peak extra rules 0; 0 background runs"

    def test_zero_bound_is_an_empty_trace(self):
        ixp = generate_ixp(10, 50, seed=0)
        assert generate_trace(ixp, seed=2, max_updates=0) == []
        with pytest.raises(ValueError):
            generate_trace(ixp, seed=2, max_updates=-1)
