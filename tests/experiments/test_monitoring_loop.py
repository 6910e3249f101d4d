"""Tests for the closed-loop experiment harness (experiments.monitoring)."""

from repro.experiments.monitoring import (
    LoopConfig,
    run_shifting_loop,
    run_skewed_loop,
)

SHORT = LoopConfig(duration=20.0, shift_time=5.0)


class TestShiftingLoop:
    def test_loop_reacts_and_rebalances(self):
        result = run_shifting_loop(SHORT)
        assert result.rebalances >= 1
        assert result.first_rebalance_at is not None
        assert result.reaction_seconds is not None
        # The loop must leave the ports near even; the ratio bound is
        # the one the smoke gate enforces.
        assert result.final_imbalance <= 1.25
        assert result.converged(within_ticks=8)
        assert not result.converged(within_ticks=0)

    def test_measurement_accuracy_within_budget(self):
        result = run_shifting_loop(SHORT)
        assert result.port_rate_error_pct <= 5.0

    def test_samples_flow_through_the_hook(self):
        seen = []
        result = run_shifting_loop(SHORT, on_sample=seen.append)
        assert len(seen) == result.samples == 20
        assert [s.sampled_at for s in seen] == sorted(
            s.sampled_at for s in seen)

    def test_monitoring_rides_the_runtime(self):
        result = run_shifting_loop(SHORT)
        assert result.runtime_submitted["monitoring"] >= 1

    def test_to_dict_is_json_shaped(self):
        import json

        payload = run_shifting_loop(SHORT).to_dict()
        assert payload["scenario"] == "shifting"
        json.dumps(payload)  # must not raise


class TestPinnedOutcome:
    def test_thirty_simulated_seconds_strict(self):
        """On the manual clock reaction times are simulated seconds, so
        the loop's outcome is fixed for the config and pinned exactly."""
        config = LoopConfig(duration=30.0, shift_time=10.0,
                            cadence_seconds=1.0, statics_mode="strict")
        shifting = run_shifting_loop(config)
        skewed = run_skewed_loop(config)
        assert shifting.rebalances == 1
        assert (shifting.reaction_seconds, skewed.reaction_seconds) == (
            5.0, 2.0)
        assert (shifting.port_rate_error_pct,
                skewed.fec_rate_error_pct) == (0.0, 0.0)


class TestSkewedLoop:
    def test_loop_offloads_the_surger(self):
        result = run_skewed_loop(SHORT)
        assert result.offloaded == ("62.0.0.0/8",)
        assert result.declined == ()
        assert result.reaction_seconds is not None
        assert result.converged(within_ticks=8)

    def test_measurement_accuracy_within_budget(self):
        # The byte budget needs the full-length run: the one-interval
        # counter loss around the offload swap amortises with duration.
        result = run_skewed_loop(LoopConfig())
        assert result.fec_rate_error_pct <= 5.0
        assert result.fec_bytes_error_pct <= 5.0

    def test_participant_rates_follow_the_offload(self):
        result = run_skewed_loop(SHORT)
        # After steering, the alternate carries real traffic.
        assert result.participant_rates["Alternate"] > 0.0

    def test_to_dict_is_json_shaped(self):
        import json

        payload = run_skewed_loop(SHORT).to_dict()
        assert payload["scenario"] == "skewed"
        assert payload["offloaded"] == ["62.0.0.0/8"]
        json.dumps(payload)

    def test_statics_gate_still_applies(self):
        # The harness routes every reconfiguration through the verifier;
        # warn mode must not change the outcome on clean policies.
        result = run_skewed_loop(LoopConfig(
            duration=20.0, shift_time=5.0, statics_mode="warn"))
        assert result.offloaded == ("62.0.0.0/8",)
