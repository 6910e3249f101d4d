"""The differential oracle end-to-end: clean runs, and a deliberately
injected incremental-engine bug caught and replayed from its artifact —
the subsystem's acceptance test. (Shrinking, artifact round-trips and
session budgets are the kernel's: see test_kernel.py.)
"""

import pytest

from repro.core.incremental import IncrementalEngine
from repro.verification.corpus import generate_corpus
from repro.verification.invariants import SwapMonitor, check_all
from repro.verification.kernel import (
    Case,
    FailureArtifact,
    SessionConfig,
    SessionReport,
    replay,
    replay_artifact,
    shrink,
)
from repro.verification.oracle import DifferentialOracle
from repro.verification.scenario import generate_scenario

#: A seed whose scenario diverges at step 0 once the fast path is broken
#: (keeps the acceptance test fast); see test_injected_bug_is_caught.
BUGGY_SEED = 3


def small_case(scenario, **kwargs):
    return Case(scenario, corpus_size=6, **kwargs)


def break_fast_path(monkeypatch):
    """Disable the incremental engine's rule patching without marking the
    controller dirty — updates then silently leave stale rules installed,
    exactly the class of bug the oracle exists to catch."""
    monkeypatch.setattr(IncrementalEngine, "_fast_path_for_prefix",
                        lambda self, prefix, *_args: 0)


class TestCleanRuns:
    def test_no_false_positives(self):
        scenario = generate_scenario(0, steps=8)
        assert replay(small_case(scenario)) is None

    def test_counts_work(self):
        case = small_case(generate_scenario(0, steps=8))
        oracle = DifferentialOracle()
        assert replay(case, [oracle]) is None
        report = SessionReport(SessionConfig())
        report.record(case, [oracle], None)
        assert report.steps_executed == 8
        assert report.comparisons == oracle.comparisons > 0

    def test_invariants_clean_on_scenario_controller(self):
        scenario = generate_scenario(2, steps=4)
        controller = scenario.build_controller()
        assert check_all(controller, generate_corpus(scenario, size=6)) == []

    def test_swap_monitor_clean_on_healthy_swap(self):
        scenario = generate_scenario(2, steps=4)
        controller = scenario.build_controller()
        for step in scenario.trace:
            controller.submit_update(scenario.step_update(step))
        probes = generate_corpus(scenario, size=4)[:8]
        with SwapMonitor(controller, probes) as monitor:
            controller.run_background_recompilation()
        assert monitor.violations() == []
        assert monitor.intermediate, "swap applied no batches to observe"


class TestInjectedBug:
    def test_injected_bug_is_caught(self, monkeypatch):
        break_fast_path(monkeypatch)
        scenario = generate_scenario(BUGGY_SEED, steps=12)
        failure = replay(small_case(scenario, recompile_every=100))
        assert failure is not None
        assert failure.kind == "incremental-vs-reference"
        assert failure.step == 0

    def test_artifact_clean_once_bug_is_fixed(self, tmp_path):
        """The same artifact on an unpatched tree replays clean — the
        fix-verification workflow ``repro fuzz --replay`` automates."""
        with pytest.MonkeyPatch.context() as patcher:
            break_fast_path(patcher)
            original = small_case(generate_scenario(BUGGY_SEED, steps=12),
                                  recompile_every=100)
            shrunk, failure, _runs = shrink(original)
            path = FailureArtifact.of(shrunk, failure, original).save(
                tmp_path)
            assert replay_artifact(path) == failure
        assert replay_artifact(path) is None
