"""The PR's acceptance soak: 200 dataplane-verified scenarios, clean.

Every scenario holds the incremental verifier byte-identical to a
fresh whole-table analysis at every trace step and re-fires every
SDX010-SDX012 witness packet through the real flow table. Marked
``fuzz`` — excluded from the default test run (see ``pyproject.toml``),
executed by ``make dataplane-lint-smoke`` / ``make fuzz`` tier jobs.
"""

import pytest

from repro.verification.fuzz import FuzzConfig, run_fuzz

pytestmark = pytest.mark.fuzz


def test_two_hundred_scenario_soak_is_clean():
    config = FuzzConfig(
        seed=2014, scenarios=200, steps=8, participants=4,
        prefixes=4, policies=4, corpus_size=6, checks=("dataplane",))
    report = run_fuzz(config)
    assert report.scenarios_run == 200
    assert report.ok, report.summary()


def test_churn_heavy_soak_is_clean():
    config = FuzzConfig(
        seed=2015, scenarios=30, steps=14, participants=6,
        prefixes=6, policies=6, corpus_size=6, checks=("dataplane",))
    report = run_fuzz(config)
    assert report.ok, report.summary()
