"""The PR's acceptance soak: 200 federated scenarios, no divergence.

Marked ``fuzz`` — excluded from the default test run (see
``pyproject.toml``), executed by ``make federation-smoke`` /
``make fuzz`` tier jobs.
"""

import pytest

from repro.verification.fuzz import FuzzConfig, run_fuzz

pytestmark = pytest.mark.fuzz


def test_two_hundred_scenario_soak_is_clean():
    config = FuzzConfig(
        seed=2014, scenarios=200, steps=6, participants=6,
        prefixes=4, policies=6, corpus_size=6,
        checks=("federation",), exchanges=2)
    report = run_fuzz(config)
    assert report.scenarios_run == 200
    assert report.ok, report.summary()


def test_three_exchange_soak_is_clean():
    config = FuzzConfig(
        seed=2015, scenarios=25, steps=6, participants=8,
        prefixes=4, policies=7, corpus_size=6,
        checks=("federation",), exchanges=3)
    report = run_fuzz(config)
    assert report.ok, report.summary()
