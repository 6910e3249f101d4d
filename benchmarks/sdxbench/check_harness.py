"""Harness self-test: ``PYTHONPATH=src pytest benchmarks/sdxbench/check_harness.py``.

Runs every workload in-process on a tiny exchange that exists only here
(it is in no catalogue entry and not in ``BENCHMARK.json``) and checks
what the benchmark promises about itself: seed discipline, a complete
metric catalogue, shims that leave no trace behind, and a ``compare.py``
that calls a regression a regression. Named so that neither tier-1
(``test_*.py``) nor ``make bench`` (``bench_*.py``) collects it.
"""

from __future__ import annotations

import json
import pathlib
import re

import catalogue
import compare
import pytest
import spans
import worker
from catalogue import END_TO_END, PER_LAYER, WORKLOADS, Metric, Sizes
from drive import run_workload
from hostspeed import REFERENCE_SECONDS, HostSpeed

from repro.bgp.routeserver import RouteServer

ROOT = pathlib.Path(__file__).resolve().parents[2]

TINY = {
    "cold_start": Sizes(12, 80, cold_starts=2, compiles=2),
    "update_churn": Sizes(12, 80, warmup_updates=4, updates=24,
                          recompile_every=8, compiles=2),
    "burst_runtime": Sizes(12, 80, bursts=2, burst_size=20, hot_prefixes=6,
                           compiles=2),
    "policy_churn": Sizes(12, 80, warmup_pairs=1, pairs=2, compiles=2),
    "gated_changes": Sizes(12, 80, warmup_updates=2, updates=16, pairs=2,
                           probes=80, compiles=2),
}


def _run(name: str, seed: int, tracing: bool = False) -> dict:
    outcome, recorder = run_workload(
        WORKLOADS[name], seed, tracing=tracing, sizes=TINY[name])
    return worker.document(WORKLOADS[name], seed, outcome, recorder)


def _counts(document: dict) -> dict:
    counted = {m.name for m in (*END_TO_END, *PER_LAYER) if m.count}
    timed = {"full_analysis_s", "runtime_queue_wait_p50_ms"}
    return {
        "metrics": {name: m["value"] for name, m in document["metrics"].items()
                    if name in counted},
        "counts": {key: value for key, value in document["counts"].items()
                   if key not in timed},
        "attempted": document["attempted"],
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_counts(name):
    first, second = _run(name, 3, tracing=True), _run(name, 3, tracing=True)
    assert first["failed"] == 0, first["failures"]
    assert first["digest"] == second["digest"]
    assert _counts(first) == _counts(second)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_different_inputs(name):
    assert _run(name, 3)["digest"] != _run(name, 4)["digest"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_catalogued_metric_is_reported(name):
    untraced, traced = _run(name, 5), _run(name, 5, tracing=True)
    assert set(untraced["metrics"]) == {m.name for m in END_TO_END}
    assert set(traced["metrics"]) == {m.name for m in (*END_TO_END, *PER_LAYER)}
    for metric in (*END_TO_END, *PER_LAYER):
        entry = traced["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["samples"], int)
        assert isinstance(entry["value"], (int, float))
    for metric in END_TO_END:
        assert untraced["metrics"][metric.name]["value"] > 0
        assert untraced["metrics"][metric.name]["samples"] >= 1
    assert traced["metrics"]["telemetry.unattributed_pct"]["value"] < 50


def test_idle_layers_read_zero():
    traced = _run("policy_churn", 5, tracing=True)["metrics"]
    assert traced["statics.verify_calls"]["value"] == 0
    assert traced["runtime.events_processed"]["value"] == 0
    assert traced["core.incremental.fastpath_rules"]["value"] == 0
    assert traced["core.compiler.compile_calls"]["value"] > 0
    gated = _run("gated_changes", 5, tracing=True)["metrics"]
    assert gated["statics.verify_calls"]["value"] > 0
    assert gated["dataplane.probe_kpps"]["value"] > 0


def test_shims_are_removed_and_spans_nest():
    original = RouteServer.__dict__["submit"]
    outcome, recorder = run_workload(
        WORKLOADS["update_churn"], 1, tracing=True, sizes=TINY["update_churn"])
    assert RouteServer.__dict__["submit"] is original
    assert outcome.failed == 0
    own = spans.self_times(recorder.spans)
    for index, span in enumerate(recorder.spans):
        assert span[spans.END] >= span[spans.START]
        assert own[index] >= -1e-9
        if span[spans.PARENT] >= 0:
            parent = recorder.spans[span[spans.PARENT]]
            assert parent[spans.OP] == span[spans.OP]
            assert parent[spans.START] <= span[spans.START]
            assert span[spans.END] <= parent[spans.END]
    roots = [s for s in recorder.spans if s[spans.PARENT] < 0]
    assert {s[spans.NAME] for s in roots} == {"op.update", "op.recompile",
                                             "op.compile"}


def test_host_speed_correction_uses_the_neighbouring_samples():
    host = HostSpeed()
    host.starts, host.ends = [0.0, 10.0, 20.0], [1.0, 11.0, 21.0]
    host.seconds = [REFERENCE_SECONDS * 2, REFERENCE_SECONDS * 4,
                    REFERENCE_SECONDS * 9]
    assert host.slowdown(2.0, 9.0) == pytest.approx(3.0)
    assert host.corrected(2.0, 6.0) == pytest.approx(2.0)
    assert host.slowdown(22.0, 23.0) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        HostSpeed().slowdown(0.0, 1.0)


def test_every_op_is_bracketed_by_host_speed_samples():
    _outcome, recorder = run_workload(
        WORKLOADS["update_churn"], 1, sizes=TINY["update_churn"])
    host = recorder.host
    assert recorder.log and host.seconds
    for _kind, start, seconds in recorder.log:
        assert host.ends[0] <= start
        assert host.slowdown(start, start + seconds) > 0
    assert all(end <= begin for end, begin in zip(host.ends, host.starts[1:]))


def test_quantile_is_nearest_rank():
    samples = list(range(1, 1001))
    assert spans.quantile(samples, 0.99) == 990
    assert spans.quantile(samples, 0.5) == 500
    assert spans.quantile([7.0], 0.99) == 7.0


def test_seconds_rescale_op_counts_not_the_exchange():
    sizes = WORKLOADS["update_churn"].sizes
    half = sizes.scaled(0.5)
    assert (half.participants, half.prefixes) == (sizes.participants, sizes.prefixes)
    assert half.updates == sizes.updates // 2
    assert half.recompile_every == sizes.recompile_every
    assert half.warmup_updates == sizes.warmup_updates
    assert sizes.scaled(1.0) == sizes


def test_benchmark_json_is_the_catalogue():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract == catalogue.contract()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 1 <= contract["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    for entry in contract["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert unit.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in contract["end_to_end"])
    setup = next(e for e in contract["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in contract["end_to_end"])


LOWER = Metric("t", "s", "lower", 0.10)
HIGHER = Metric("r", "1/s", "higher", 0.10)


@pytest.mark.parametrize("metric, parent, change, expected", [
    (LOWER, [1.00, 1.01, 0.99], [1.30, 1.31, 1.29], "worse"),
    (LOWER, [1.00, 1.01, 0.99], [1.04, 1.05, 1.03], "unchanged"),
    (LOWER, [1.00, 1.01, 0.99], [0.70, 0.71, 0.69], "better"),
    (HIGHER, [100, 101, 99], [70, 71, 69], "worse"),
    (HIGHER, [100, 101, 99], [130, 131, 129], "better"),
    (LOWER, [1.0, 1.4, 0.8], [1.05, 1.5, 0.7], "unresolved"),
    (LOWER, [1.0, 1.4, 0.8], [0.5, 0.6, 0.4], "better"),
    (LOWER, [1.0, 1.4, 0.8], [2.0, 2.6, 1.8], "worse"),
])
def test_compare_verdicts(metric, parent, change, expected):
    assert compare.verdict(metric, parent, change) == expected


def test_compare_exit_status(tmp_path, capsys):
    def result_set(op_p50: float, failed: int = 0) -> dict:
        metrics = {m.name: {"value": 1.0, "unit": m.unit, "samples": 1}
                   for m in END_TO_END}
        metrics["op_p50_ms"]["value"] = op_p50
        return {"schema": 1, "claim": None, "runs": [
            {"workload": "update_churn", "seed": 0, "trace": 0,
             "attempted": 10, "failed": failed, "metrics": metrics}] * 3}

    paths = {}
    for label, document in (("parent", result_set(1.0)),
                            ("slow", result_set(2.0)),
                            ("failing", result_set(1.0, failed=1))):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(document))
    assert compare.main([str(paths["parent"]), str(paths["parent"])]) == 0
    assert compare.main([str(paths["parent"]), str(paths["slow"])]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(paths["parent"]), str(paths["failing"])]) == 1
