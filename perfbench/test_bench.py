"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time

import pytest

import bench
import run
from repro.core.system import GPUSystem

#: Benchmarks whose generated inputs depend on the seed, one per workload.
SEEDED = {"fig7-sweep": "PVC", "latency-bound": "NW"}


def tiny(name: str) -> bench.WorkloadSpec:
    """A workload shrunk to a 2-channel GPU (4 SMs)."""
    return dataclasses.replace(bench.WORKLOADS[name], channels=2)


@pytest.fixture(scope="module")
def untraced():
    return {name: bench.run(tiny(name), seed=1, seconds=0, trace=False)
            for name in bench.WORKLOADS}


def test_metric_names_and_units_match_benchmark_json(untraced):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.E2E_UNITS
    assert layers == bench.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for report in untraced.values():
        assert report.correct, report.problems
        assert list(report.metrics) == list(e2e)
        assert all(value > 0 for value in report.metrics.values())


def test_traced_run_reports_every_layer_and_matches_untraced_digests(
        untraced):
    report = bench.run(tiny("latency-bound"), seed=1, seconds=0, trace=True)
    assert report.correct, report.problems
    assert list(report.metrics) == list(bench.LAYER_UNITS)
    assert report.digest == untraced["latency-bound"].digest
    assert report.metrics["trace.overhead_ratio"] > 0


@pytest.mark.parametrize("name", list(SEEDED))
def test_same_seed_same_digest_other_seed_changes_seeded_points(
        name, untraced):
    again = bench.repetition(tiny(name), seed=1, trace=False)
    assert ({label: o.digest for label, o in again.outcomes.items()}
            == untraced[name].points)
    other = bench.repetition(tiny(name), seed=7, trace=False)
    for label, outcome in other.outcomes.items():
        changed = outcome.digest != untraced[name].points[label]
        assert changed == label.startswith(SEEDED[name] + "/"), label


def _injected_audit_failure(self):
    return ["injected failure"]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers must inherit the patched audit")
def test_injected_audit_failure_fails_the_sweep(monkeypatch):
    monkeypatch.setattr(GPUSystem, "audit", _injected_audit_failure)
    report = bench.run(tiny("fig7-sweep"), seed=1, seconds=0, trace=False)
    assert not report.correct
    assert report.failed == report.attempted
    assert report.metrics["point_ok_ratio"] == 0.0


def test_cli_exits_nonzero_on_injected_audit_failure(monkeypatch, capsys):
    monkeypatch.setattr(GPUSystem, "audit", _injected_audit_failure)
    monkeypatch.setitem(bench.WORKLOADS, "latency-bound",
                        tiny("latency-bound"))
    code = run.main(["--workload", "latency-bound", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["point_ok_ratio"]["value"] == 0.0


def test_host_probe_samples_while_open_and_stops():
    cpu = min(os.sched_getaffinity(0))
    with bench.HostProbe([cpu]) as probe:
        begun = time.perf_counter()
        time.sleep(3 * bench.PROBE_INTERVAL_S)
        ended = time.perf_counter()
    assert all(cpu_s > 0 for _, cpu_s in probe.samples)
    inside = [at for at, _ in probe.samples if begun <= at <= ended]
    assert len(inside) >= 2
    assert probe.ref_s(begun, ended) > 0
    assert not [child for child in multiprocessing.active_children()
                if child.name == bench._PROBE_NAME]
