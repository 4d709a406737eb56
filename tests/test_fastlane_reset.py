"""`fastlane.reset()` coverage: the reset registry actually restores a
cold start.

After a run, ``reset()`` verifiably empties every registered busy-path
cache (request pool, interned warp bodies), the per-object address-map
route/bank memos flush with their owner, and a re-run from the reset
state is bit-identical.

Request ids come from a process-global counter, so each measured run
reseeds it: the id stream appears in tracer events and must start
from the same value for two runs to compare equal.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict

import pytest

import repro.sim.request as request_mod
import repro.workloads.patterns as patterns
from repro.config.presets import small_config
from repro.config.topology import Architecture, ReplicationPolicy
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.sim import fastlane
from repro.workloads.suite import get_benchmark

KEY = RunKey("KMEANS", Architecture.NUBA,
             replication=ReplicationPolicy.MDR)


def _run_point():
    """Run the reference point; returns (system, result, stats)."""
    request_mod._req_ids = itertools.count()
    fastlane.reset()
    runner = ExperimentRunner(
        base_gpu=small_config(num_channels=2), strict=False,
    )
    system = runner.build(KEY)
    workload = get_benchmark(KEY.benchmark).instantiate(system.gpu)
    result = system.run_workload(workload, max_cycles=runner.max_cycles)
    return system, asdict(result), system.stats_snapshot().as_dict()


@pytest.fixture
def cold_caches():
    yield
    fastlane.reset()


class TestResetEmptiesCaches:
    def test_run_populates_then_reset_empties(self, cold_caches):
        system, _, _ = _run_point()

        # The run populated the process-wide registered caches...
        assert request_mod._pool, "request freelist never populated"
        assert patterns._mem_interned or patterns._compute_interned, \
            "warp-body intern table never populated"
        # ...and the per-object ones.
        assert (system.address_map._route_cache
                or system.address_map._bank_cache), \
            "no route/bank memo populated"

        # Every registered cache must be verifiably empty after reset.
        fastlane.reset()
        assert not request_mod._pool
        assert not patterns._mem_interned
        assert not patterns._compute_interned

        # Per-object caches die with their owners (that is why they are
        # not in the registry); their flush hook must empty them too.
        system.address_map.flush_routes()
        assert not system.address_map._route_cache
        assert not system.address_map._bank_cache

    def test_reset_is_idempotent(self, cold_caches):
        fastlane.reset()
        fastlane.reset()
        assert not request_mod._pool
        assert not patterns._mem_interned


class TestRerunAfterResetBitIdentical:
    def test_back_to_back_runs_identical(self, cold_caches):
        _, first_result, first_stats = _run_point()
        _, second_result, second_stats = _run_point()
        assert first_result == second_result
        assert first_stats == second_stats
