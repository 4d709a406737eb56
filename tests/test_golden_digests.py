"""Golden result digests: simulated results pinned across engine changes.

Every other equivalence suite compares two paths of the *same* tree
(strict vs quiescent engine, fast lane on vs off).  This table compares
against a fixed past: the SHA-256 of each point's ``RunResult`` plus
its full ``stats_snapshot()``, recorded once and committed.  A host-speed
change (engine scheduling, queue layout, caching) must leave every
digest untouched; a change that legitimately alters simulated
behaviour regenerates the table and says why.

Engine bookkeeping (``Simulator.skipped_ticks``,
``Simulator.fast_forwarded_cycles``) is not part of either payload, so
the digests are independent of how much work the engine elides.

Regenerate with::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, replace
from typing import Dict, Optional, Tuple

import pytest

import repro.sim.request as request_mod
from repro.config.presets import small_config
from repro.config.topology import (
    Architecture,
    PagePolicy,
    ReplicationPolicy,
)
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.sim import fastlane
from repro.workloads.suite import get_benchmark

CHANNELS = 2

#: name -> (run key, FR-FCFS scheduling window or None for the default).
POINTS: Dict[str, Tuple[RunKey, Optional[int]]] = {
    # Figure 7's four configurations; KMEANS runs two kernels, so the
    # second launches onto SMs and caches the first left warm.
    "kmeans-mem-side-uba": (
        RunKey("KMEANS", Architecture.MEM_SIDE_UBA), None),
    "kmeans-sm-side-uba": (
        RunKey("KMEANS", Architecture.SM_SIDE_UBA), None),
    "kmeans-nuba-norep": (
        RunKey("KMEANS", Architecture.NUBA,
               replication=ReplicationPolicy.NONE), None),
    "kmeans-nuba-mdr": (
        RunKey("KMEANS", Architecture.NUBA,
               replication=ReplicationPolicy.MDR), None),
    # Multi-chip-module: inter-module egress links.
    "kmeans-nuba-mcm2": (
        RunKey("KMEANS", Architecture.NUBA, mcm_modules=2), None),
    # LAB page placement on memory-side UBA.
    "an-mem-side-uba-lab": (
        RunKey("AN", Architecture.MEM_SIDE_UBA,
               page_policy=PagePolicy.LAB), None),
    # Atomics on globally shared counters.
    "pvc-nuba-norep": (
        RunKey("PVC", Architecture.NUBA,
               replication=ReplicationPolicy.NONE), None),
    # FR-FCFS degenerated to FCFS.
    "kmeans-mem-side-uba-window1": (
        RunKey("KMEANS", Architecture.MEM_SIDE_UBA), 1),
    # MDR replicating read-only shared data across partitions.
    "an-nuba-mdr": (
        RunKey("AN", Architecture.NUBA,
               replication=ReplicationPolicy.MDR), None),
}

#: SHA-256 over the canonical JSON of each point's result and stats.
GOLDEN = {
    "kmeans-mem-side-uba":
        "e98966f375d139fb3575116e933fb25e22baa2cdded5935126db13557d8ec4c3",
    "kmeans-sm-side-uba":
        "f0e4a605e556fc176e275db32644e4774313d5ad78a6f7def11f4893e10eb192",
    "kmeans-nuba-norep":
        "f6a6cace9c20d079afc8f61649fb0a064a84dc9405a21d4510830d72c101a556",
    "kmeans-nuba-mdr":
        "e1cc27c69100d8d78251dac6a6f598e970353638d1657a645d8fa2139e8e04e7",
    "kmeans-nuba-mcm2":
        "d73606cee43a0b665d7ddb19a9c87f02aff1700b0745ca6bef8a443b68d05dba",
    "an-mem-side-uba-lab":
        "4df0edd2eee894087400385526441221ddd3a640b4dc945581b4fbec9d9f4a39",
    "pvc-nuba-norep":
        "5ef3f4f1fc86c926a6476bea3f48bcbfa897f530aa39acf0fb215d0e4da2f1f6",
    "kmeans-mem-side-uba-window1":
        "4b73ab19af89176e5fef5cef9de44741d924abaf23ae29f556c60a86e8ba9415",
    "an-nuba-mdr":
        "e7f3aeebf44af760d38286f91a553a9aa6ec3eea39ccb678c00a8208a06e0268",
}


def digest(name: str) -> str:
    """Simulate one named point from a clean state; return its digest."""
    key, window = POINTS[name]
    request_mod._req_ids = itertools.count()
    fastlane.reset()
    gpu = small_config(num_channels=CHANNELS)
    if window is not None:
        gpu = replace(gpu, memory=replace(gpu.memory, sched_window=window))
    runner = ExperimentRunner(base_gpu=gpu)
    system = runner.build(key)
    workload = get_benchmark(key.benchmark).instantiate(system.gpu)
    result = system.run_workload(workload, max_cycles=runner.max_cycles)
    payload = {
        "result": asdict(result),
        "stats": system.stats_snapshot().as_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(POINTS))
def test_digest_matches_golden(name: str) -> None:
    assert digest(name) == GOLDEN[name]


def test_table_covers_every_point() -> None:
    assert set(GOLDEN) == set(POINTS)


if __name__ == "__main__":
    for point in POINTS:
        print(f'    "{point}":\n        "{digest(point)}",')
