"""Golden result digests: simulated results pinned across engine changes.

Every other equivalence suite compares two paths of the *same* tree
(strict vs quiescent engine, a cache vs the code it replaces).  This
table compares against a fixed past: the SHA-256 of each point's
``RunResult`` plus its full ``stats_snapshot()``, recorded once and
committed.  A host-speed change (engine scheduling, queue layout,
caching) must leave every digest untouched; a change that legitimately
alters simulated behaviour regenerates the table and says why.

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
    AddressMapKind,
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
    # Page migration: pages move between channels mid-run.
    "bt-nuba-migration": (
        RunKey("BT", Architecture.NUBA,
               page_policy=PagePolicy.MIGRATION), None),
    # Page replication: a write collapses a replica (TLB shootdown).
    "kmeans-nuba-page-replication": (
        RunKey("KMEANS", Architecture.NUBA,
               page_policy=PagePolicy.PAGE_REPLICATION), None),
    # MDR flipping replication on and off across two kernels.
    "bp-nuba-mdr": (
        RunKey("BP", Architecture.NUBA,
               replication=ReplicationPolicy.MDR), None),
    # Every read-only shared line replicated in every partition.
    "an-nuba-full-rep": (
        RunKey("AN", Architecture.NUBA,
               replication=ReplicationPolicy.FULL), None),
    # PAE randomised channel bits (the PAEMap route memo).
    "kmeans-mem-side-uba-pae": (
        RunKey("KMEANS", Architecture.MEM_SIDE_UBA,
               address_map=AddressMapKind.PAE), None),
    "wc-nuba-norep": (
        RunKey("WC", Architecture.NUBA,
               replication=ReplicationPolicy.NONE), None),
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
    "bt-nuba-migration":
        "b0d54cb7c94354f85b6d67f5bd5818234537e13d488a755e65eaabaf2a00e521",
    "kmeans-nuba-page-replication":
        "0e6bb1a70b97bfca5fb3bd15af62d1d106513d4728d4b311b65e7f2b846b19ac",
    "bp-nuba-mdr":
        "a0a5ada1f93b0f438c12bbcf5d7bc6430a7cf6c31ce559311cd34757b11013f6",
    "an-nuba-full-rep":
        "103b8ecc401652f1497a886f14ccef136a086142b2ca6dbd53c0c1cf55b95444",
    "kmeans-mem-side-uba-pae":
        "cb869c1eea026071c5d7115e0d172bd5dcb4935083817b568b332795874642ae",
    "wc-nuba-norep":
        "4202393c90b51204fb1543fc10c2489222ce5e81b2d4129d3d1cae22c24e347d",
}


def simulate(name: str):
    """Simulate one named point from a clean state.

    Returns ``(system, result)``.
    """
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
    return system, result


def digest(name: str) -> str:
    """Simulate one named point from a clean state; return its digest."""
    system, result = simulate(name)
    payload = {
        "result": asdict(result),
        "stats": system.stats_snapshot().as_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(POINTS))
def test_digest_matches_golden(name: str) -> None:
    assert digest(name) == GOLDEN[name]


def test_mechanism_points_exercise_their_mechanism() -> None:
    """A point pinned for a mechanism must actually run that mechanism;
    otherwise its digest would pin a no-op."""
    system, _ = simulate("bt-nuba-migration")
    assert system.migration.migrations > 0
    system, _ = simulate("kmeans-nuba-page-replication")
    assert system.driver.collapses > 0
    system, _ = simulate("bp-nuba-mdr")
    assert system.mdr.replication_epochs > 0


def test_table_covers_every_point() -> None:
    assert set(GOLDEN) == set(POINTS)


if __name__ == "__main__":
    for point in POINTS:
        print(f'    "{point}":\n        "{digest(point)}",')
