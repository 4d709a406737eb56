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
        "e6f0e97a5a8dfe6997a3dbb29598cb93aa8dc95d23d0ec5b89c8e33de5a7ed37",
    "kmeans-sm-side-uba":
        "803ac33b76e71433484cde5003da77948d675f18ce5db10ee0daff869e0a92d4",
    "kmeans-nuba-norep":
        "5d58113f57ee991918ae0185dd051c0a9311ade2ed656bb0aba31ff89c8b1f94",
    "kmeans-nuba-mdr":
        "7eb010293b48c683a040dfc77dc17746cc8a6c01fd5a783096e862e5d5613f3a",
    "kmeans-nuba-mcm2":
        "b8359f96b1bf28ccb8bc78b2d07632313dff10eec5dbc8922b1c87dbc67c2cbf",
    "an-mem-side-uba-lab":
        "cd1c74f56f2f22eab4bd1781107a19ada30823f7375a81a748837174afe01dfe",
    "pvc-nuba-norep":
        "6861edff3aee83ef64aae5c52e0ec4a2bb7977d951062e123726c8efbc868999",
    "kmeans-mem-side-uba-window1":
        "782481c016b03f5910ffc3147b3b0591c12e45b37ec941e02c0f5f954c2b8c67",
    "an-nuba-mdr":
        "71d882a216c093c114932ad4c17c3642d020e7afa658f67015b4c8dcecec2ef4",
    "bt-nuba-migration":
        "8f15f01193a641445777713d69583fe1f3113674c51e89aef39ffe52c891a788",
    "kmeans-nuba-page-replication":
        "972f59fb6045bf6881f9a696f6efebfec6a021a73f6a5aa8077ce3f482257030",
    "bp-nuba-mdr":
        "dac2d405f1a4963e5a9bac1f7937033305f44ea162612dce5b578755bfc8f4fe",
    "an-nuba-full-rep":
        "14ec4fe8371335d2ec4240bad2d128d0fc464a76d200a6c299f122c608aa1eca",
    "kmeans-mem-side-uba-pae":
        "6712003fe1c79f39c5b78b9e52ba33c38ee50fe4e741a4ed1973afbecca65dc5",
    "wc-nuba-norep":
        "f7784a1870d630a56176b434b0064c49bf0346c811e9585a7aacbcc914187404",
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
