"""End-to-end system tests on a tiny configuration.

These run complete workloads through every architecture and check
system-level invariants: all work retires, requests are conserved, the
architectural properties hold (locality under NUBA, replication effects),
and kernel-boundary coherence actions happen.
"""

import pytest

from repro.config.presets import small_config
from repro.config.topology import (
    Architecture,
    PagePolicy,
    ReplicationPolicy,
    TopologySpec,
)
from repro.core.builders import build_system
from repro.workloads.suite import get_benchmark

#: A tiny GPU so each test runs in well under a second.
GPU = small_config(num_channels=4, warps_per_sm=4)


def _run(arch, bench="KMEANS", replication=ReplicationPolicy.NONE,
         page_policy=PagePolicy.LAB, gpu=GPU):
    topo = TopologySpec(
        architecture=arch, replication=replication,
        page_policy=page_policy, mdr_epoch=1000,
    )
    system = build_system(gpu, topo)
    workload = get_benchmark(bench).instantiate(gpu)
    result = system.run_workload(workload, max_cycles=2_000_000)
    return system, result


class TestAllArchitecturesComplete:
    @pytest.mark.parametrize("arch", list(Architecture))
    def test_kmeans_completes(self, arch):
        system, result = _run(arch)
        assert result.cycles > 0
        assert result.instructions > 0
        assert result.loads_completed > 0

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_high_sharing_completes(self, arch):
        _, result = _run(arch, bench="AN")
        assert result.loads_completed > 0


class TestInvariants:
    def test_work_conservation_across_architectures(self):
        """Every architecture must execute the same instruction stream."""
        instruction_counts = {
            arch: _run(arch)[1].instructions for arch in Architecture
        }
        assert len(set(instruction_counts.values())) == 1

    def test_drained_at_completion(self):
        system, _ = _run(Architecture.NUBA)
        assert system._drained()
        for llc_slice in system.slices:
            assert llc_slice.pending_work == 0
        for mc in system.mcs:
            assert mc.pending == 0

    def test_local_plus_remote_equals_completed(self):
        _, result = _run(Architecture.NUBA)
        tracker = result.tracker
        assert tracker["local"] + tracker["remote"] == tracker["completed"]

    @pytest.mark.parametrize("arch", [Architecture.MEM_SIDE_UBA,
                                      Architecture.NUBA])
    def test_mean_load_latency_covers_the_llc(self, arch):
        """Regression: the tracker read ``complete_cycle`` before the SM
        had set it, so every real run reported a mean latency of 0.
        Every recorded reply passed through an LLC slice, so the
        issue-to-delivery mean is at least the slice latency."""
        system, result = _run(arch)
        mean = result.tracker["mean_latency"]
        assert mean >= GPU.llc_slice.latency > 0
        stats = system.stats_snapshot().as_dict()
        assert stats["tracker.total_latency"] == pytest.approx(
            mean * stats["tracker.completed"])

    def test_uba_never_local(self):
        _, result = _run(Architecture.MEM_SIDE_UBA)
        assert result.local_fraction == 0.0

    def test_nuba_mostly_local_for_low_sharing(self):
        _, result = _run(Architecture.NUBA, bench="DWT2D")
        assert result.local_fraction > 0.5

    def test_nuba_low_locality_for_high_sharing_no_rep(self):
        _, result = _run(Architecture.NUBA, bench="BICG")
        assert result.local_fraction < 0.5

    def test_replication_raises_locality(self):
        _, norep = _run(Architecture.NUBA, bench="AN",
                        replication=ReplicationPolicy.NONE)
        _, full = _run(Architecture.NUBA, bench="AN",
                       replication=ReplicationPolicy.FULL)
        assert full.local_fraction > norep.local_fraction

    def test_kernel_boundary_flushes_l1(self):
        system, _ = _run(Architecture.NUBA)
        assert all(sm.l1.flushes >= 1 for sm in system.sms)

    def test_energy_positive_and_split(self):
        _, result = _run(Architecture.MEM_SIDE_UBA)
        assert result.energy.total > 0
        assert result.energy.noc > 0

    def test_pages_balanced_under_lab(self):
        system, result = _run(Architecture.NUBA, bench="BICG")
        counts = result.pages_per_channel
        assert max(counts) - min(counts) <= 40

    def test_first_touch_worse_than_lab_for_high_sharing(self):
        """The Section 4 pathology: first-touch concentrates shared pages
        (early SMs fault them first) and loses to LAB on high-sharing
        workloads. Needs the full 8-channel scaled GPU -- with very few
        channels the skew has nowhere to go."""
        gpu = small_config()
        _, ft = _run(Architecture.NUBA, bench="BICG",
                     page_policy=PagePolicy.FIRST_TOUCH, gpu=gpu)
        _, lab = _run(Architecture.NUBA, bench="BICG",
                      page_policy=PagePolicy.LAB, gpu=gpu)
        assert lab.speedup_over(ft) > 1.1


class TestPolicyEffects:
    def test_mdr_decisions_recorded(self):
        system, _ = _run(Architecture.NUBA, bench="AN",
                         replication=ReplicationPolicy.MDR)
        assert system.mdr.decisions  # at least one epoch evaluated

    def test_migration_policy_runs(self):
        system, result = _run(Architecture.NUBA, bench="DWT2D",
                              page_policy=PagePolicy.MIGRATION)
        assert system.migration is not None
        assert result.loads_completed > 0

    def test_page_replication_policy_runs(self):
        system, result = _run(Architecture.NUBA, bench="AN",
                              page_policy=PagePolicy.PAGE_REPLICATION)
        assert result.loads_completed > 0

    def test_sm_side_coherence_invalidations(self):
        """Stores to lines cached on the other side must invalidate."""
        system, _ = _run(Architecture.SM_SIDE_UBA, bench="NW")
        # NW stores to a shared-ish output; invalidations may or may not
        # trigger depending on caching, but the machinery must exist.
        assert hasattr(system, "invalidations_sent")

    def test_speedup_over_self_is_one(self):
        _, a = _run(Architecture.MEM_SIDE_UBA)
        assert a.speedup_over(a) == pytest.approx(1.0)


class TestSharingAnalysis:
    def test_low_sharing_classified(self):
        system, _ = _run(Architecture.MEM_SIDE_UBA, bench="DWT2D")
        from repro.analysis.sharing import sharing_profile
        profile = sharing_profile(
            "DWT2D", system.sharing_histogram(), system.gpu.num_sms
        )
        assert profile.classify() == "low"

    def test_high_sharing_classified(self):
        system, _ = _run(Architecture.MEM_SIDE_UBA, bench="AN")
        from repro.analysis.sharing import sharing_profile
        profile = sharing_profile(
            "AN", system.sharing_histogram(), system.gpu.num_sms
        )
        assert profile.classify() == "high"


class TestConservationAudit:
    """Every issued load completes exactly once, on every architecture
    and replication policy (the audit that catches lost/misrouted or
    double-completed requests)."""

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_audit_clean_no_rep(self, arch):
        system, _ = _run(arch, bench="AN")
        assert system.audit() == []

    @pytest.mark.parametrize("rep", [ReplicationPolicy.MDR,
                                     ReplicationPolicy.FULL])
    def test_audit_clean_with_replication(self, rep):
        system, _ = _run(Architecture.NUBA, bench="AN", replication=rep)
        assert system.audit() == []

    def test_audit_clean_with_atomics(self):
        system, _ = _run(Architecture.NUBA, bench="PVC",
                         replication=ReplicationPolicy.MDR)
        assert system.audit() == []

    def test_audit_clean_multi_kernel(self):
        system, _ = _run(Architecture.NUBA, bench="KMEANS",
                         replication=ReplicationPolicy.FULL)
        assert system.audit() == []

    def test_audit_detects_injected_imbalance(self):
        system, _ = _run(Architecture.NUBA)
        system.sms[0].loads_issued += 1  # simulate a lost request
        problems = system.audit()
        assert problems and "sm0" in problems[0]


@pytest.mark.skipif(
    not __import__("os").environ.get("REPRO_SLOW"),
    reason="full Table 1 machine (~20s); set REPRO_SLOW=1 to run",
)
class TestFullScaleBaseline:
    """The unscaled 64-SM / 64-slice / 32-channel Table 1 machine runs
    end to end with conserved requests (opt-in, slower)."""

    def test_table1_machine_runs_and_audits_clean(self):
        from dataclasses import replace
        from repro.config.gpu import TLBConfig
        from repro.config.presets import baseline_config

        gpu = replace(
            baseline_config(),
            tlb=TLBConfig(walk_latency=40, page_fault_cycles=300),
        )
        results = {}
        for arch in (Architecture.MEM_SIDE_UBA, Architecture.NUBA):
            topo = TopologySpec(architecture=arch, mdr_epoch=2000)
            system = build_system(gpu, topo)
            workload = get_benchmark("KMEANS").instantiate(gpu)
            results[arch] = system.run_workload(
                workload, max_cycles=5_000_000
            )
            assert system.audit() == []
        nuba = results[Architecture.NUBA]
        assert nuba.local_fraction > 0.5
