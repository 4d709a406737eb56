"""Experiment runner and figure-harness tests (tiny configurations)."""

import pytest

from repro.config.presets import small_config
from repro.config.topology import (
    Architecture,
    PagePolicy,
    ReplicationPolicy,
)
from repro.experiments import figures
from repro.experiments.runner import ExperimentRunner, RunKey


@pytest.fixture(scope="module")
def runner():
    """A runner on a tiny 4-channel GPU so figure tests stay fast."""
    return ExperimentRunner(base_gpu=small_config(num_channels=4,
                                                  warps_per_sm=4))


class TestRunKey:
    def test_hashable_and_cachable(self):
        a = RunKey("KMEANS")
        b = RunKey("KMEANS")
        assert a == b and hash(a) == hash(b)

    def test_describe_mentions_options(self):
        key = RunKey("AN", Architecture.NUBA,
                     replication=ReplicationPolicy.MDR, noc_gbps=100.0)
        text = key.describe()
        assert "AN" in text and "nuba" in text and "noc=100GB/s" in text


class TestRunnerConfigs:
    def test_gpu_for_noc_override(self, runner):
        key = RunKey("KMEANS", noc_gbps=123.0)
        assert runner.gpu_for(key).noc.total_bandwidth_gbps == 123.0

    def test_gpu_for_size_factor(self, runner):
        key = RunKey("KMEANS", size_factor=2.0)
        gpu = runner.gpu_for(key)
        assert gpu.num_sms == 2 * runner.base_gpu.num_sms
        assert gpu.memory.num_channels == 2 * runner.base_gpu.num_channels

    def test_gpu_for_llc_factor(self, runner):
        key = RunKey("KMEANS", llc_capacity_factor=2.0)
        gpu = runner.gpu_for(key)
        assert gpu.llc_total_bytes == 2 * runner.base_gpu.llc_total_bytes

    def test_gpu_for_page_bytes(self, runner):
        key = RunKey("KMEANS", page_bytes=16384)
        assert runner.gpu_for(key).page_bytes == 16384

    def test_topology_for_policies(self, runner):
        key = RunKey("KMEANS", Architecture.NUBA,
                     replication=ReplicationPolicy.FULL,
                     page_policy=PagePolicy.ROUND_ROBIN,
                     lab_threshold=0.8)
        topo = runner.topology_for(key)
        assert topo.replication is ReplicationPolicy.FULL
        assert topo.page_policy is PagePolicy.ROUND_ROBIN
        assert topo.lab_threshold == 0.8

    def test_mcm_key_builds_mcm_system(self, runner):
        key = RunKey("KMEANS", Architecture.NUBA, mcm_modules=2)
        system = runner.build(key)
        assert hasattr(system, "egress")


class TestRunnerExecution:
    def test_run_caches(self, runner):
        key = RunKey("KMEANS")
        first = runner.run(key)
        count = runner.simulations_run
        second = runner.run(key)
        assert second is first
        assert runner.simulations_run == count

    def test_speedup_of_self(self, runner):
        key = RunKey("KMEANS")
        assert runner.speedup(key, key) == pytest.approx(1.0)

    def test_distinct_keys_rerun(self, runner):
        runner.run(RunKey("KMEANS"))
        count = runner.simulations_run
        runner.run(RunKey("KMEANS", Architecture.NUBA))
        assert runner.simulations_run == count + 1


class TestFigures:
    BENCHES = ["KMEANS", "AN"]

    def test_table2_renders(self):
        result = figures.table2_catalogue()
        assert len(result.rows) == 29
        assert "Table 2" in result.render()

    def test_fig7_shape(self, runner):
        result = figures.fig7_performance(runner, self.BENCHES)
        assert len(result.rows) == 2
        assert "nuba_improvement_all_pct" in result.summary

    def test_fig8_shape(self, runner):
        result = figures.fig8_bandwidth(runner, self.BENCHES)
        assert len(result.rows) == 2

    def test_fig9_uba_always_remote(self, runner):
        result = figures.fig9_miss_breakdown(runner, self.BENCHES)
        assert all(row[1] == "0.0%" for row in result.rows)

    def test_fig11_policies(self, runner):
        result = figures.fig11_page_allocation(runner, ["KMEANS"])
        assert "lab_vs_first_touch_pct" in result.summary

    def test_fig12_replication(self, runner):
        result = figures.fig12_replication(runner, ["AN"])
        assert len(result.rows) == 1

    def test_fig13_energy(self, runner):
        result = figures.fig13_energy(runner, ["KMEANS"])
        assert result.summary["mean_noc_energy_saving_pct"] > 0

    def test_render_contains_summary(self, runner):
        result = figures.fig7_performance(runner, ["KMEANS"],
                                          include_sm_side=False)
        text = result.render()
        assert "Figure 7" in text
        assert "nuba_improvement_all_pct" in text


class TestSweepFigures:
    """The sweep figures on a tiny machine: structure, not magnitudes."""

    def test_fig10_rows_and_power_monotonic(self, runner):
        result = figures.fig10_noc_power(runner, ["KMEANS"])
        assert len(result.rows) == 9  # 3 architectures x 3 NoC points
        # NoC power rises with NoC bandwidth for every architecture.
        for arch in ("UBA", "SM-UBA", "NUBA"):
            powers = [float(r[3]) for r in result.rows if r[0] == arch]
            assert powers == sorted(powers)

    def test_fig14_axes_present(self, runner):
        result = figures.fig14_sensitivity(runner, ["KMEANS"])
        axes = {row[0] for row in result.rows}
        assert axes == {
            "GPU size", "LLC slices/partition", "LLC capacity",
            "page size", "UBA address map", "LAB threshold",
        }

    def test_fig16_summary(self, runner):
        result = figures.fig16_mcm(runner, ["KMEANS"], modules=2)
        assert "monolithic_improvement_pct" in result.summary
        assert "mcm_improvement_pct" in result.summary

    def test_sec76_rows(self, runner):
        result = figures.sec76_alternatives(runner, ["KMEANS"])
        assert len(result.rows) == 1
        assert len(result.rows[0]) == 4


class TestRunnerErrorPaths:
    def test_kernel_timeout_raises(self, runner):
        """A too-small cycle budget surfaces as a clear error."""
        from repro.workloads.suite import get_benchmark

        key = RunKey("KMEANS")
        system = runner.build(key)
        workload = get_benchmark("KMEANS").instantiate(system.gpu)
        with pytest.raises(RuntimeError, match="did not finish"):
            system.run_workload(workload, max_cycles=64)

    def test_pae_uba_end_to_end(self, runner):
        from repro.config.topology import AddressMapKind
        key = RunKey("KMEANS", Architecture.MEM_SIDE_UBA,
                     address_map=AddressMapKind.PAE)
        result = runner.run(key)
        assert result.loads_completed > 0

    def test_large_pages_end_to_end(self, runner):
        key = RunKey("KMEANS", Architecture.NUBA, page_bytes=16384)
        result = runner.run(key)
        assert result.loads_completed > 0


class TestBenchPerfWorkCounters:
    """``bench-perf`` records how many ticks the engine ran and elided."""

    @staticmethod
    def _sim(strict):
        from repro.sim.engine import Component, Simulator

        class Busy(Component):
            def tick(self, now):
                return False

        class Sleepy(Component):
            def tick(self, now):
                return True

        sim = Simulator(strict=strict)
        sim.add(Busy("busy"))
        sim.add(Sleepy("sleepy"))
        sim.run(100)
        return sim

    def test_quiescent_run_splits_executed_and_elided(self):
        from repro.experiments.benchperf import work_counters
        counters = work_counters(self._sim(strict=False))
        # The busy component ticks every cycle, the sleepy one once.
        assert counters == {"ticks_executed": 101, "ticks_elided": 99,
                            "fast_forwarded_cycles": 0}

    def test_strict_run_elides_nothing(self):
        from repro.experiments.benchperf import work_counters
        counters = work_counters(self._sim(strict=True))
        assert counters == {"ticks_executed": 200, "ticks_elided": 0,
                            "fast_forwarded_cycles": 0}
