"""The simulated GPU system.

:class:`GPUSystem` assembles SMs, TLBs, LLC slices, memory controllers,
the driver and the interconnect into one simulation, executes workloads
kernel by kernel and produces a :class:`RunResult`. The architecture
specific request routing (memory-side UBA crossbar, SM-side UBA sides +
memory network, NUBA partition links + inter-partition NoC) is provided
by the subclasses in :mod:`repro.core.builders`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cache.l1 import L1Cache
from repro.cache.llc_slice import LLCSlice
from repro.cache.sampling import SetSampler
from repro.config.gpu import GPUConfig
from repro.config.topology import (
    Architecture,
    PagePolicy,
    ReplicationPolicy,
    TopologySpec,
)
from repro.core.bwmodel import BandwidthModel, ModelInputs
from repro.core.mdr import MDRController
from repro.driver.allocator import make_allocator
from repro.driver.driver import GpuDriver
from repro.driver.migration import PageMigrationManager
from repro.driver.page_replication import PageReplicationDriver
from repro.mem.controller import MemoryController
from repro.noc.power import CrossbarPowerModel, NoCEnergyAccount
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.power.energy import EnergyBreakdown, GPUEnergyModel
from repro.sim.engine import Simulator
from repro.sim.request import AccessKind, MemoryRequest, RequestTracker
from repro.sim.stats import StatsRegistry
from repro.sm.core import SMCore
from repro.sm.cta import DistributedCTAScheduler
from repro.vm.address_map import make_address_map
from repro.vm.tlb import L2TLB, MMU
from repro.vm.walker import WalkerPool

#: Default ceiling per kernel; scaled workloads finish far earlier.
DEFAULT_MAX_CYCLES = 2_000_000


@dataclass
class RunResult:
    """Everything the experiment harness needs from one simulation."""

    architecture: str
    cycles: int
    instructions: int
    loads_completed: int
    replies_per_cycle: float
    local_fraction: float
    llc_hit_rate: float
    llc_accesses: int
    dram_lines: int
    noc_bytes: int
    energy: EnergyBreakdown
    tracker: Dict[str, float]
    mdr_replication_epochs: int = 0
    pages_per_channel: List[int] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def speedup_over(self, baseline: "RunResult") -> float:
        """Speedup of this run relative to a baseline run."""
        if self.cycles == 0:
            raise ValueError("run did not execute any cycles")
        return baseline.cycles / self.cycles


class GPUSystem:
    """Base class for the three simulated architectures."""

    architecture = Architecture.MEM_SIDE_UBA  # overridden by subclasses

    #: Shared disabled tracer; :meth:`repro.obs.tracer.Tracer.bind`
    #: rebinds a live tracer onto the system and its components.
    tracer: Tracer = NULL_TRACER

    def __init__(self, gpu: GPUConfig, topo: TopologySpec,
                 strict: bool = False) -> None:
        topo.validate(gpu)
        self.gpu = gpu
        self.topo = topo
        #: ``strict=True`` disables quiescence skipping (the engine
        #: ticks every component every cycle); results are identical
        #: either way -- see docs/PERFORMANCE.md.
        self.sim = Simulator(strict=strict)
        self.stats: StatsRegistry = self.sim.stats
        self.tracker = RequestTracker()
        self.address_map = make_address_map(gpu, topo.address_map)
        self.noc_energy = NoCEnergyAccount()

        self._sms_per_partition = gpu.sms_per_partition
        self._slices_per_partition = gpu.slices_per_partition
        sm_home_channel = [
            sm // self._sms_per_partition for sm in range(gpu.num_sms)
        ]
        allocator = make_allocator(
            topo.page_policy,
            gpu.num_channels,
            sm_home_channel,
            topo.lab_threshold,
        )
        if topo.page_policy is PagePolicy.PAGE_REPLICATION:
            self.driver: GpuDriver = PageReplicationDriver(
                gpu, self.address_map, allocator,
                copy_lines=self._copy_page_lines,
            )
        else:
            self.driver = GpuDriver(gpu, self.address_map, allocator)
        #: Hoisted ``isinstance`` check for the per-request store hook.
        self._replication_driver: Optional[PageReplicationDriver] = (
            self.driver
            if isinstance(self.driver, PageReplicationDriver) else None
        )

        # Memory controllers.
        self.mcs: List[MemoryController] = [
            MemoryController(
                channel,
                gpu.memory,
                bank_of=self.address_map.bank_of_line,
                row_of=self._row_of_line,
                fill_sink=self._mc_fill_sink,
            )
            for channel in range(gpu.num_channels)
        ]

        # LLC slices.
        self.slices: List[LLCSlice] = [
            LLCSlice(s, gpu.llc_slice) for s in range(gpu.num_llc_slices)
        ]

        # SMs with their MMUs and L1 caches.
        l2_tlb = L2TLB(gpu.tlb.l2_entries, gpu.tlb.l2_ways, gpu.tlb.l2_latency)
        walkers = WalkerPool(gpu.tlb.page_walkers, gpu.tlb.walk_latency)
        self.sms: List[SMCore] = []
        for sm_id in range(gpu.num_sms):
            l1 = L1Cache(sm_id, gpu.l1)
            mmu = MMU(sm_id, gpu.tlb, l2_tlb, walkers, self.driver)
            self.sms.append(
                SMCore(sm_id, gpu, l1, mmu, self._sm_request_sink)
            )
        self.l2_tlb = l2_tlb
        self.walkers = walkers

        # MDR (meaningful for NUBA; harmless elsewhere).
        self.sampler = SetSampler(gpu.llc_slice.sets, gpu.llc_slice.ways)
        self.mdr = MDRController(
            model=BandwidthModel(ModelInputs.from_config(gpu)),
            sampler=self.sampler,
            policy=topo.replication,
        )
        self.sim.every(topo.mdr_epoch, self.mdr.on_epoch)

        # Optional page migration (Section 7.6 alternative).
        self.migration: Optional[PageMigrationManager] = None
        if topo.page_policy is PagePolicy.MIGRATION:
            partition_channel = list(range(gpu.num_partitions))
            self.migration = PageMigrationManager(
                self.driver, partition_channel, self._copy_page_lines
            )
            self.sim.every(self.migration.interval, self.migration.on_interval)

        # Architecture-specific interconnect + component registration.
        for sm in self.sms:
            self.sim.add(sm)
        self._build_interconnect()
        for llc_slice in self.slices:
            self.sim.add(llc_slice)
        for mc in self.mcs:
            self.sim.add(mc)

        self.energy_model = GPUEnergyModel(gpu)
        self.kernels_executed = 0
        #: True once any replica may exist in an LLC slice; cleared by
        #: the kernel-boundary flush. Lets kernels that never replicated
        #: skip the (expensive) LLC flush -- with no replicas there is
        #: nothing stale to invalidate (Section 5.3).
        self._replicas_since_flush = False

    # ------------------------------------------------------------------
    # Hooks for subclasses.
    # ------------------------------------------------------------------

    def _build_interconnect(self) -> None:
        raise NotImplementedError

    def _route_request(self, request: MemoryRequest) -> bool:
        """Architecture-specific path of an L1 miss toward the LLC."""
        raise NotImplementedError

    def _interconnect_pending(self) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared routing helpers.
    # ------------------------------------------------------------------

    def _row_of_line(self, line_addr: int) -> int:
        # One DRAM row covers 2 KB = 16 lines per bank in this model.
        return line_addr >> 4

    def partition_of_sm(self, sm_id: int) -> int:
        """The NUBA partition an SM belongs to."""
        return sm_id // self._sms_per_partition

    def partition_of_slice(self, slice_id: int) -> int:
        """The NUBA partition an LLC slice belongs to."""
        return slice_id // self._slices_per_partition

    def channel_of_slice(self, slice_id: int) -> int:
        """The memory channel co-located with an LLC slice."""
        return slice_id // self.gpu.slices_per_channel

    def _prepare_request(self, request: MemoryRequest) -> None:
        """Fill in routing metadata and update driver-side tracking."""
        channel, home_slice = self.address_map.route_of_line(
            request.line_addr
        )
        request.home_channel = channel
        request.home_slice = home_slice
        request.home_partition = channel
        request.src_partition = request.sm_id // self._sms_per_partition
        if request.vpage is not None:
            self.driver.note_access(request.vpage, request.sm_id)
            if self._replication_driver is not None:
                kind = request.kind
                # == kind.is_write, without the enum-property call.
                if kind is AccessKind.STORE or kind is AccessKind.ATOMIC:
                    self._replication_driver.note_store(request.vpage)

    def _sm_request_sink(self, request: MemoryRequest) -> bool:
        self._prepare_request(request)
        return self._route_request(request)

    def _deliver_to_sm(self, request: MemoryRequest) -> bool:
        """Final reply delivery; records bandwidth and latency statistics
        (the SM completes the request on a later tick, so the tracker
        takes the delivery cycle from the clock)."""
        if not self.sms[request.sm_id].deliver_reply(request):
            return False
        self.tracker.record(request, self.sim.cycle)
        return True

    def _mc_fill_sink(self, request: MemoryRequest) -> bool:
        """Route a completed memory read back to the slice that missed."""
        return self.slices[request.owner_slice].fill(request)

    def _copy_page_lines(self, vpage: int, src_channel: int,
                         dst_channel: int) -> None:
        """Charge page-copy traffic (migration/replication) to DRAM.

        Every line of the page is read on the source channel and written
        on the destination channel.
        """
        frame_src = self.driver.page_table.lookup(vpage)
        if frame_src is None:
            return
        for line in range(self.gpu.lines_per_page):
            addr = self.address_map.line_addr(frame_src, line)
            self.mcs[src_channel].enqueue_writeback(addr)
            self.mcs[dst_channel].enqueue_writeback(addr)

    # ------------------------------------------------------------------
    # Workload execution.
    # ------------------------------------------------------------------

    def run_kernel(self, kernel, max_cycles: int = DEFAULT_MAX_CYCLES) -> bool:
        """Execute one compiled kernel to completion.

        ``kernel`` provides ``num_ctas``, ``warps_per_cta``,
        ``warp_factory`` and ``read_only_spaces`` (see
        :class:`repro.workloads.benchmark.CompiledKernel`).
        """
        scheduler = DistributedCTAScheduler(
            kernel.num_ctas,
            self.gpu.num_sms,
            kernel.warps_per_cta,
            kernel.warp_factory,
        )
        start_cycle = self.sim.cycle
        for sm in self.sms:
            sm.start_kernel(
                scheduler, kernel.read_only_spaces, now=self.sim.cycle
            )
        finished = self.sim.run_until(self._drained, max_cycles=max_cycles)
        if self.tracer.enabled:
            self.tracer.emit_kernel(
                getattr(kernel, "name", "kernel"), start_cycle,
                self.sim.cycle, self.kernels_executed,
            )
        self._kernel_boundary()
        self.kernels_executed += 1
        return finished

    def run_workload(self, workload, max_cycles: int = DEFAULT_MAX_CYCLES) -> RunResult:
        """Execute every kernel of a workload and summarise the run."""
        for kernel in workload.compiled_kernels():
            completed = self.run_kernel(kernel, max_cycles=max_cycles)
            if not completed:
                raise RuntimeError(
                    f"kernel {kernel.name!r} did not finish within "
                    f"{max_cycles} cycles on {self.architecture.value}; "
                    f"diagnostics: {self.diagnostics()}"
                )
        return self.result()

    def diagnostics(self) -> Dict[str, int]:
        """A snapshot of where requests are sitting (stall debugging).

        Returned by the run-timeout error and usable interactively: a
        healthy drained system reports zeros everywhere.
        """
        busy_sms = sum(1 for sm in self.sms if not sm.drained)
        outstanding = sum(
            warp.outstanding
            for sm in self.sms
            for scheduler in sm.schedulers
            for warp in scheduler.warps
        )
        return {
            "cycle": self.sim.cycle,
            "busy_sms": busy_sms,
            "warp_loads_outstanding": outstanding,
            "interconnect_pending": self._interconnect_pending(),
            "slice_pending": sum(s.pending_work for s in self.slices),
            "slice_mshr_entries": sum(len(s.mshr) for s in self.slices),
            "mc_pending": sum(mc.pending for mc in self.mcs),
            "completed_loads": self.tracker.completed_loads,
        }

    def _drained(self) -> bool:
        for sm in self.sms:
            if not sm.drained:
                return False
        if self._interconnect_pending():
            return False
        for llc_slice in self.slices:
            if llc_slice.pending_work:
                return False
        for mc in self.mcs:
            if mc.pending:
                return False
        return True

    def _kernel_boundary(self) -> None:
        """Software coherence at kernel boundaries (Section 5.3)."""
        for sm in self.sms:
            sm.flush_l1()
        if (
            self.topo.replication is not ReplicationPolicy.NONE
            and self.architecture is Architecture.NUBA
            and self._replicas_since_flush
        ):
            # Replicated read-only data may become read-write in the next
            # kernel: flush the LLC and drain the writebacks (modelled
            # cost of the flush). Kernels during which MDR never enabled
            # replication cannot hold replicas and skip the flush.
            for llc_slice in self.slices:
                channel = self.channel_of_slice(llc_slice.slice_id)
                for line in llc_slice.flush():
                    self.mcs[channel].enqueue_writeback(line)
            self.sim.run_until(
                lambda: all(mc.pending == 0 for mc in self.mcs),
                max_cycles=200_000,
            )
            self._replicas_since_flush = False
        self.mdr.on_kernel_boundary()

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    def result(self) -> RunResult:
        """Summarise the run into a :class:`RunResult`."""
        cycles = self.sim.cycle
        instructions = sum(sm.instructions for sm in self.sms)
        llc_hits = sum(s.hits for s in self.slices)
        llc_accesses = sum(s.accesses for s in self.slices)
        dram_lines = sum(mc.lines_transferred for mc in self.mcs)
        noc_bytes = self._noc_bytes()
        noc_energy = self.noc_energy.total_energy(cycles)
        energy = self.energy_model.breakdown(
            cycles=cycles,
            instructions=instructions,
            l1_accesses=sum(
                sm.l1.load_hits + sm.l1.load_misses + sm.l1.stores
                for sm in self.sms
            ),
            llc_accesses=llc_accesses,
            dram_lines=dram_lines,
            noc_energy=noc_energy,
        )
        return RunResult(
            architecture=self.architecture.value,
            cycles=cycles,
            instructions=instructions,
            loads_completed=self.tracker.completed_loads,
            replies_per_cycle=self.tracker.replies_per_cycle(cycles),
            local_fraction=self.tracker.local_fraction,
            llc_hit_rate=(llc_hits / llc_accesses) if llc_accesses else 0.0,
            llc_accesses=llc_accesses,
            dram_lines=dram_lines,
            noc_bytes=noc_bytes,
            energy=energy,
            tracker=self.tracker.as_dict(),
            mdr_replication_epochs=self.mdr.replication_epochs,
            pages_per_channel=list(self.driver.pages_per_channel()),
        )

    def _noc_bytes(self) -> int:
        raise NotImplementedError

    def stats_snapshot(self) -> StatsRegistry:
        """Publish every component's counters into the shared registry.

        Writes the full per-component statistic set (SM issue/stall
        counters, L1 and LLC hit/miss breakdowns, queue high-water
        marks, DRAM service counts, TLB/walker activity, interconnect
        traffic) under hierarchical dotted names and returns the
        registry. This is the surface the quiescence equivalence suite
        compares field-by-field between default and ``strict=True``
        runs, so anything observable a skipped tick could perturb
        belongs here.
        """
        stats = self.stats
        set_ = stats.set
        for sm in self.sms:
            p = sm.name
            set_(f"{p}.instructions", sm.instructions)
            set_(f"{p}.loads_issued", sm.loads_issued)
            set_(f"{p}.loads_completed", sm.loads_completed)
            set_(f"{p}.stores_issued", sm.stores_issued)
            set_(f"{p}.stall_cycles", sm.stall_cycles)
            set_(f"{p}.barriers_completed", sm.barriers_completed)
            for scheduler in sm.schedulers:
                sp = f"{p}.sched{scheduler.scheduler_id}"
                set_(f"{sp}.issues", scheduler.issues)
                set_(f"{sp}.idle_cycles", scheduler.idle_cycles)
            set_(f"{p}.l1.load_hits", sm.l1.load_hits)
            set_(f"{p}.l1.load_misses", sm.l1.load_misses)
            set_(f"{p}.l1.stores", sm.l1.stores)
            set_(f"{p}.l1.flushes", sm.l1.flushes)
            set_(f"{p}.tlb.hits", sm.mmu.l1.hits)
            set_(f"{p}.tlb.misses", sm.mmu.l1.misses)
        for llc_slice in self.slices:
            p = llc_slice.name
            set_(f"{p}.hits", llc_slice.hits)
            set_(f"{p}.misses", llc_slice.misses)
            set_(f"{p}.local_accesses", llc_slice.local_accesses)
            set_(f"{p}.remote_accesses", llc_slice.remote_accesses)
            set_(f"{p}.replica_hits", llc_slice.replica_hits)
            set_(f"{p}.replica_fills", llc_slice.replica_fills)
            set_(f"{p}.writebacks", llc_slice.writebacks)
            set_(f"{p}.invalidations", llc_slice.invalidations)
            set_(f"{p}.port_cycles", llc_slice.port_cycles)
            set_(f"{p}.flush_ops", llc_slice.flush_ops)
            set_(f"{p}.mshr_entries", len(llc_slice.mshr))
            for queue in (llc_slice.lmr, llc_slice.rmr,
                          llc_slice.fill_queue):
                set_(f"{queue.name}.peak", queue.peak_occupancy)
                set_(f"{queue.name}.pushed", queue.total_pushed)
        for mc in self.mcs:
            p = mc.name
            set_(f"{p}.reads", mc.reads)
            set_(f"{p}.writes", mc.writes)
            set_(f"{p}.lines_transferred", mc.lines_transferred)
            set_(f"{p}.busy_cycles", mc.busy_cycles)
            set_(f"{p}.row_hits", sum(b.row_hits for b in mc.banks))
            set_(f"{p}.row_misses", sum(b.row_misses for b in mc.banks))
        set_("l2tlb.hits", self.l2_tlb.hits)
        set_("l2tlb.misses", self.l2_tlb.misses)
        set_("walkers.walks", self.walkers.walks)
        set_("noc.bytes", self._noc_bytes())
        set_("tracker.completed", self.tracker.completed)
        set_("tracker.completed_loads", self.tracker.completed_loads)
        set_("tracker.local", self.tracker.local)
        set_("tracker.remote", self.tracker.remote)
        set_("tracker.replica_hits", self.tracker.replica_hits)
        set_("tracker.llc_hits", self.tracker.llc_hits)
        set_("tracker.mem_accesses", self.tracker.mem_accesses)
        set_("tracker.total_latency", self.tracker.total_latency)
        set_("driver.pages_allocated", self.driver.pages_allocated)
        set_("mdr.epochs", len(self.mdr.decisions))
        set_("mdr.replication_epochs", self.mdr.replication_epochs)
        set_("sim.cycle", self.sim.cycle)
        return stats

    def sharing_histogram(self):
        """Page-sharing histogram (Figure 3 input)."""
        return self.driver.sharing_histogram()

    # ------------------------------------------------------------------
    # Structural audits.
    # ------------------------------------------------------------------

    def audit(self) -> List[str]:
        """Check conservation invariants on a drained system.

        Returns a list of violations (empty = clean). The key invariant:
        every load an SM issued was completed exactly once -- a request
        lost in a queue, misrouted to the wrong slice, or double-replied
        shows up here immediately.
        """
        problems: List[str] = []
        for sm in self.sms:
            if sm.loads_issued != sm.loads_completed:
                problems.append(
                    f"{sm.name}: {sm.loads_issued} loads issued but "
                    f"{sm.loads_completed} completed"
                )
        if not self._drained():
            problems.append("system not drained")
        for llc_slice in self.slices:
            if len(llc_slice.mshr):
                problems.append(
                    f"{llc_slice.name}: {len(llc_slice.mshr)} MSHR "
                    "entries leaked"
                )
        return problems
