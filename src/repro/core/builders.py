"""System builders for the three evaluated architectures (Figure 1).

* :class:`MemSideUBASystem` -- one big crossbar between all L1s and all
  LLC slices; slices are co-located with their memory controllers.
* :class:`SMSideUBASystem` -- two LLC partitions on the SM side (A100
  style): per-side crossbars, a memory network between slices and
  channels, and hardware coherence between the sides.
* :class:`NUBASystem` -- partitions with point-to-point local links and
  an inter-partition crossbar between LLC slices; LAB placement and MDR
  replication.
"""

from __future__ import annotations

from repro.config.gpu import GPUConfig
from repro.config.topology import Architecture, TopologySpec
from repro.core.system import GPUSystem
from repro.noc.crossbar import Crossbar
from repro.noc.p2p import PartitionLinks
from repro.noc.power import CrossbarPowerModel
from repro.sim.request import AccessKind, MemoryRequest


class MemSideUBASystem(GPUSystem):
    """Conventional memory-side UBA GPU (Figure 1a)."""

    architecture = Architecture.MEM_SIDE_UBA

    def _build_interconnect(self) -> None:
        gpu = self.gpu
        # Port clustering (Section 2): `cluster` endpoints share a port.
        self._cluster = gpu.noc.cluster
        ports = (gpu.num_sms + gpu.num_llc_slices) // self._cluster
        self.noc = Crossbar(
            "noc",
            ports=ports,
            port_bytes_per_cycle=gpu.noc.port_bytes_per_cycle,
            latency=gpu.noc.latency,
        )
        self.sim.add(self.noc)
        self._slice_port_base = gpu.num_sms // self._cluster
        for port in range(self._slice_port_base):
            self.noc.set_sink(port, self._deliver_to_sm)
        for port in range(self._slice_port_base, ports):
            self.noc.set_sink(port, self._noc_slice_sink)
        for s, llc_slice in enumerate(self.slices):
            llc_slice.reply_sink = self._make_slice_reply_sink(s)
            llc_slice.miss_sink = self._make_slice_miss_sink(s)
            llc_slice.writeback_sink = self.mcs[
                self.channel_of_slice(s)
            ].enqueue_writeback

        self.noc_energy.register_crossbar(
            "noc",
            CrossbarPowerModel(
                ports=ports,
                port_width_bytes=gpu.noc.port_bytes_per_cycle,
                stages=gpu.noc.stages,
            ),
            lambda: self.noc.bytes_transferred,
        )

    def _sm_port(self, sm_id: int) -> int:
        return sm_id // self._cluster

    def _slice_port(self, slice_id: int) -> int:
        return self._slice_port_base + slice_id // self._cluster

    def _noc_slice_sink(self, request: MemoryRequest) -> bool:
        """Deliver a request at a (possibly clustered) slice port; the
        target slice comes from the request's address metadata."""
        return self.slices[request.home_slice].accept_remote(request)

    def _make_slice_reply_sink(self, slice_id: int):
        port = self._slice_port(slice_id)

        def sink(request: MemoryRequest) -> bool:
            request.is_reply = True
            return self.noc.inject(
                port, self._sm_port(request.sm_id), request,
                request.kind.reply_bytes,
            )

        return sink

    def _make_slice_miss_sink(self, slice_id: int):
        mc = self.mcs[self.channel_of_slice(slice_id)]

        def sink(request: MemoryRequest) -> bool:
            request.owner_slice = slice_id
            return mc.enqueue(request)

        return sink

    def _route_request(self, request: MemoryRequest) -> bool:
        request.is_local = False
        return self.noc.inject(
            self._sm_port(request.sm_id),
            self._slice_port(request.home_slice),
            request,
            request.kind.request_bytes,
        )

    def _interconnect_pending(self) -> int:
        return self.noc.pending

    def _noc_bytes(self) -> int:
        return self.noc.bytes_transferred


class SMSideUBASystem(GPUSystem):
    """SM-side UBA GPU with two coherent LLC partitions (Figure 1b)."""

    architecture = Architecture.SM_SIDE_UBA

    #: Memory-network per-port width (bytes/cycle): generous so the
    #: slice-to-channel path is latency- not bandwidth-bound, as in the
    #: A100 where slices sit near the controllers.
    MEMNET_PORT_WIDTH = 64.0

    def _build_interconnect(self) -> None:
        gpu = self.gpu
        self.sides = self.topo.sm_side_partitions
        self.sms_per_side = gpu.num_sms // self.sides
        self.slices_per_side = gpu.num_llc_slices // self.sides

        side_ports = self.sms_per_side + self.slices_per_side
        self.side_xbars = []
        for side in range(self.sides):
            xbar = Crossbar(
                f"side{side}",
                ports=side_ports,
                port_bytes_per_cycle=gpu.noc.port_bytes_per_cycle,
                latency=gpu.noc.latency,
            )
            self.side_xbars.append(xbar)
            self.sim.add(xbar)

        self.memnet = Crossbar(
            "memnet",
            ports=gpu.num_llc_slices + gpu.num_channels,
            port_bytes_per_cycle=self.MEMNET_PORT_WIDTH,
            latency=gpu.noc.latency,
        )
        self.sim.add(self.memnet)

        for side in range(self.sides):
            xbar = self.side_xbars[side]
            for local_sm in range(self.sms_per_side):
                sm_id = side * self.sms_per_side + local_sm
                xbar.set_sink(local_sm, self._make_sm_sink(sm_id))
            for local_slice in range(self.slices_per_side):
                slice_id = side * self.slices_per_side + local_slice
                xbar.set_sink(
                    self.sms_per_side + local_slice,
                    self.slices[slice_id].accept_remote,
                )

        for s, llc_slice in enumerate(self.slices):
            llc_slice.reply_sink = self._make_slice_reply_sink(s)
            llc_slice.miss_sink = self._make_slice_miss_sink(s)
            llc_slice.writeback_sink = self._make_slice_writeback_sink(s)
            self.memnet.set_sink(s, self._make_memnet_slice_sink(s))
        for c in range(gpu.num_channels):
            self.memnet.set_sink(
                gpu.num_llc_slices + c, self._make_memnet_mc_sink(c)
            )

        side_model = CrossbarPowerModel(
            ports=side_ports,
            port_width_bytes=gpu.noc.port_bytes_per_cycle,
            stages=gpu.noc.stages,
        )
        for side, xbar in enumerate(self.side_xbars):
            self.noc_energy.register_crossbar(
                f"side{side}", side_model,
                lambda xb=xbar: xb.bytes_transferred,
            )
        self.noc_energy.register_crossbar(
            "memnet",
            CrossbarPowerModel(
                ports=self.memnet.ports,
                port_width_bytes=self.MEMNET_PORT_WIDTH,
                stages=1,
            ),
            lambda: self.memnet.bytes_transferred,
        )

        self.invalidations_sent = 0

    # -- helpers -------------------------------------------------------

    def _side_of_sm(self, sm_id: int) -> int:
        return sm_id // self.sms_per_side

    def _slice_for(self, line_addr: int, side: int) -> int:
        """Hash a line onto one of the side's slices.

        SM-side slices cache the whole address space, so the hash mixes
        channel and (already XOR-randomised) bank bits to spread pages
        evenly over the side's slices.
        """
        amap = self.address_map
        local = (
            amap.bank_of_line(line_addr) ^ amap.channel_of_line(line_addr)
        ) % self.slices_per_side
        return side * self.slices_per_side + local

    def _make_sm_sink(self, sm_id: int):
        def sink(request: MemoryRequest) -> bool:
            return self._deliver_to_sm(request)

        return sink

    def _make_slice_reply_sink(self, slice_id: int):
        side = slice_id // self.slices_per_side
        xbar = self.side_xbars[side]
        port = self.sms_per_side + slice_id % self.slices_per_side

        def sink(request: MemoryRequest) -> bool:
            request.is_reply = True
            local_sm = request.sm_id % self.sms_per_side
            return xbar.inject(port, local_sm, request, request.kind.reply_bytes)

        return sink

    def _make_slice_miss_sink(self, slice_id: int):
        def sink(request: MemoryRequest) -> bool:
            request.owner_slice = slice_id
            return self.memnet.inject(
                slice_id,
                self.gpu.num_llc_slices + request.home_channel,
                request,
                request.kind.request_bytes,
            )

        return sink

    def _make_slice_writeback_sink(self, slice_id: int):
        def sink(line_addr: int) -> bool:
            channel = self.address_map.channel_of_line(line_addr)
            return self.memnet.inject(
                slice_id,
                self.gpu.num_llc_slices + channel,
                ("wb", line_addr),
                16,
            )

        return sink

    def _make_memnet_mc_sink(self, channel: int):
        mc = self.mcs[channel]

        def sink(item) -> bool:
            if isinstance(item, tuple):
                return mc.enqueue_writeback(item[1])
            return mc.enqueue(item)

        return sink

    def _make_memnet_slice_sink(self, slice_id: int):
        llc_slice = self.slices[slice_id]

        def sink(item) -> bool:
            if isinstance(item, tuple):
                return llc_slice.invalidate(item[1])
            return llc_slice.fill(item)

        return sink

    def _mc_fill_sink(self, request: MemoryRequest) -> bool:
        return self.memnet.inject(
            self.gpu.num_llc_slices + request.home_channel,
            request.owner_slice,
            request,
            request.kind.reply_bytes,
        )

    # -- routing -------------------------------------------------------

    def _route_request(self, request: MemoryRequest) -> bool:
        request.is_local = False
        side = self._side_of_sm(request.sm_id)
        dest_slice = self._slice_for(request.line_addr, side)
        if request.kind.is_write:
            self._invalidate_other_sides(request.line_addr, side)
        xbar = self.side_xbars[side]
        return xbar.inject(
            request.sm_id % self.sms_per_side,
            self.sms_per_side + dest_slice % self.slices_per_side,
            request,
            request.kind.request_bytes,
        )

    def _invalidate_other_sides(self, line_addr: int, origin_side: int) -> None:
        """Hardware coherence: a store invalidates copies cached by the
        other LLC partitions (perfect-directory approximation)."""
        origin_slice = self._slice_for(line_addr, origin_side)
        for side in range(self.sides):
            if side == origin_side:
                continue
            mirror = self._slice_for(line_addr, side)
            if self.slices[mirror].array.probe(line_addr):
                self.memnet.inject(
                    origin_slice, mirror, ("inval", line_addr), 8
                )
                self.invalidations_sent += 1

    def _interconnect_pending(self) -> int:
        pending = self.memnet.pending
        for xbar in self.side_xbars:
            pending += xbar.pending
        return pending

    def _noc_bytes(self) -> int:
        total = self.memnet.bytes_transferred
        for xbar in self.side_xbars:
            total += xbar.bytes_transferred
        return total


class NUBASystem(GPUSystem):
    """The Non-Uniform Bandwidth Architecture (Figure 1c)."""

    architecture = Architecture.NUBA

    def _build_interconnect(self) -> None:
        gpu = self.gpu
        partitions = gpu.num_partitions
        link_width = gpu.local_link.partition_bytes_per_cycle(partitions)

        # Inter-partition NoC: one port per LLC slice (Section 3), or
        # one per `cluster` slices when clustered (Section 2).
        self._cluster = gpu.noc.cluster
        noc_ports = max(1, gpu.num_llc_slices // self._cluster)
        self.noc = Crossbar(
            "noc",
            ports=noc_ports,
            port_bytes_per_cycle=gpu.noc.port_bytes_per_cycle,
            latency=gpu.noc.latency,
        )
        self.sim.add(self.noc)

        # Point-to-point links inside each partition.
        self.partition_links = []
        for p in range(partitions):
            links = PartitionLinks(
                p,
                width_bytes=link_width,
                latency=gpu.local_link.latency,
                request_sink=self._make_partition_request_sink(p),
                reply_sink=self._deliver_to_sm,
            )
            self.partition_links.append(links)
            self.sim.add(links)

        for port in range(noc_ports):
            self.noc.set_sink(port, self._noc_delivery)
        for s, llc_slice in enumerate(self.slices):
            llc_slice.reply_sink = self._make_slice_reply_sink(s)
            llc_slice.miss_sink = self._make_slice_miss_sink(s)
            llc_slice.replica_miss_sink = self._make_replica_miss_sink(s)
            llc_slice.writeback_sink = self.mcs[
                self.channel_of_slice(s)
            ].enqueue_writeback

        self.noc_energy.register_crossbar(
            "noc",
            CrossbarPowerModel(
                ports=noc_ports,
                port_width_bytes=gpu.noc.port_bytes_per_cycle,
                stages=gpu.noc.stages,
            ),
            lambda: self.noc.bytes_transferred,
        )
        self.noc_energy.register_p2p(
            "p2p",
            lambda: sum(
                links.bytes_transferred for links in self.partition_links
            ),
        )

    # -- port helpers ---------------------------------------------------

    def _slice_port(self, slice_id: int) -> int:
        return slice_id // self._cluster

    def _partition_port(self, partition: int, home_slice: int) -> int:
        """NoC port inside ``partition`` used for traffic about
        ``home_slice`` (spreads load over the partition's slice ports)."""
        spp = self._slices_per_partition
        return self._slice_port(partition * spp + home_slice % spp)

    def _replica_slice(self, request: MemoryRequest) -> int:
        """The local slice that caches replicas of this line (a slice
        id, not a NoC port -- the two differ under port clustering)."""
        spp = self._slices_per_partition
        return (
            request.src_partition * spp + request.home_slice % spp
        )

    # -- sinks ----------------------------------------------------------

    def _make_partition_request_sink(self, partition: int):
        def sink(request: MemoryRequest) -> bool:
            if request.is_replica_access:
                replica = self._replica_slice(request)
                return self.slices[replica].accept_local(request)
            if request.home_partition == partition:
                return self.slices[request.home_slice].accept_local(request)
            # Remote: forward through the inter-partition NoC (Figure 5).
            src_port = self._partition_port(partition, request.home_slice)
            return self.noc.inject(
                src_port, self._slice_port(request.home_slice),
                request, request.kind.request_bytes,
            )

        return sink

    def _noc_delivery(self, request: MemoryRequest) -> bool:
        """Deliver a NoC packet; the endpoint comes from the request's
        metadata (port identity is insufficient under clustering)."""
        if not request.is_reply:
            return self.slices[request.home_slice].accept_remote(request)
        if request.is_replica_access:
            # Install the replica locally and release the local MSHR.
            return self.slices[self._replica_slice(request)].fill(request)
        return self.partition_links[request.src_partition].send_reply(
            request
        )

    def _make_slice_reply_sink(self, slice_id: int):
        partition = self.partition_of_slice(slice_id)

        def sink(request: MemoryRequest) -> bool:
            if request.src_partition == partition:
                return self.partition_links[partition].send_reply(request)
            request.is_reply = True
            dest = self._partition_port(
                request.src_partition, request.home_slice
            )
            return self.noc.inject(
                self._slice_port(slice_id), dest, request,
                request.kind.reply_bytes,
            )

        return sink

    def _make_slice_miss_sink(self, slice_id: int):
        mc = self.mcs[self.channel_of_slice(slice_id)]

        def sink(request: MemoryRequest) -> bool:
            request.owner_slice = slice_id
            return mc.enqueue(request)

        return sink

    def _make_replica_miss_sink(self, slice_id: int):
        def sink(request: MemoryRequest) -> bool:
            # The replica lookup missed: fetch from the home partition.
            request.is_local = False
            return self.noc.inject(
                self._slice_port(slice_id),
                self._slice_port(request.home_slice),
                request, request.kind.request_bytes,
            )

        return sink

    # -- routing ---------------------------------------------------------

    def _route_request(self, request: MemoryRequest) -> bool:
        src = request.src_partition
        local = request.home_partition == src
        if local:
            request.is_local = True
        elif (
            request.kind is AccessKind.LOAD_RO
            and self.mdr.replicate
        ):
            request.is_replica_access = True
            request.is_local = True  # flipped if the replica lookup misses
            self._replicas_since_flush = True
        self.sampler.observe(
            request.line_addr,
            home_is_sampled_slice=request.home_slice == 0,
            requester_in_sampled_partition=src == 0,
            is_read_only_shared=request.kind is AccessKind.LOAD_RO,
        )
        return self.partition_links[src].send_request(request)

    def _interconnect_pending(self) -> int:
        pending = self.noc.pending
        for links in self.partition_links:
            pending += links.pending
        return pending

    def _noc_bytes(self) -> int:
        return self.noc.bytes_transferred


def build_system(gpu: GPUConfig, topo: TopologySpec,
                 strict: bool = False) -> GPUSystem:
    """Factory: build the system matching ``topo.architecture``.

    ``strict=True`` builds the simulator with quiescence skipping
    disabled (every component ticks every cycle); results are
    identical, only slower -- see docs/PERFORMANCE.md.
    """
    if topo.architecture is Architecture.MEM_SIDE_UBA:
        return MemSideUBASystem(gpu, topo, strict=strict)
    if topo.architecture is Architecture.SM_SIDE_UBA:
        return SMSideUBASystem(gpu, topo, strict=strict)
    if topo.architecture is Architecture.NUBA:
        return NUBASystem(gpu, topo, strict=strict)
    raise ValueError(f"unknown architecture: {topo.architecture}")
