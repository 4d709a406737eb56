"""NUBA intra-partition point-to-point links (Sections 2-3).

Within a partition, the SMs' L1 caches reach the local LLC slices through
low-complexity point-to-point links: no input buffers or virtual channels,
routing by address bits on the L1 side and a round-robin arbiter on the
LLC side. We model one request link and one reply link per partition,
each with the partition's share of the 2.8 TB/s aggregate local bandwidth.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Component
from repro.sim.queues import BandwidthLink
from repro.sim.request import MemoryRequest


class PartitionLinks(Component):
    """Request + reply links for one NUBA partition."""

    def __init__(
        self,
        partition_id: int,
        width_bytes: float,
        latency: int,
        request_sink: Callable[[MemoryRequest], bool],
        reply_sink: Callable[[MemoryRequest], bool],
        capacity: int = 64,
    ) -> None:
        super().__init__(f"p2p{partition_id}")
        self.partition_id = partition_id
        self.request_link: BandwidthLink[MemoryRequest] = BandwidthLink(
            width_bytes,
            latency,
            request_sink,
            capacity=capacity,
            name=f"{self.name}.req",
        )
        self.reply_link: BandwidthLink[MemoryRequest] = BandwidthLink(
            width_bytes,
            latency,
            reply_sink,
            capacity=capacity,
            name=f"{self.name}.rep",
        )

    def send_request(self, request: MemoryRequest) -> bool:
        """Queue a request on the SM-to-LLC direction."""
        if not self._awake:
            self.wake()
        # == request.request_bytes, without the property call (hot path).
        size = request.kind.request_bytes
        accepted = self.request_link.push(request, size)
        if accepted and self.tracer.enabled:
            self.tracer.emit_hop(
                self.tracer.clock(), f"{self.name}.req",
                request.sm_id, request.home_slice,
                size, request,
            )
        return accepted

    def send_reply(self, request: MemoryRequest) -> bool:
        """Queue a reply on the LLC-to-SM direction."""
        if not self._awake:
            self.wake()
        # == request.reply_bytes, without the property call (hot path).
        size = request.kind.reply_bytes
        accepted = self.reply_link.push(request, size)
        if accepted and self.tracer.enabled:
            self.tracer.emit_hop(
                self.tracer.clock(), f"{self.name}.rep",
                request.home_slice, request.sm_id,
                size, request,
            )
        return accepted

    def tick(self, now: int) -> bool:
        # A direction with nothing queued only clamps credit on a tick
        # (when also nothing is deliverable yet, the delivery loop is a
        # no-op too), so inline those no-op shapes and skip the call.
        request_link = self.request_link
        if request_link.input._items:
            request_link.tick(now)
        else:
            in_flight = request_link._in_flight
            if in_flight and in_flight[0][0] <= now:
                request_link.tick(now)
            elif request_link._credit > request_link.width_bytes:
                request_link._credit = request_link.width_bytes
        reply_link = self.reply_link
        if reply_link.input._items:
            reply_link.tick(now)
        else:
            in_flight = reply_link._in_flight
            if in_flight and in_flight[0][0] <= now:
                reply_link.tick(now)
            elif reply_link._credit > reply_link.width_bytes:
                reply_link._credit = reply_link.width_bytes
        # Sleep verdict: both directions drained (nothing queued or in
        # flight).  A direction whose input held a packet at the start
        # of this tick still holds it, queued or in flight, so a True
        # verdict means both inputs were empty and the branches above
        # already applied the idle-cycle credit clamp.
        return not (
            request_link.input._items
            or request_link._in_flight
            or reply_link.input._items
            or reply_link._in_flight
        )

    @property
    def pending(self) -> int:
        return self.request_link.pending + self.reply_link.pending

    @property
    def bytes_transferred(self) -> int:
        return (
            self.request_link.bytes_transferred
            + self.reply_link.bytes_transferred
        )
