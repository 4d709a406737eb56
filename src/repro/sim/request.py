"""Memory requests and packets.

A :class:`MemoryRequest` models one cache-line sized (128 B) memory access
travelling through the hierarchy: L1 miss -> (local link | NoC) -> LLC slice
-> (hit | memory controller) -> reply. Request packets carry only the
address (8 B control) while write packets carry address plus data (16 B);
reply packets carry a full line plus control (136 B). These sizes follow
Section 6 of the paper.
"""

from __future__ import annotations

import enum
import itertools
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.sim import fastlane

#: Cache line size in bytes used throughout the model (Table 1: 128 B block).
LINE_BYTES = 128

#: Size of a read request packet on a link (address + control).
READ_REQUEST_BYTES = 8

#: Size of a write request packet on a link (address + data header).
WRITE_REQUEST_BYTES = 16

#: Size of a reply packet (128 B data + 8 B control), Section 6.
REPLY_BYTES = 136


class AccessKind(enum.Enum):
    """Kind of memory access issued by an SM."""

    LOAD = "load"
    STORE = "store"
    #: Load marked read-only by the compiler (``ld.global.ro``, Section 5.2).
    LOAD_RO = "load_ro"
    #: Atomic read-modify-write, executed by the raster-operation units
    #: at the LLC slices (Section 5.3, [1, 33]); bypasses the L1, returns
    #: the old value, and is never replicated (read-write by definition).
    ATOMIC = "atomic"

    @property
    def is_load(self) -> bool:
        """True for accesses whose reply carries data back to the warp."""
        return self is not AccessKind.STORE

    @property
    def is_read_only(self) -> bool:
        return self is AccessKind.LOAD_RO

    @property
    def is_write(self) -> bool:
        """True for accesses that modify the line (coherence actions)."""
        return self in (AccessKind.STORE, AccessKind.ATOMIC)


_req_ids = itertools.count()

#: Per-kind packet sizes, precomputed so the hot ``request_bytes`` /
#: ``reply_bytes`` properties are a single dict probe instead of a
#: chain of enum-property checks.
_KIND_REQUEST_BYTES = {
    AccessKind.LOAD: READ_REQUEST_BYTES,
    AccessKind.LOAD_RO: READ_REQUEST_BYTES,
    AccessKind.STORE: WRITE_REQUEST_BYTES,
    AccessKind.ATOMIC: WRITE_REQUEST_BYTES,
}
_KIND_REPLY_BYTES = {
    AccessKind.LOAD: REPLY_BYTES,
    AccessKind.LOAD_RO: REPLY_BYTES,
    AccessKind.STORE: READ_REQUEST_BYTES,
    AccessKind.ATOMIC: WRITE_REQUEST_BYTES,
}

#: ``dataclass(slots=True)`` needs Python 3.10; on 3.9 requests fall
#: back to __dict__ storage (slower, same behaviour).
_DATACLASS_KWARGS = (
    {"eq": False, "slots": True}
    if sys.version_info >= (3, 10) else {"eq": False}
)


@dataclass(**_DATACLASS_KWARGS)
class MemoryRequest:
    """One line-granularity memory request.

    Attributes mirror the metadata a real request would carry plus
    book-keeping used for statistics (issue/completion cycles, whether the
    request was served locally, and at which level it hit). Slotted:
    requests are the highest-churn objects in the model (one per L1 miss)
    and every hop reads several fields.
    """

    kind: AccessKind
    line_addr: int  # physical address of the 128 B line
    sm_id: int
    req_id: int = field(default_factory=lambda: next(_req_ids))
    vpage: Optional[int] = None  # virtual page number (for sharing stats)

    # Routing metadata filled in by the address map / system router.
    home_slice: int = -1  # LLC slice the line maps to
    home_channel: int = -1  # memory channel the line maps to
    #: Slice whose MSHR holds this request while it is at a memory
    #: controller (differs from home_slice in SM-side UBA, where any
    #: slice can cache any address).
    owner_slice: int = -1
    src_partition: int = -1  # partition of the issuing SM
    home_partition: int = -1  # partition owning the line

    #: True when the request is served by the issuing SM's own partition
    #: (NUBA) or by the SM-side LLC partition (SM-side UBA).
    is_local: bool = False
    #: True when MDR routed this read-only request to the local slice to
    #: create/use a replica (Section 5.2).
    is_replica_access: bool = False
    #: Direction flag while travelling on a shared network: False on the
    #: request path, True once the reply is heading back to the SM.
    is_reply: bool = False

    # Statistics.
    issue_cycle: int = 0
    complete_cycle: int = -1
    hit_level: str = ""  # "l1", "llc", "mem"

    # Completion callback, set by the SM when the request is created.
    on_complete: Optional[Callable[["MemoryRequest"], None]] = None

    @property
    def request_bytes(self) -> int:
        """Bytes this request occupies on a request link (writes carry
        address + data/operand, reads address + control only)."""
        return _KIND_REQUEST_BYTES[self.kind]

    @property
    def reply_bytes(self) -> int:
        """Bytes the reply occupies on a reply link: a full line for
        loads, the old value for atomics, a control-only ack for
        stores."""
        return _KIND_REPLY_BYTES[self.kind]

    @property
    def needs_reply_data(self) -> bool:
        return self.kind is not AccessKind.STORE

    def complete(self, cycle: int) -> None:
        """Mark the request finished and invoke the SM callback."""
        self.complete_cycle = cycle
        if self.on_complete is not None:
            self.on_complete(self)

    @property
    def latency(self) -> int:
        if self.complete_cycle < 0:
            raise ValueError("request not complete yet")
        return self.complete_cycle - self.issue_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryRequest(id={self.req_id}, {self.kind.value}, "
            f"line=0x{self.line_addr:x}, sm={self.sm_id}, "
            f"slice={self.home_slice}, local={self.is_local})"
        )


# ----------------------------------------------------------------------
# Request freelist (a busy-path cache, docs/PERFORMANCE.md).
#
# Requests are the highest-churn objects in the model (one per L1 miss,
# millions per run); recycling them at retirement removes the
# allocation/GC pressure.  Equivalence argument: ``acquire`` resets
# every field to exactly what the dataclass constructor would produce
# and draws a fresh ``req_id`` from the *shared* counter, so the id
# stream -- which appears in tracer events -- is the one the constructor
# alone would produce.  Release happens only at retirement points where
# no component holds a reference any more (SM load/atomic completion,
# LLC store write-validate, MC writeback scheduling).
# ----------------------------------------------------------------------

_pool: List[MemoryRequest] = []

#: Upper bound on pooled requests; beyond this, retired requests are
#: left to the garbage collector (in-flight populations are far
#: smaller in practice).
_POOL_LIMIT = 8192


def acquire(kind: AccessKind, line_addr: int, sm_id: int,
            vpage: Optional[int] = None) -> MemoryRequest:
    """A fresh request, recycled from the pool when one is available.

    NOTE: ``repro.sm.core.SMCore._issue_mem`` inlines this body on the
    issue hot path -- keep the field resets there in sync when the
    dataclass changes.
    """
    if _pool:
        request = _pool.pop()
        request.kind = kind
        request.line_addr = line_addr
        request.sm_id = sm_id
        request.req_id = next(_req_ids)
        request.vpage = vpage
        request.home_slice = -1
        request.home_channel = -1
        request.owner_slice = -1
        request.src_partition = -1
        request.home_partition = -1
        request.is_local = False
        request.is_replica_access = False
        request.is_reply = False
        request.issue_cycle = 0
        request.complete_cycle = -1
        request.hit_level = ""
        request.on_complete = None
        return request
    return MemoryRequest(kind, line_addr, sm_id, vpage=vpage)


def release(request: MemoryRequest) -> None:
    """Return a retired request to the pool (no-op when the pool is
    full)."""
    if len(_pool) < _POOL_LIMIT:
        request.on_complete = None
        _pool.append(request)


@fastlane.register_cache
def _clear_pool() -> None:
    _pool.clear()


class RequestTracker:
    """Aggregates completion statistics for a stream of requests.

    Used by the system model to produce the Figure 8 (replies per cycle)
    and Figure 9 (local versus remote L1-miss breakdown) style numbers.
    """

    __slots__ = ("completed", "completed_loads", "local", "remote",
                 "replica_hits", "total_latency", "llc_hits",
                 "mem_accesses")

    def __init__(self) -> None:
        self.completed = 0
        self.completed_loads = 0
        self.local = 0
        self.remote = 0
        self.replica_hits = 0
        self.total_latency = 0
        self.llc_hits = 0
        self.mem_accesses = 0

    def record(self, request: MemoryRequest) -> None:
        """Fold one completed request into the aggregates."""
        self.completed += 1
        if request.kind.is_load:
            self.completed_loads += 1
        if request.is_local:
            self.local += 1
        else:
            self.remote += 1
        if request.is_replica_access and request.hit_level == "llc":
            self.replica_hits += 1
        if request.hit_level == "llc":
            self.llc_hits += 1
        elif request.hit_level == "mem":
            self.mem_accesses += 1
        if request.complete_cycle >= 0:
            self.total_latency += request.complete_cycle - request.issue_cycle

    @property
    def mean_latency(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.total_latency / self.completed

    @property
    def local_fraction(self) -> float:
        total = self.local + self.remote
        if total == 0:
            return 0.0
        return self.local / total

    def replies_per_cycle(self, cycles: int) -> float:
        """Effective memory bandwidth perceived by the SMs (Figure 8)."""
        if cycles <= 0:
            return 0.0
        return self.completed_loads / cycles

    def as_dict(self) -> dict:
        """The aggregates as a plain dict (reporting)."""
        return {
            "completed": self.completed,
            "local": self.local,
            "remote": self.remote,
            "local_fraction": self.local_fraction,
            "llc_hits": self.llc_hits,
            "mem_accesses": self.mem_accesses,
            "replica_hits": self.replica_hits,
            "mean_latency": self.mean_latency,
        }
