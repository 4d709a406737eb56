"""Busy-path cache registry (docs/PERFORMANCE.md, "Busy path").

The quiescence engine made *idle* cycles nearly free; three caches
attack the *busy* path instead: per-request Python work that
dominates saturated NUBA runs.  Each is result-neutral (the
equivalence arguments live next to each implementation and in
docs/PERFORMANCE.md):

* interning of deterministic warp instruction bodies
  (:mod:`repro.workloads.patterns`);
* a :class:`~repro.sim.request.MemoryRequest` freelist recycled at
  retirement (:mod:`repro.sim.request`);
* per-frame memoisation of channel/slice/bank routing
  (:mod:`repro.vm.address_map`).

Process-wide caches register a clearer here so :func:`reset` restores
a cold start (tests and the golden digests call it before each run);
per-object caches (the address-map memos) die with their owners.
"""

from __future__ import annotations

from typing import Callable, List


#: Clearers for every process-wide busy-path cache (interned bodies,
#: the request freelist); per-object caches (address-map memos) die
#: with their owners and need no registration.
_cache_clearers: List[Callable[[], None]] = []


#: Hot-path classes held to the `repro lint` hot-class contract
#: (H001/H002 in docs/LINT.md): must declare ``__slots__`` (or be a
#: dataclass, slotted on 3.10+ via ``_DATACLASS_KWARGS``) and must not
#: create attributes outside ``__init__``.  Entries are
#: ``"module:ClassName"``.  The registry lives next to the cache
#: registry on purpose: adding a busy-path cache and registering the
#: classes it touches happen in the same diff.
HOT_CLASSES = (
    "repro.sim.queues:BoundedQueue",
    "repro.sim.queues:DelayLine",
    "repro.sim.queues:BandwidthLink",
    "repro.sim.request:MemoryRequest",
    "repro.sim.request:RequestTracker",
    "repro.sim.stats:Histogram",
    "repro.sim.stats:StatsRegistry",
    "repro.sm.warp:Warp",
    "repro.sm.cta:CTA",
    "repro.sm.scheduler:GTOScheduler",
    "repro.mem.dram:Bank",
    "repro.vm.tlb:L1TLB",
    "repro.obs.profiler:_TickProxy",
)


def register_cache(clearer: Callable[[], None]) -> Callable[[], None]:
    """Register (and return) a cache clearer; usable as a decorator."""
    _cache_clearers.append(clearer)
    return clearer


def reset() -> None:
    """Drop the contents of every registered busy-path cache."""
    for clearer in _cache_clearers:
        clearer()

