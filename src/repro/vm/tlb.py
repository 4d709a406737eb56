"""Two-level TLB hierarchy and the per-SM MMU front-end (Section 6).

Each SM owns a private fully-associative L1 TLB; all SMs share a
set-associative L2 TLB. L2 misses are serviced by the shared
:class:`~repro.vm.walker.WalkerPool`; walks that find the page unmapped
raise a page fault which is resolved by the GPU driver (first-touch
allocation) at a fixed penalty.

Translation is modelled as a latency charged to the requesting warp rather
than as explicit packets, which keeps the model fast while still pricing
TLB locality and walker contention.

The MMU delegates translation decisions to a *translation provider* (the
GPU driver): ``lookup_translation`` for mapped pages, ``handle_fault`` for
first-touch allocation, and a ``translation_generation`` counter for
coarse TLB shootdown (page migration, Section 7.6). Page-replication
drivers translate per partition, so TLB entries are keyed by a
driver-provided key rather than the raw virtual page.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Tuple

from repro.config.gpu import TLBConfig
from repro.vm.walker import WalkerPool


class TranslationProvider:
    """Interface the GPU driver implements for the MMUs."""

    def lookup_translation(self, vpage: int, sm_id: int):
        """Return the physical frame or ``None`` when unmapped."""
        raise NotImplementedError

    def handle_fault(self, vpage: int, sm_id: int) -> int:
        """First-touch allocate; returns the physical frame."""
        raise NotImplementedError

    @property
    def translation_generation(self) -> int:
        """Bumped whenever existing translations change (shootdown)."""
        return 0

    def translation_key(self, vpage: int, sm_id: int) -> int:
        """TLB tag for this translation (per-partition for replication)."""
        return vpage

    def translation_key_params(self, sm_id: int):
        """Affine description of :meth:`translation_key` for one SM.

        Returns ``(stride, offset)`` such that
        ``translation_key(vpage, sm_id) == vpage * stride + offset``, or
        ``None`` when the key is not affine in the virtual page.  The
        MMU hoists these two constants at construction so the translate
        hot path computes the key inline instead of calling back into
        the provider for every access.  Providers overriding
        :meth:`translation_key` with a non-affine scheme must override
        this to return ``None``.
        """
        if type(self).translation_key is TranslationProvider.translation_key:
            return (1, 0)
        return None


class L1TLB:
    """Per-SM fully-associative TLB with LRU replacement."""

    __slots__ = ("entries", "_map", "hits", "misses")

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._map: "OrderedDict[int, int]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: int) -> Tuple[bool, int]:
        """Probe the TLB; (hit, frame)."""
        frame = self._map.get(key)
        if frame is None:
            self.misses += 1
            return False, -1
        self._map.move_to_end(key)
        self.hits += 1
        return True, frame

    def fill(self, key: int, frame: int) -> None:
        """Install/refresh a translation (single-lookup path: a pop of
        an existing key followed by reinsertion at the MRU end is
        exactly the old update + ``move_to_end``; eviction only
        happens when the key was absent and the TLB full)."""
        tlb_map = self._map
        if tlb_map.pop(key, None) is None and len(tlb_map) >= self.entries:
            tlb_map.popitem(last=False)
        tlb_map[key] = frame

    def flush(self) -> None:
        """Invalidate every entry."""
        self._map.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


class L2TLB:
    """Shared set-associative TLB with LRU replacement per set."""

    def __init__(self, entries: int, ways: int, latency: int) -> None:
        if entries % ways:
            raise ValueError("entries must divide evenly into ways")
        self.sets = entries // ways
        self.ways = ways
        self.latency = latency
        self._sets: Dict[int, "OrderedDict[int, int]"] = {}
        self.hits = 0
        self.misses = 0

    def _set_for(self, key: int) -> "OrderedDict[int, int]":
        index = key % self.sets
        tlb_set = self._sets.get(index)
        if tlb_set is None:
            tlb_set = OrderedDict()
            self._sets[index] = tlb_set
        return tlb_set

    def lookup(self, key: int) -> Tuple[bool, int]:
        """Probe the TLB; (hit, frame)."""
        tlb_set = self._set_for(key)
        frame = tlb_set.get(key)
        if frame is None:
            self.misses += 1
            return False, -1
        tlb_set.move_to_end(key)
        self.hits += 1
        return True, frame

    def fill(self, key: int, frame: int) -> None:
        """Install/refresh a translation (single-lookup path, same
        argument as :meth:`L1TLB.fill`)."""
        tlb_set = self._set_for(key)
        if tlb_set.pop(key, None) is None and len(tlb_set) >= self.ways:
            tlb_set.popitem(last=False)
        tlb_set[key] = frame

    def flush(self) -> None:
        """Invalidate every entry."""
        self._sets.clear()


class MMU:
    """Per-SM translation front-end.

    ``translate`` returns ``(ready_cycle, frame)``: the cycle at which the
    translation is available and the physical frame. First-touch faults
    call the driver's allocation hook and charge the page-fault penalty.
    """

    def __init__(
        self,
        sm_id: int,
        config: TLBConfig,
        l2: L2TLB,
        walkers: WalkerPool,
        provider: TranslationProvider,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.l1 = L1TLB(config.l1_entries)
        self.l2 = l2
        self.walkers = walkers
        self.provider = provider
        self._generation = provider.translation_generation
        self.page_faults = 0
        # Hoisted config reads for the translate hot path.
        self._l1_latency = config.l1_latency
        self._l1_l2_latency = config.l1_latency + config.l2_latency
        #: ``(stride, offset)`` when the provider's translation key is
        #: affine in the vpage (the common case); None forces the
        #: per-call ``translation_key`` callback.
        self._key_params = provider.translation_key_params(sm_id)

    def translate(self, vpage: int, now: int) -> Tuple[int, int]:
        """Translate a virtual page; returns (ready_cycle, frame)."""
        provider = self.provider
        # Coarse TLB shootdown: flush on any translation-generation bump
        # (page migration and replica collapse, Section 7.6).
        if provider.translation_generation != self._generation:
            self.l1.flush()
            self.l2.flush()
            self._generation = provider.translation_generation
        params = self._key_params
        if params is not None:
            key = vpage * params[0] + params[1]
        else:
            key = provider.translation_key(vpage, self.sm_id)
        l1 = self.l1
        hit, frame = l1.lookup(key)
        if hit:
            return now + self._l1_latency, frame

        latency = self._l1_l2_latency
        hit, frame = self.l2.lookup(key)
        if hit:
            l1.fill(key, frame)
            return now + latency, frame

        # L2 miss: walk the page table.
        walk_done = self.walkers.schedule(now + latency)
        frame = self.provider.lookup_translation(vpage, self.sm_id)
        if frame is None:
            # Page fault: the driver allocates the page (first touch).
            frame = self.provider.handle_fault(vpage, self.sm_id)
            walk_done += self.config.page_fault_cycles
            self.page_faults += 1
        self.l2.fill(key, frame)
        self.l1.fill(key, frame)
        return walk_done, frame

    def flush(self) -> None:
        """Flush the private L1 TLB (kernel boundary)."""
        self.l1.flush()
