"""Virtual-memory tests: page table, TLBs, walkers and the MMU."""

import random
from collections import OrderedDict

import pytest

from repro.config.gpu import TLBConfig
from repro.vm.page_table import PageTable
from repro.vm.tlb import L1TLB, L2TLB, MMU, TranslationProvider
from repro.vm.walker import WalkerPool


class TestPageTable:
    def test_install_and_lookup(self):
        pt = PageTable()
        pt.install(5, 100)
        assert pt.lookup(5) == 100
        assert pt.lookup(6) is None
        assert 5 in pt and len(pt) == 1

    def test_double_install_rejected(self):
        pt = PageTable()
        pt.install(1, 10)
        with pytest.raises(KeyError):
            pt.install(1, 11)

    def test_remap_bumps_generation(self):
        pt = PageTable()
        pt.install(1, 10)
        generation = pt.generation
        pt.remap(1, 20)
        assert pt.lookup(1) == 20
        assert pt.generation == generation + 1
        assert pt.remaps == 1

    def test_remap_unmapped_rejected(self):
        with pytest.raises(KeyError):
            PageTable().remap(1, 10)


class TestL1TLB:
    def test_hit_after_fill(self):
        tlb = L1TLB(4)
        assert tlb.lookup(1) == (False, -1)
        tlb.fill(1, 10)
        assert tlb.lookup(1) == (True, 10)

    def test_lru_eviction(self):
        tlb = L1TLB(2)
        tlb.fill(1, 10)
        tlb.fill(2, 20)
        tlb.lookup(1)
        tlb.fill(3, 30)  # evicts 2 (LRU)
        assert tlb.lookup(2) == (False, -1)
        assert tlb.lookup(1)[0] and tlb.lookup(3)[0]

    def test_flush(self):
        tlb = L1TLB(4)
        tlb.fill(1, 10)
        tlb.flush()
        assert tlb.lookup(1) == (False, -1)

    def test_hit_refreshes_lru_order(self):
        tlb = L1TLB(2)
        tlb.fill(1, 10)
        tlb.fill(2, 20)
        assert tlb.lookup(2) == (True, 20)  # already most recent
        tlb.fill(3, 30)  # must evict 1 (the true LRU), not 2
        assert tlb.lookup(1) == (False, -1)
        assert tlb.lookup(2) == (True, 20)

    def test_hit_accounting_exact(self):
        tlb = L1TLB(4)
        tlb.fill(1, 10)
        tlb.lookup(1)
        tlb.lookup(1)
        tlb.lookup(2)
        assert (tlb.hits, tlb.misses) == (2, 1)

    def test_matches_ordered_dict_lru_model(self):
        """A seeded random lookup/fill/flush stream: every probe result,
        the hit/miss counters and the resident set (hence every
        eviction) match a plain OrderedDict LRU."""
        rng = random.Random(7)
        entries = 4
        tlb = L1TLB(entries)
        model: "OrderedDict[int, int]" = OrderedDict()
        hits = misses = evictions = 0
        for step in range(5000):
            op = rng.random()
            key = rng.randrange(10)
            if op < 0.6:
                expected = (key in model, model.get(key, -1))
                if key in model:
                    model.move_to_end(key)
                    hits += 1
                else:
                    misses += 1
                assert tlb.lookup(key) == expected, step
            elif op < 0.98:
                frame = rng.randrange(1000)
                if key in model:
                    del model[key]
                elif len(model) >= entries:
                    model.popitem(last=False)
                    evictions += 1
                model[key] = frame
                tlb.fill(key, frame)
            else:
                model.clear()
                tlb.flush()
            assert list(tlb._map.items()) == list(model.items()), step
        assert (tlb.hits, tlb.misses) == (hits, misses)
        assert evictions > 100 and hits > 100 and misses > 100


class TestL2TLB:
    def test_set_associative_eviction(self):
        tlb = L2TLB(entries=4, ways=2, latency=10)  # 2 sets
        # Keys 0, 2, 4 all map to set 0.
        tlb.fill(0, 1)
        tlb.fill(2, 2)
        tlb.fill(4, 3)  # evicts key 0
        assert tlb.lookup(0) == (False, -1)
        assert tlb.lookup(2)[0] and tlb.lookup(4)[0]

    def test_entries_must_divide(self):
        with pytest.raises(ValueError):
            L2TLB(entries=5, ways=2, latency=1)


class TestWalkerPool:
    def test_walk_latency(self):
        pool = WalkerPool(2, walk_latency=100)
        assert pool.schedule(0) == 100

    def test_concurrency_limit_serialises(self):
        pool = WalkerPool(2, walk_latency=100)
        assert pool.schedule(0) == 100
        assert pool.schedule(0) == 100
        # Third walk waits for the earliest walker to free up.
        assert pool.schedule(0) == 200
        assert pool.total_queue_delay == 100

    def test_walkers_free_over_time(self):
        pool = WalkerPool(1, walk_latency=10)
        pool.schedule(0)
        assert pool.schedule(50) == 60  # walker idle again

    def test_needs_a_walker(self):
        with pytest.raises(ValueError):
            WalkerPool(0, 10)


class FakeDriver(TranslationProvider):
    """Minimal driver: sequential frames, tracks faults."""

    def __init__(self):
        self.table = {}
        self.next_frame = 0
        self.faults = 0
        self._generation = 0

    def lookup_translation(self, vpage, sm_id):
        return self.table.get(vpage)

    def handle_fault(self, vpage, sm_id):
        self.faults += 1
        self.table[vpage] = self.next_frame
        self.next_frame += 1
        return self.table[vpage]

    @property
    def translation_generation(self):
        return self._generation


def _mmu(config=None, driver=None):
    config = config or TLBConfig(
        l1_entries=4, l2_entries=8, l2_ways=2, l2_latency=10,
        page_walkers=2, walk_latency=50, page_fault_cycles=1000,
    )
    driver = driver or FakeDriver()
    l2 = L2TLB(config.l2_entries, config.l2_ways, config.l2_latency)
    walkers = WalkerPool(config.page_walkers, config.walk_latency)
    return MMU(0, config, l2, walkers, driver), driver


class TestMMU:
    def test_first_touch_pays_fault(self):
        mmu, driver = _mmu()
        ready, frame = mmu.translate(7, now=0)
        assert driver.faults == 1
        assert frame == 0
        # l1 + l2 latency + walk + fault penalty.
        assert ready == 1 + 10 + 50 + 1000

    def test_l1_tlb_hit_is_fast(self):
        mmu, _ = _mmu()
        mmu.translate(7, now=0)
        ready, frame = mmu.translate(7, now=2000)
        assert ready == 2001  # 1-cycle L1 TLB hit
        assert frame == 0

    def test_l2_hit_after_l1_eviction(self):
        mmu, _ = _mmu()
        for vpage in range(5):  # L1 TLB holds 4: vpage 0 evicted
            mmu.translate(vpage, now=0)
        ready, _ = mmu.translate(0, now=10_000)
        # L1 miss + L2 hit: no walk (vpage 0 still in the 8-entry L2).
        assert ready == 10_000 + 1 + 10

    def test_shootdown_on_generation_bump(self):
        mmu, driver = _mmu()
        mmu.translate(7, now=0)
        driver.table[7] = 99
        driver._generation += 1
        _, frame = mmu.translate(7, now=5000)
        assert frame == 99  # stale entry flushed, re-walked

    def test_shootdown_after_warm_l1_hit(self):
        """A warm L1 entry must never serve a frame across a
        translation-generation bump (TLB shootdown)."""
        mmu, driver = _mmu()
        mmu.translate(7, now=0)
        ready, frame = mmu.translate(7, now=100)
        assert (ready, frame) == (101, 0)  # warm 1-cycle L1 hit
        driver.table[7] = 99
        driver._generation += 1
        _, frame = mmu.translate(7, now=5000)
        assert frame == 99  # stale entry flushed with the rest
        assert mmu.l1.lookup(7) == (True, 99)  # refilled from the walk

    def test_kernel_boundary_flush_keeps_l2(self):
        mmu, driver = _mmu()
        mmu.translate(7, now=0)
        mmu.flush()
        ready, _ = mmu.translate(7, now=10_000)
        assert ready == 10_000 + 11  # L2 hit, no new fault
        assert driver.faults == 1
