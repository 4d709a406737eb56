"""Tests for the Section 7.6 alternatives: migration and page replication."""

import pytest

from repro.config.presets import small_config
from repro.config.topology import AddressMapKind, PagePolicy
from repro.driver.allocator import make_allocator
from repro.driver.driver import GpuDriver
from repro.driver.migration import PageMigrationManager
from repro.driver.page_replication import PageReplicationDriver
from repro.vm.address_map import make_address_map
from repro.vm.tlb import L2TLB, MMU
from repro.vm.walker import WalkerPool

GPU = small_config()
HOMES = [sm // GPU.sms_per_partition for sm in range(GPU.num_sms)]


def _driver():
    amap = make_address_map(GPU, AddressMapKind.FIXED_CHANNEL)
    allocator = make_allocator(PagePolicy.FIRST_TOUCH, GPU.num_channels,
                               HOMES)
    return GpuDriver(GPU, amap, allocator)


def _manager(driver, copies):
    return PageMigrationManager(
        driver,
        partition_channel=list(range(GPU.num_partitions)),
        migrate_lines=lambda vp, src, dst: copies.append((vp, src, dst)),
        interval=1000,
    )


class TestMigration:
    def test_hot_remote_page_migrates(self):
        driver = _driver()
        copies = []
        manager = _manager(driver, copies)
        driver.handle_fault(vpage=1, sm_id=0)  # home channel 0
        # Partition 3 (SMs 6,7) hammers the page.
        for _ in range(20):
            driver.note_access(1, sm_id=6)
        generation = driver.translation_generation
        manager.on_interval(1000)
        assert manager.migrations == 1
        assert driver.page_home[1] == 3
        assert copies == [(1, 0, 3)]
        assert driver.translation_generation == generation + 1

    def test_local_page_stays(self):
        driver = _driver()
        copies = []
        manager = _manager(driver, copies)
        driver.handle_fault(vpage=1, sm_id=0)
        for _ in range(20):
            driver.note_access(1, sm_id=0)  # local accesses only
        manager.on_interval(1000)
        assert manager.migrations == 0

    def test_contended_page_not_migrated(self):
        """No partition dominates: migrating would ping-pong, so don't."""
        driver = _driver()
        manager = _manager(driver, [])
        driver.handle_fault(vpage=1, sm_id=0)
        for sm in (0, 2, 4, 6):  # four partitions, 25% each
            for _ in range(5):
                driver.note_access(1, sm_id=sm)
        manager.on_interval(1000)
        assert manager.migrations == 0

    def test_cold_page_not_migrated(self):
        driver = _driver()
        manager = _manager(driver, [])
        driver.handle_fault(vpage=1, sm_id=0)
        driver.note_access(1, sm_id=6)  # below MIN_ACCESSES
        manager.on_interval(1000)
        assert manager.migrations == 0

    def test_counts_reset_each_interval(self):
        driver = _driver()
        manager = _manager(driver, [])
        driver.handle_fault(vpage=1, sm_id=0)
        for _ in range(20):
            driver.note_access(1, sm_id=6)
        manager.on_interval(1000)
        manager.on_interval(2000)  # no new accesses: nothing to do
        assert manager.migrations == 1

    def test_allocator_counts_follow_migration(self):
        driver = _driver()
        manager = _manager(driver, [])
        driver.handle_fault(vpage=1, sm_id=0)
        for _ in range(20):
            driver.note_access(1, sm_id=6)
        manager.on_interval(1000)
        counts = driver.allocator.pages_per_channel
        assert counts[0] == 0 and counts[3] == 1


def _mmu_over(driver, sm_id):
    """A real MMU (L1 TLB + MRU front cache, shared L2, walkers) whose
    translation provider is ``driver`` -- the wiring the system builder
    uses, scaled down to one SM."""
    tlb = GPU.tlb
    l2 = L2TLB(tlb.l2_entries, tlb.l2_ways, tlb.l2_latency)
    walkers = WalkerPool(tlb.page_walkers, tlb.walk_latency)
    return MMU(sm_id, tlb, l2, walkers, driver)


class TestMigrationInvalidation:
    """Migration must invalidate every cache that could hold the old
    placement: TLB entries via the generation bump, while frame-pure
    route memos stay valid."""

    def _migrate_page(self, driver, manager):
        """Fault vpage 1 onto channel 0, hammer it from partition 3 and
        run one migration interval; returns (old_frame, new_frame)."""
        old_frame = driver.handle_fault(vpage=1, sm_id=0)
        for _ in range(20):
            driver.note_access(1, sm_id=6)
        manager.on_interval(1000)
        new_frame = driver.page_table.lookup(1)
        return old_frame, new_frame

    def test_translate_returns_new_frame_after_migration(self):
        driver = _driver()
        manager = _manager(driver, [])
        mmu = _mmu_over(driver, sm_id=6)
        old_frame = driver.handle_fault(vpage=1, sm_id=0)
        mmu.translate(1, now=0)
        _, frame = mmu.translate(1, now=100)
        assert frame == old_frame  # cached, L1-TLB-warm
        for _ in range(20):
            driver.note_access(1, sm_id=6)
        manager.on_interval(1000)
        new_frame = driver.page_table.lookup(1)
        assert new_frame != old_frame
        _, frame = mmu.translate(1, now=5000)
        assert frame == new_frame  # shootdown flushed the stale entry
        _, frame = mmu.translate(1, now=6000)
        assert frame == new_frame  # and the refilled L1 entry agrees

    def test_migrated_frame_routes_to_destination_channel(self):
        driver = _driver()
        manager = _manager(driver, [])
        old_frame, new_frame = self._migrate_page(driver, manager)
        amap = driver.address_map
        assert driver.page_home[1] == 3
        for line in range(GPU.lines_per_page):
            assert amap.route_of_line(amap.line_addr(new_frame, line))[0] == 3
            # Routes are frame-pure: the *old* frame still maps to its
            # channel -- migration changed vpage->frame, not the route.
            assert amap.route_of_line(amap.line_addr(old_frame, line))[0] == 0

    def test_flush_routes_drops_memos_but_not_answers(self):
        """Emptying the per-frame route/bank memos after a migration
        changes no answer: the refilled memo agrees with the warm one."""
        driver = _driver()
        manager = _manager(driver, [])
        old_frame, new_frame = self._migrate_page(driver, manager)
        amap = driver.address_map
        before = {
            frame: amap.route_of_line(amap.line_addr(frame, 0))
            for frame in (old_frame, new_frame)
        }
        assert amap._route_cache  # memo warmed by the lookups above
        amap._route_cache.clear()
        amap._bank_cache.clear()
        for frame, route in before.items():
            assert amap.route_of_line(amap.line_addr(frame, 0)) == route


class TestReplicationInvalidation:
    """Replica collapse (a store to a replicated page) must shoot down
    cached replica translations in the MMUs."""

    def test_collapse_redirects_cached_replica_translation(self):
        driver = _replication_driver()
        mmu = _mmu_over(driver, sm_id=6)
        primary = driver.handle_fault(vpage=1, sm_id=0)
        _, replica = mmu.translate(1, now=0)  # faults in a replica
        assert replica != primary
        _, frame = mmu.translate(1, now=100)
        assert frame == replica  # cached, MRU-warm
        driver.note_store(1)  # write collapses the replica set
        _, frame = mmu.translate(1, now=5000)
        assert frame == primary  # stale replica entry flushed
        _, frame = mmu.translate(1, now=6000)
        assert frame == primary  # MRU refilled with the primary


def _replication_driver(copies=None):
    amap = make_address_map(GPU, AddressMapKind.FIXED_CHANNEL)
    allocator = make_allocator(PagePolicy.FIRST_TOUCH, GPU.num_channels,
                               HOMES)
    return PageReplicationDriver(
        GPU, amap, allocator,
        copy_lines=(lambda vp, src, dst: copies.append((vp, src, dst)))
        if copies is not None else None,
    )


class TestPageReplication:
    def test_remote_touch_creates_replica(self):
        driver = _replication_driver()
        primary = driver.handle_fault(vpage=1, sm_id=0)
        # SM 6 (partition 3) touches the page: lookup misses, fault
        # replicates.
        assert driver.lookup_translation(1, sm_id=6) is None
        replica = driver.handle_fault(vpage=1, sm_id=6)
        assert replica != primary
        assert driver.replicas_created == 1
        assert driver.lookup_translation(1, sm_id=6) == replica
        assert driver.lookup_translation(1, sm_id=0) == primary

    def test_translation_keys_differ_per_partition(self):
        driver = _replication_driver()
        key0 = driver.translation_key(1, sm_id=0)
        key3 = driver.translation_key(1, sm_id=6)
        assert key0 != key3

    def test_write_collapses_replicas(self):
        driver = _replication_driver()
        driver.handle_fault(vpage=1, sm_id=0)
        driver.handle_fault(vpage=1, sm_id=6)
        generation = driver.translation_generation
        driver.note_store(1)
        assert driver.collapses == 1
        assert driver.translation_generation == generation + 1
        # All partitions now see the primary frame.
        primary = driver.lookup_translation(1, sm_id=0)
        assert driver.lookup_translation(1, sm_id=6) == primary

    def test_written_page_never_replicates(self):
        driver = _replication_driver()
        primary = driver.handle_fault(vpage=1, sm_id=0)
        driver.note_store(1)
        assert driver.lookup_translation(1, sm_id=6) == primary
        assert driver.replicas_created == 0

    def test_copy_cost_charged(self):
        copies = []
        driver = _replication_driver(copies)
        driver.handle_fault(vpage=1, sm_id=0)
        driver.handle_fault(vpage=1, sm_id=6)
        assert copies == [(1, 0, 3)]

    def test_headroom_limits_replicas(self):
        driver = _replication_driver()
        driver.memory_headroom_pages = 1
        driver.handle_fault(vpage=1, sm_id=0)
        driver.handle_fault(vpage=2, sm_id=0)
        driver.handle_fault(vpage=1, sm_id=6)  # uses the only slot
        primary2 = driver.lookup_translation(2, sm_id=0)
        assert driver.handle_fault(vpage=2, sm_id=6) == primary2
        assert driver.replicas_created == 1
