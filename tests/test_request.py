"""Memory-request and tracker tests."""

import dataclasses
import itertools

import pytest

from repro.sim.request import (
    AccessKind,
    LINE_BYTES,
    MemoryRequest,
    READ_REQUEST_BYTES,
    REPLY_BYTES,
    RequestTracker,
    WRITE_REQUEST_BYTES,
)


class TestPacketSizes:
    """Section 6: 8 B read requests, 16 B writes, 136 B replies."""

    def test_constants(self):
        assert LINE_BYTES == 128
        assert READ_REQUEST_BYTES == 8
        assert WRITE_REQUEST_BYTES == 16
        assert REPLY_BYTES == 136  # 128 B data + 8 B control

    def test_load_sizes(self):
        request = MemoryRequest(AccessKind.LOAD, 0, sm_id=0)
        assert request.request_bytes == 8
        assert request.reply_bytes == 136

    def test_read_only_load_sizes_match_load(self):
        """The read-only bit rides in spare request-link bits: no size
        overhead (Section 5.2)."""
        ro = MemoryRequest(AccessKind.LOAD_RO, 0, sm_id=0)
        assert ro.request_bytes == READ_REQUEST_BYTES

    def test_store_sizes(self):
        request = MemoryRequest(AccessKind.STORE, 0, sm_id=0)
        assert request.request_bytes == 16
        assert request.reply_bytes == 8  # control-only ack


class TestLifecycle:
    def test_unique_ids(self):
        a = MemoryRequest(AccessKind.LOAD, 0, sm_id=0)
        b = MemoryRequest(AccessKind.LOAD, 0, sm_id=0)
        assert a.req_id != b.req_id

    def test_complete_invokes_callback(self):
        seen = []
        request = MemoryRequest(AccessKind.LOAD, 0, sm_id=0)
        request.on_complete = seen.append
        request.issue_cycle = 10
        request.complete(50)
        assert seen == [request]
        assert request.latency == 40

    def test_latency_before_completion_raises(self):
        with pytest.raises(ValueError):
            MemoryRequest(AccessKind.LOAD, 0, sm_id=0).latency

    def test_identity_semantics(self):
        """Requests hash/compare by identity (they are tracked through
        queues and MSHRs, never by value)."""
        a = MemoryRequest(AccessKind.LOAD, 7, sm_id=0)
        b = MemoryRequest(AccessKind.LOAD, 7, sm_id=0)
        assert a != b
        assert len({a, b}) == 2


class TestTracker:
    def _req(self, kind=AccessKind.LOAD, local=True, hit="llc"):
        request = MemoryRequest(kind, 0, sm_id=0)
        request.is_local = local
        request.hit_level = hit
        request.issue_cycle = 0
        request.complete_cycle = 100
        return request

    def test_local_remote_split(self):
        tracker = RequestTracker()
        tracker.record(self._req(local=True))
        tracker.record(self._req(local=False))
        tracker.record(self._req(local=False))
        assert tracker.local_fraction == pytest.approx(1 / 3)

    def test_replies_per_cycle_counts_loads_only(self):
        tracker = RequestTracker()
        tracker.record(self._req(AccessKind.LOAD))
        tracker.record(self._req(AccessKind.STORE))
        assert tracker.replies_per_cycle(100) == pytest.approx(0.01)

    def test_hit_level_accounting(self):
        tracker = RequestTracker()
        tracker.record(self._req(hit="llc"))
        tracker.record(self._req(hit="mem"))
        assert tracker.llc_hits == 1
        assert tracker.mem_accesses == 1

    def test_mean_latency(self):
        tracker = RequestTracker()
        tracker.record(self._req())
        assert tracker.mean_latency == pytest.approx(100.0)

    def test_empty_tracker_safe(self):
        tracker = RequestTracker()
        assert tracker.local_fraction == 0.0
        assert tracker.mean_latency == 0.0
        assert tracker.replies_per_cycle(100) == 0.0
        assert tracker.replies_per_cycle(0) == 0.0

    def test_as_dict_keys(self):
        tracker = RequestTracker()
        tracker.record(self._req())
        data = tracker.as_dict()
        assert data["completed"] == 1
        assert set(data) >= {"local", "remote", "llc_hits", "mean_latency"}


class TestRequestPoolFieldReset:
    """A recycled request must be indistinguishable from a fresh one.

    Every dataclass field of a released request is dirtied, then the
    request is drawn again through both recycling paths: ``acquire()``
    and the inlined copy of its field resets in ``SMCore._issue_mem``.
    Because the dirtying walks ``dataclasses.fields``, a field added to
    :class:`MemoryRequest` but not reset on both paths fails here.
    """

    #: Fields the issue path assigns real values right after recycling.
    ISSUE_ASSIGNED = ("req_id", "issue_cycle", "on_complete")

    @staticmethod
    def _dirty(request):
        for f in dataclasses.fields(MemoryRequest):
            value = getattr(request, f.name)
            if isinstance(value, bool):
                dirty = not value
            elif isinstance(value, int):
                dirty = value + 1_000_003
            elif isinstance(value, str):
                dirty = value + "stale"
            elif isinstance(value, AccessKind):
                dirty = (AccessKind.ATOMIC if value is not AccessKind.ATOMIC
                         else AccessKind.STORE)
            elif value is None:
                dirty = object()
            else:
                raise AssertionError(
                    f"no dirty value for field {f.name!r} = {value!r}")
            setattr(request, f.name, dirty)

    @staticmethod
    def _fields_differing(request, fresh, ignore=()):
        return [f.name for f in dataclasses.fields(MemoryRequest)
                if f.name not in ignore
                and getattr(request, f.name) != getattr(fresh, f.name)]

    @pytest.fixture
    def empty_pool(self):
        import repro.sim.request as request_mod
        from repro.sim import fastlane
        saved_ids = request_mod._req_ids
        fastlane.reset()
        yield
        fastlane.reset()
        request_mod._req_ids = saved_ids

    def _released_dirty_request(self):
        import repro.sim.request as request_mod
        request = MemoryRequest(AccessKind.LOAD, 1, sm_id=1, vpage=1)
        request_mod.release(request)
        assert request_mod._pool == [request]
        self._dirty(request)
        return request

    def test_acquire_resets_every_field(self, empty_pool):
        import repro.sim.request as request_mod
        stale = self._released_dirty_request()
        request_mod._req_ids = itertools.count(100)
        request = request_mod.acquire(AccessKind.LOAD, 64, 3, vpage=2)
        assert request is stale
        assert request.req_id == 100
        fresh = MemoryRequest(AccessKind.LOAD, 64, 3, vpage=2)
        assert self._fields_differing(request, fresh,
                                      ignore=("req_id",)) == []

    def test_sm_issue_path_resets_every_field(self, empty_pool):
        import repro.sim.request as request_mod
        from repro.cache.l1 import L1Cache
        from repro.config.presets import small_config
        from repro.sm.core import SMCore
        from repro.sm.warp import MemAccess, Warp, make_stream
        from repro.vm.tlb import L2TLB, MMU, TranslationProvider
        from repro.vm.walker import WalkerPool

        class Identity(TranslationProvider):
            def lookup_translation(self, vpage, sm_id):
                return vpage

            def handle_fault(self, vpage, sm_id):
                return vpage

        class Scheduler:
            def notify_stall(self, warp):
                pass

        gpu = small_config(num_channels=2)
        l2 = L2TLB(gpu.tlb.l2_entries, gpu.tlb.l2_ways, gpu.tlb.l2_latency)
        mmu = MMU(0, gpu.tlb, l2, WalkerPool(4, 10), Identity())
        sm = SMCore(0, gpu, L1Cache(0, gpu.l1), mmu,
                    request_sink=lambda r: True)
        warp = Warp(0, 0, make_stream([]))

        stale = self._released_dirty_request()
        request_mod._req_ids = itertools.count(100)
        instr = MemAccess(AccessKind.LOAD, ((5, 3),), space="data")
        sm._issue_mem(warp, instr, Scheduler(), now=40)
        (_, _, request), = sm._lsu
        assert request is stale
        assert request.req_id == 100
        assert request.issue_cycle == 40
        assert request.on_complete == warp.load_cb
        fresh = MemoryRequest(AccessKind.LOAD, 5 * gpu.lines_per_page + 3,
                              0, vpage=5)
        assert self._fields_differing(request, fresh,
                                      ignore=self.ISSUE_ASSIGNED) == []
