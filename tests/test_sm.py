"""SM tests: warps, GTO scheduling, CTAs, coalescing and the core."""

import itertools
import random

import pytest

from repro.config.presets import small_config
from repro.sim.request import AccessKind
from repro.sm.coalescer import coalesce, coalescing_degree
from repro.sm.cta import CTA, DistributedCTAScheduler
from repro.sm.scheduler import GTOScheduler
from repro.sm.warp import Compute, MemAccess, Warp, make_stream


def _warp(instructions, warp_id=0, cta_id=0):
    return Warp(warp_id, cta_id, make_stream(instructions))


def _sm_core(gpu):
    """A real SMCore over an identity-translation driver."""
    from repro.cache.l1 import L1Cache
    from repro.sm.core import SMCore
    from repro.vm.tlb import MMU, L2TLB, TranslationProvider
    from repro.vm.walker import WalkerPool

    class Driver(TranslationProvider):
        def lookup_translation(self, vpage, sm_id):
            return vpage

        def handle_fault(self, vpage, sm_id):
            return vpage

    l2 = L2TLB(gpu.tlb.l2_entries, gpu.tlb.l2_ways, gpu.tlb.l2_latency)
    mmu = MMU(0, gpu.tlb, l2, WalkerPool(4, 10), Driver())
    return SMCore(0, gpu, L1Cache(0, gpu.l1), mmu,
                  request_sink=lambda r: True)


class TestWarp:
    def test_executes_stream(self):
        warp = _warp([Compute(2), Compute(1)])
        assert warp.next_instruction() == Compute(2)
        assert warp.next_instruction() == Compute(1)
        assert warp.next_instruction() is None
        assert warp.done

    def test_blocks_on_loads(self):
        warp = _warp([])
        warp.block_on_loads(2)
        assert not warp.is_ready(0)
        warp.load_returned()
        warp.load_returned()
        assert warp.is_ready(0)

    def test_load_return_underflow_raises(self):
        with pytest.raises(RuntimeError):
            _warp([]).load_returned()

    def test_ready_respects_ready_at(self):
        warp = _warp([Compute(1)])
        warp.ready_at = 10
        assert not warp.is_ready(9)
        assert warp.is_ready(10)

    def test_stalled_instruction_replayed(self):
        access = MemAccess(AccessKind.LOAD, ((0, 0),))
        warp = _warp([access, Compute(1)])
        assert warp.next_instruction() is access
        warp.stalled_instr = access  # SM could not issue it
        assert warp.next_instruction() is access  # replayed
        assert warp.next_instruction() == Compute(1)

    def test_finished_needs_drained_loads(self):
        warp = _warp([])
        warp.block_on_loads(1)
        warp.next_instruction()
        assert warp.done and not warp.finished
        warp.load_returned()
        assert warp.finished


class TestGTOScheduler:
    def test_greedy_sticks_to_same_warp(self):
        sched = GTOScheduler()
        a = _warp([Compute(1)] * 5, warp_id=0)
        b = _warp([Compute(1)] * 5, warp_id=1)
        sched.add_warp(a)
        sched.add_warp(b)
        assert sched.pick(0) is a
        assert sched.pick(1) is a  # greedy

    def test_falls_back_to_oldest_on_stall(self):
        sched = GTOScheduler()
        a = _warp([Compute(1)], warp_id=0)
        b = _warp([Compute(1)], warp_id=1)
        sched.add_warp(a)
        sched.add_warp(b)
        assert sched.pick(0) is a
        a.block_on_loads(1)
        sched.notify_stall(a)
        assert sched.pick(1) is b

    def test_oldest_ready_preferred(self):
        sched = GTOScheduler()
        a = _warp([Compute(1)], warp_id=0)
        b = _warp([Compute(1)], warp_id=1)
        sched.add_warp(a)
        sched.add_warp(b)
        a.ready_at = 100
        assert sched.pick(0) is b
        # When a becomes ready it is oldest, but greedy prefers b first.
        assert sched.pick(100) is b

    def test_none_when_all_stalled(self):
        sched = GTOScheduler()
        a = _warp([Compute(1)])
        sched.add_warp(a)
        a.block_on_loads(1)
        assert sched.pick(0) is None
        assert sched.idle_cycles == 1

    def test_remove_warp(self):
        sched = GTOScheduler()
        a = _warp([Compute(1)])
        sched.add_warp(a)
        sched.pick(0)
        sched.remove_warp(a)
        assert sched.pick(1) is None


class TestInlinedGTOSelection:
    """``SMCore._issue`` inlines ``GTOScheduler.pick``, and only tests
    call ``pick``; this pins the copy the SM runs against it."""

    @staticmethod
    def _warps(states):
        warps = []
        for warp_id, (done, at_barrier, outstanding, ready_at) in \
                enumerate(states):
            warp = Warp(warp_id, 0, itertools.repeat(Compute(1)))
            warp.done = done
            warp.at_barrier = at_barrier
            warp.outstanding = outstanding
            warp.ready_at = ready_at
            warps.append(warp)
        return warps

    @staticmethod
    def _index(warps, warp):
        return next((i for i, w in enumerate(warps) if w is warp), None)

    def test_issue_selects_like_pick(self):
        """Seeded random warp states (done, at a barrier, loads
        outstanding, ``ready_at``) and a random greedy warp: the warp
        each SM scheduler issues from, its ``_greedy``, ``issues`` and
        ``idle_cycles``, and the SM's stall cycles all match ``pick``
        on an identical reference scheduler."""
        rng = random.Random(15)
        sm = _sm_core(small_config(num_channels=2))
        refs = [GTOScheduler(i) for i in range(len(sm.schedulers))]
        paths = {"greedy": 0, "oldest": 0, "idle": 0}
        for step in range(4000):
            now = rng.randrange(50)
            expected = []
            for ref, sched in zip(refs, sm.schedulers):
                states = [(rng.random() < 0.2, rng.random() < 0.2,
                           rng.choice((0, 0, 0, 1, 2)), rng.randrange(60))
                          for _ in range(rng.randrange(6))]
                greedy = rng.randrange(-1, len(states))
                for target in (ref, sched):
                    target._warps = self._warps(states)
                    target._greedy = (target._warps[greedy]
                                      if greedy >= 0 else None)
                before = ref._greedy
                picked = ref.pick(now)
                if picked is None:
                    paths["idle"] += 1
                else:
                    paths["greedy" if picked is before else "oldest"] += 1
                expected.append(self._index(ref._warps, picked))
            stalls = sm.stall_cycles
            sm._issue(now)
            for ref, sched, want in zip(refs, sm.schedulers, expected):
                issued = [i for i, w in enumerate(sched._warps)
                          if w.instructions_issued]
                assert issued == ([] if want is None else [want]), step
                assert (self._index(sched._warps, sched._greedy)
                        == self._index(ref._warps, ref._greedy)), step
                assert (sched.issues, sched.idle_cycles) == \
                    (ref.issues, ref.idle_cycles), step
            all_idle = all(want is None for want in expected)
            assert sm.stall_cycles - stalls == all_idle, step
        assert min(paths.values()) > 500, paths


class TestDistributedCTAScheduler:
    def _factory(self, cta_id, warp_id):
        return make_stream([Compute(1)])

    def test_contiguous_chunks(self):
        sched = DistributedCTAScheduler(8, num_sms=4, warps_per_cta=2,
                                        warp_factory=self._factory)
        # SM 0 must receive CTAs 0 and 1 (contiguous, locality).
        first = sched.next_cta(0)
        second = sched.next_cta(0)
        assert (first.cta_id, second.cta_id) == (0, 1)
        assert sched.next_cta(0) is None

    def test_uneven_division(self):
        sched = DistributedCTAScheduler(5, num_sms=4, warps_per_cta=1,
                                        warp_factory=self._factory)
        counts = [sched.remaining(sm) for sm in range(4)]
        assert sorted(counts) == [1, 1, 1, 2]
        assert sched.total_remaining == 5

    def test_warps_created_per_cta(self):
        sched = DistributedCTAScheduler(2, num_sms=2, warps_per_cta=3,
                                        warp_factory=self._factory)
        cta = sched.next_cta(0)
        assert len(cta.warps) == 3
        assert all(w.cta_id == cta.cta_id for w in cta.warps)

    def test_cta_finished(self):
        sched = DistributedCTAScheduler(1, num_sms=1, warps_per_cta=1,
                                        warp_factory=self._factory)
        cta = sched.next_cta(0)
        assert not cta.finished
        warp = cta.warps[0]
        warp.next_instruction()
        warp.next_instruction()
        assert cta.finished

    def test_needs_ctas(self):
        with pytest.raises(ValueError):
            DistributedCTAScheduler(0, 1, 1, self._factory)


class TestCoalescer:
    def test_same_line_coalesces_to_one(self):
        addrs = [i * 4 for i in range(32)]  # 128 consecutive bytes
        assert coalesce(addrs) == [(0, 0)]
        assert coalescing_degree(addrs) == 32.0

    def test_strided_accesses_split(self):
        addrs = [i * 128 for i in range(4)]
        targets = coalesce(addrs)
        assert targets == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_page_crossing(self):
        targets = coalesce([4095, 4096])
        assert targets == [(0, 31), (1, 0)]

    def test_empty(self):
        assert coalesce([]) == []
        assert coalescing_degree([]) == 0.0


class TestBarriers:
    def _sm_with_two_warps(self):
        """A real SMCore with one CTA of two warps executing barriers."""
        from repro.sm.warp import Barrier

        sm = _sm_core(small_config(num_channels=2, warps_per_sm=4))

        def body(cta, warp):
            yield Compute(1)
            yield Barrier()
            yield Compute(1)

        sched = DistributedCTAScheduler(1, 1, 2, body)
        sm.start_kernel(sched, set(), now=0)
        return sm

    def test_warp_blocks_until_cta_arrives(self):
        sm = self._sm_with_two_warps()
        for cycle in range(50):
            sm.tick(cycle)
        # Both warps passed the barrier and finished their streams.
        assert sm.barriers_completed == 1
        assert all(
            warp.finished
            for cta in sm._active_ctas for warp in cta.warps
        ) or not sm._active_ctas

    def test_barrier_flushes_l1(self):
        sm = self._sm_with_two_warps()
        flushes_before = sm.l1.flushes
        for cycle in range(50):
            sm.tick(cycle)
        assert sm.l1.flushes > flushes_before

    def test_warp_at_barrier_not_ready(self):
        warp = _warp([])
        warp.at_barrier = True
        assert not warp.is_ready(0)
        warp.at_barrier = False
        assert warp.is_ready(0)
