"""The cycle-driven simulation engine.

The engine advances a set of :class:`Component` objects one cycle at a
time. Components are ticked in registration order, which the system
builders arrange to follow the request flow (SMs -> links/NoC -> LLC
slices -> memory controllers -> reply paths) so that a request can make
at most one hop per cycle, as in a real pipelined design. After every
component has ticked, the cycle counter advances and any due clock
hooks (:meth:`Simulator.every`) fire -- hook callbacks therefore see a
consistent end-of-cycle state.

Hooks are scheduled by per-hook next-fire cycles relative to their
registration point, not by ``cycle % period``: a hook registered on a
simulator that has already run keeps its own period from the moment of
registration instead of snapping to absolute multiples of the period.

Quiescence skipping (docs/PERFORMANCE.md)
-----------------------------------------

Most cycles, most components have nothing to do: SMs whose warps are
all waiting on memory, LLC slices with empty queues, links with nothing
in flight. Ticking them anyway is pure Python overhead, so the engine
maintains an *activity contract* of three methods:

* :meth:`Component.tick` returns the sleep verdict.  A truthy return
  is a promise that every future ``tick`` would be a no-op until an
  *external* event arrives; the engine then stops ticking the
  component.  A falsy return (``False``, or the ``None`` of a tick
  that returns nothing) keeps it awake, so a component that never
  states a verdict is simply ticked every cycle.  The promise must
  hold *exactly*: the tick that returns ``True`` has already applied
  every per-cycle state transition an idle strict-mode tick would
  (e.g. a bandwidth link's credit clamp), and any counter a quiescent
  tick would still advance is reproduced by ``on_skipped``.
* External events (a request pushed into an ingress queue, a reply
  delivered, a kernel launched) call :meth:`Component.wake`, which puts
  the component back on the active list.  A component woken before its
  registration slot in the current cycle still ticks this cycle --
  exactly the visibility order strict mode produces.
* Components whose skipped ticks would have advanced per-cycle
  counters (an SM counts stall cycles even when fully blocked)
  implement :meth:`Component.on_skipped`; the engine reports the exact
  number of skipped cycles before the next tick, before any clock hook
  fires, and before ``run``/``run_until`` return, so every observation
  point sees counters identical to strict mode's.
* When *every* component is asleep, ``run``/``run_until`` fast-forward
  the clock to the next hook deadline (or the chunk/run end) instead of
  stepping cycle by cycle.

The verdict is deliberately binary.  A deadline variant ("asleep until
cycle X", kept on a heap) elided more ticks but cost more host time
per tick than it saved, and was retired (docs/PERFORMANCE.md,
"Retired lanes").

``Simulator(strict=True)`` disables all of this and ticks every
component every cycle -- the escape hatch for debugging a suspected
equivalence violation.  The equivalence bar is strict: a quiescence
run must produce field-identical statistics and identical trace event
streams (tests/test_engine_quiescence.py).

Every component carries a ``tracer`` attribute (the shared disabled
:data:`~repro.obs.tracer.NULL_TRACER` by default) so instrumentation
sites can guard event emission with one attribute check; see
docs/TRACING.md.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.stats import StatsRegistry

#: Sentinel next-fire cycle when no clock hooks are registered.
_NEVER = float("inf")


class Component:
    """Base class for everything that does per-cycle work.

    Subclasses that want to benefit from quiescence skipping return
    ``True`` from :meth:`tick` when they may sleep (and override
    :meth:`on_skipped` when their strict-mode tick advances counters
    even while quiescent).  A tick that returns nothing never sleeps,
    which keeps arbitrary components correct.
    """

    #: Shared disabled tracer; replaced per instance when a run is
    #: traced (:meth:`repro.obs.tracer.Tracer.bind`).
    tracer: Tracer = NULL_TRACER

    def __init__(self, name: str) -> None:
        self.name = name
        #: Owning simulator (set by :meth:`Simulator.add`).
        self._sim: Optional["Simulator"] = None
        #: False while the engine is skipping this component.
        self._awake = True
        #: First cycle this component did not tick (-1 = none pending);
        #: the engine uses it to report exact skip counts.
        self._idle_since = -1
        #: Pre-created per instance (shadowing the class default) so
        #: :meth:`~repro.obs.tracer.Tracer.bind` replaces an existing
        #: ``__dict__`` key instead of growing the dict of every hot
        #: component -- the resize measurably slows all attribute
        #: lookups on those instances.
        self.tracer = NULL_TRACER

    def tick(self, now: int) -> bool:
        """Advance this component by one cycle; return the sleep verdict.

        ``True`` means every future ``tick`` is a no-op until an
        external event calls :meth:`wake`; a falsy return keeps the
        component awake.  Hot components compute the verdict from
        locals they already hold at the end of their tick.
        """
        raise NotImplementedError

    # -- activity contract --------------------------------------------

    def wake(self) -> None:
        """Re-activate after an external event (idempotent, cheap)."""
        if not self._awake:
            self._awake = True
            sim = self._sim
            if sim is not None:
                sim._n_asleep -= 1

    def on_skipped(self, cycles: int) -> None:
        """Account ``cycles`` skipped ticks.

        Called with the exact number of strict-mode ticks the engine
        elided since the component went to sleep (or since the last
        ``on_skipped`` report).  Override when the quiescent tick would
        still have advanced per-cycle counters.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Simulator:
    """Owns the clock, the component list and the shared stats registry.

    ``strict=True`` restores the historical tick-everything-every-cycle
    behaviour (no quiescence skipping, no fast-forward).
    """

    def __init__(self, stats: Optional[StatsRegistry] = None,
                 strict: bool = False) -> None:
        self.cycle = 0
        self.components: List[Component] = []
        self.stats = stats if stats is not None else StatsRegistry()
        self.tracer: Tracer = NULL_TRACER
        self.strict = strict
        #: Components currently skipped by the engine.
        self._n_asleep = 0
        #: Total component-ticks elided so far (observability only;
        #: never part of an equivalence-checked snapshot).
        self.skipped_ticks = 0
        #: Cycles the clock fast-forwarded over while fully quiescent.
        self.fast_forwarded_cycles = 0
        # Mutable [next_fire, period, callback] triples; next_fire is
        # per-hook so late-registered hooks keep their own cadence.
        self._hooks: List[list] = []
        #: Earliest pending hook fire (cached so the hot loop checks
        #: one number instead of scanning the hook list every cycle).
        self._next_hook = _NEVER

    def add(self, component: Component) -> Component:
        """Register a component; returns it for chaining."""
        component._sim = self
        if not component._awake:
            component._awake = True
            component._idle_since = -1
        self.components.append(component)
        return component

    def every(self, period: int, callback: Callable[[int], None]) -> None:
        """Invoke ``callback(cycle)`` every ``period`` cycles.

        Used for MDR epoch boundaries (Section 5.1), page-migration
        intervals and timeline sampling. The first firing happens
        ``period`` cycles after registration: a hook registered on a
        simulator resumed mid-epoch (current cycle not a multiple of
        ``period``) gets full-length epochs instead of a short first
        epoch snapped to absolute cycle multiples.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        next_fire = self.cycle + period
        self._hooks.append([next_fire, period, callback])
        if next_fire < self._next_hook:
            self._next_hook = next_fire

    # ------------------------------------------------------------------
    # The hot loop.
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the simulation by one cycle.

        Note: with quiescence skipping on, per-cycle counters of
        sleeping components (e.g. SM stall cycles) are reported lazily;
        they are exact whenever a clock hook fires and when
        ``run``/``run_until`` return.  Call :meth:`sync` before reading
        statistics between raw ``step`` calls.
        """
        now = self.cycle
        if self.strict:
            for component in self.components:
                component.tick(now)
        else:
            n_slept = 0
            for component in self.components:
                if component._awake:
                    since = component._idle_since
                    if since >= 0:
                        if now > since:
                            self.skipped_ticks += now - since
                            component.on_skipped(now - since)
                        component._idle_since = -1
                    if component.tick(now):
                        component._awake = False
                        component._idle_since = now + 1
                        n_slept += 1
            if n_slept:
                self._n_asleep += n_slept
        self.cycle = now + 1
        if self.cycle >= self._next_hook:
            self._fire_hooks()

    def _fire_hooks(self) -> None:
        """Run every hook whose next-fire cycle has been reached."""
        self.sync()
        cycle = self.cycle
        next_hook = _NEVER
        for hook in self._hooks:
            if cycle >= hook[0]:
                hook[0] += hook[1]
                hook[2](cycle)
            if hook[0] < next_hook:
                next_hook = hook[0]
        self._next_hook = next_hook

    def sync(self) -> None:
        """Flush lazily accounted skip cycles into component counters.

        After this, every component's statistics match what strict mode
        would report at the current cycle.  Invoked automatically
        before hook callbacks and when ``run``/``run_until`` return.
        """
        cycle = self.cycle
        for component in self.components:
            since = component._idle_since
            if 0 <= since < cycle:
                self.skipped_ticks += cycle - since
                component.on_skipped(cycle - since)
                component._idle_since = cycle

    def _fast_forward(self, limit: int) -> None:
        """Jump the clock while every component sleeps.

        Advances straight to the next hook deadline (hooks can create
        new work, e.g. page migration enqueueing DRAM writebacks) or to
        ``limit``, whichever comes first, and fires any hooks due at
        the landing cycle.  Equivalent to stepping: a fully quiescent
        strict-mode cycle only advances the clock and checks hooks.
        """
        target = self._next_hook
        if target > limit:
            target = limit
        self.fast_forwarded_cycles += target - self.cycle
        self.cycle = target
        if target >= self._next_hook:
            self._fire_hooks()

    def run(self, cycles: int) -> None:
        """Run a fixed number of cycles."""
        end = self.cycle + cycles
        if self.strict:
            step = self.step
            for _ in range(cycles):
                step()
            return
        n_components = len(self.components)
        while self.cycle < end:
            if self._n_asleep == n_components:
                self._fast_forward(end)
            else:
                self.step()
        self.sync()

    def run_until(
        self,
        done: Callable[[], bool],
        max_cycles: int = 10_000_000,
        check_period: int = 64,
    ) -> bool:
        """Run until ``done()`` is true or ``max_cycles`` elapse.

        ``done`` is evaluated every ``check_period`` cycles to keep the
        hot loop tight; the final chunk is clamped so the run never
        oversteps ``max_cycles``. Returns ``True`` when the predicate
        fired.
        """
        deadline = self.cycle + max_cycles
        step = self.step
        strict = self.strict
        n_components = len(self.components)
        while self.cycle < deadline:
            chunk_end = self.cycle + check_period
            if chunk_end > deadline:
                chunk_end = deadline
            if strict:
                while self.cycle < chunk_end:
                    step()
            else:
                while self.cycle < chunk_end:
                    if self._n_asleep == n_components:
                        self._fast_forward(chunk_end)
                    else:
                        step()
                self.sync()
            if done():
                return True
        return done()
