"""The repository benchmark: workloads, measurement and correctness checks.

Every workload is a fixed set of (benchmark, configuration) points built
through the public experiment API. One *repetition* simulates the whole
set once; a run repeats it for the requested number of seconds and
reports medians. ``run.py`` is the command line around :func:`run`.

Two kinds of run exist:

* untraced (``trace=False``): nothing is attached to the simulator. It
  yields the end-to-end metrics (host time, simulated cycles, memory,
  set-up time) and checks every point.
* traced (``trace=True``): untraced and traced repetitions alternate.
  Traced ones wrap component ticks with
  :class:`repro.obs.profiler.TickProfiler` and time the calls into each
  layer from outside, aggregated per layer in memory. They yield the
  per-layer metrics and the tracing overhead.

Host time is reported in units of a fixed pure-Python reference loop
that a probe process (:class:`HostProbe`) times every 0.2 s on the CPU
the simulation runs on: the benchmark host's CPUs swing between a fast
and a 1.5-2x slower state every second or so, and the ratio cancels those
swings while a change to the simulator still moves it. The reference is
part of the benchmark, not of the simulator.

A point fails when it does not finish within the runner's
``max_cycles``, when ``GPUSystem.audit()`` reports a problem, when its
SHA-256 over ``RunResult`` + ``stats_snapshot()`` differs from the first
repetition's, or (sweep) when the orchestrator did not run it in a
process pool or reported it failed.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import heapq
import json
import multiprocessing
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.config.presets import small_config  # noqa: E402
from repro.experiments import figures  # noqa: E402
from repro.experiments.runner import ExperimentRunner, RunKey  # noqa: E402
from repro.core.system import RunResult  # noqa: E402
from repro.experiments.store import ResultStore  # noqa: E402
from repro.obs.profiler import TickProfiler  # noqa: E402
from repro.orchestrator.orchestrator import SweepOrchestrator  # noqa: E402
from repro.orchestrator.sweep import Sweep  # noqa: E402
from repro.sim.stats import harmonic_mean  # noqa: E402
from repro.workloads.suite import get_benchmark  # noqa: E402

#: Process-pool size of the sweep workload (the benchmark host has 2
#: cores; no workload uses more).
SWEEP_WORKERS = 2
#: Set-up is timed this many times per run; the median is reported.
SETUP_TRIALS = 7
#: Untraced repetitions per run, at least: the repeat-digest check
#: needs two.
MIN_REPETITIONS = 2
#: The host-speed probe times one pass of the reference loop, about
#: 5 ms, every PROBE_INTERVAL_S; the loop takes PROBE_ITERATIONS steps
#: through a ring of PROBE_NODES objects and a PROBE_KEYS-entry dict.
PROBE_INTERVAL_S = 0.2
PROBE_ITERATIONS = 4_000
PROBE_NODES = 300_000
PROBE_KEYS = 200_000
_PROBE_NAME = "perfbench-probe"
#: Scratch space for the sweep's result stores, inside the checkout.
WORK_DIR = ROOT / ".perfbench-work"

#: Modules whose import the set-up time includes: everything the
#: benchmark drives.
_IMPORTS = ("repro.experiments.figures, repro.experiments.store, "
            "repro.orchestrator.orchestrator, repro.obs.profiler")

E2E_UNITS: Dict[str, str] = {
    "wall_ref": "ref",
    "sim_cycles_per_ref": "cycles/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "point_ok_ratio": "ratio",
    "sim_cycles": "cycles",
    "nuba_speedup_hmean": "x",
}

LAYER_UNITS: Dict[str, str] = {
    "sim.self_s": "s",
    "sim.ticks": "count",
    "sim.elided_ratio": "ratio",
    "sim.ff_cycles": "cycles",
    "sim.ns_per_tick": "ns",
    "sm.tick_s": "s",
    "sm.ticks": "count",
    "sm.instructions": "count",
    "sm.stall_cycles": "cycles",
    "sm.issue_ratio": "ratio",
    "sm.l1_hit_ratio": "ratio",
    "vm.l1tlb_hit_ratio": "ratio",
    "vm.l2tlb_hit_ratio": "ratio",
    "vm.walks": "count",
    "cache.tick_s": "s",
    "cache.ticks": "count",
    "cache.llc_hit_ratio": "ratio",
    "cache.replica_hits": "count",
    "cache.writebacks": "count",
    "cache.queue_peak": "entries",
    "noc.xbar_tick_s": "s",
    "noc.p2p_tick_s": "s",
    "noc.bytes": "bytes",
    "noc.local_ratio": "ratio",
    "mem.tick_s": "s",
    "mem.ticks": "count",
    "mem.lines": "lines",
    "mem.row_hit_ratio": "ratio",
    "mem.busy_ratio": "ratio",
    "core.run_kernel_s": "s",
    "core.mdr_replication_epochs": "count",
    "core.load_latency_cycles": "cycles",
    "driver.pages_allocated": "count",
    "workloads.instantiate_s": "s",
    "experiments.build_s": "s",
    "experiments.result_s": "s",
    "experiments.store_save_s": "s",
    "orchestrator.overhead_s": "s",
    "orchestrator.retries": "count",
    "orchestrator.pool_restarts": "count",
    "trace.overhead_ratio": "ratio",
}

#: Component family (name without digits) -> layer whose tick it is.
TICK_LAYERS: Dict[str, str] = {
    "sm": "sm",
    "llc": "cache",
    "mc": "mem",
    "noc": "noc.xbar",
    "side": "noc.xbar",
    "memnet": "noc.xbar",
    "p2p": "noc.p2p",
}
_TICK_LAYER_NAMES = sorted(set(TICK_LAYERS.values()))


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: a grid of points and how to run it."""

    name: str
    benchmarks: Tuple[str, ...]
    keys: Tuple[Callable[[str], RunKey], ...]
    sweep: bool = False
    warps_per_sm: int = 8
    channels: int = 8

    def gpu(self):
        """The base GPU configuration of every point."""
        return small_config(num_channels=self.channels,
                            warps_per_sm=self.warps_per_sm)

    def points(self) -> List[Tuple[str, RunKey]]:
        """(label, key) of every point, benchmark-major."""
        return [(f"{bench}/{key_fn.__name__}", key_fn(bench))
                for bench in self.benchmarks for key_fn in self.keys]


# Each workload includes one benchmark whose inputs depend on the seed
# (PVC, NW); the streaming generators (KMEANS, AN) give the same points
# for every seed.
WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (
        WorkloadSpec(
            "fig7-sweep", ("KMEANS", "AN", "PVC"),
            (figures.uba_key, figures.sm_uba_key,
             figures.nuba_norep_key, figures.nuba_key),
            sweep=True,
        ),
        WorkloadSpec(
            "latency-bound", ("NW", "AN"),
            (figures.uba_key, figures.nuba_key),
            warps_per_sm=2,
        ),
    )
}


# ----------------------------------------------------------------------
# The host-speed probe.
# ----------------------------------------------------------------------


class _Link:
    __slots__ = ("key", "value", "next")

    def __init__(self, value: int):
        self.key = 0
        self.value = value
        self.next: Optional[_Link] = None


def _probe(cpu: int, stop, conn) -> None:
    """Pinned to ``cpu``, time a pass of the reference loop every
    ``PROBE_INTERVAL_S`` until ``stop`` is set, then send the
    (start, CPU seconds) samples through ``conn``.

    The loop chases pointers through objects scattered over tens of MB,
    looks keys up in a large dict and keeps a small heap: the simulator's
    kind of interpreter work and memory access, with none of its code.
    Its CPU time per pass rises and falls with the host's speed in step
    with the simulator's run time.
    """
    os.sched_setaffinity(0, {cpu})
    rng = random.Random(1)
    nodes = [_Link(i) for i in range(PROBE_NODES)]
    for node in nodes:
        node.next = nodes[rng.randrange(PROBE_NODES)]
    table = {i * 2654435761 % 1000003: i for i in range(PROBE_KEYS)}
    conn.send(None)  # ready
    samples: List[Tuple[float, float]] = []
    while True:
        started = time.perf_counter()
        cpu_start = time.thread_time()
        node, acc = nodes[0], 0
        heap: List[Tuple[int, int]] = []
        for i in range(PROBE_ITERATIONS):
            node = node.next
            acc += node.value
            node.key = acc & 1023
            acc ^= table.get(i * 2654435761 % 1000003, 0)
            heapq.heappush(heap, (node.key, i))
            if len(heap) > 64:
                heapq.heappop(heap)
        samples.append((started, time.thread_time() - cpu_start))
        if stop.wait(PROBE_INTERVAL_S):
            break
    conn.send(samples)
    conn.close()


class HostProbe:
    """Probe processes, one pinned to each of ``cpus``, that sample the
    host's speed while the context is open."""

    def __init__(self, cpus: Sequence[int]):
        self.cpus = list(cpus)
        self.samples: List[Tuple[float, float]] = []
        self._stop = multiprocessing.Event()
        self._probes: list = []

    def __enter__(self) -> "HostProbe":
        for cpu in self.cpus:
            receiver, sender = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(
                target=_probe, args=(cpu, self._stop, sender),
                name=_PROBE_NAME, daemon=True)
            process.start()
            sender.close()
            self._probes.append((process, receiver))
        for _, receiver in self._probes:
            receiver.recv()  # wait until every probe is ready
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for process, receiver in self._probes:
            self.samples.extend(receiver.recv())
            process.join()

    def ref_s(self, start: float, end: float) -> float:
        """Mean reference time of the samples taken between ``start``
        and ``end`` (``time.perf_counter`` values), or of all samples
        when none fell inside."""
        inside = [cpu_s for at, cpu_s in self.samples if start <= at <= end]
        return statistics.fmean(inside or [cpu_s for _, cpu_s in
                                           self.samples])


# ----------------------------------------------------------------------
# One point.
# ----------------------------------------------------------------------


@dataclasses.dataclass
class PointOutcome:
    """What one simulated point produced and what it cost.

    ``counts`` are exact simulated quantities; ``spans`` are host
    seconds per layer, filled only by a traced point.
    """

    cycles: int = 0
    digest: str = ""
    problems: List[str] = dataclasses.field(default_factory=list)
    run_s: float = 0.0
    work_s: float = 0.0
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    spans: Dict[str, float] = dataclasses.field(default_factory=dict)
    pid: int = 0
    rss_kb: int = 0


def _sum(stats: Dict[str, float], pattern: str) -> float:
    regex = re.compile(pattern)
    return sum(v for k, v in stats.items() if regex.fullmatch(k))


def _counts(system, result) -> Dict[str, float]:
    """Exact per-layer quantities of a finished point."""
    stats = system.stats.as_dict()
    sim = system.sim
    queue_peaks = [v for k, v in stats.items()
                   if re.fullmatch(r"llc\d+\.(lmr|rmr|fill)\.peak", k)]
    return {
        "cycles": result.cycles,
        "component_cycles": len(sim.components) * result.cycles,
        "skipped_ticks": sim.skipped_ticks,
        "ff_cycles": sim.fast_forwarded_cycles,
        "instructions": _sum(stats, r"sm\d+\.instructions"),
        "stall_cycles": _sum(stats, r"sm\d+\.stall_cycles"),
        "issues": _sum(stats, r"sm\d+\.sched\d+\.issues"),
        "idle_cycles": _sum(stats, r"sm\d+\.sched\d+\.idle_cycles"),
        "l1_hits": _sum(stats, r"sm\d+\.l1\.load_hits"),
        "l1_misses": _sum(stats, r"sm\d+\.l1\.load_misses"),
        "tlb_hits": _sum(stats, r"sm\d+\.tlb\.hits"),
        "tlb_misses": _sum(stats, r"sm\d+\.tlb\.misses"),
        "l2tlb_hits": stats["l2tlb.hits"],
        "l2tlb_misses": stats["l2tlb.misses"],
        "walks": stats["walkers.walks"],
        "llc_hits": _sum(stats, r"llc\d+\.hits"),
        "llc_misses": _sum(stats, r"llc\d+\.misses"),
        "replica_hits": _sum(stats, r"llc\d+\.replica_hits"),
        "writebacks": _sum(stats, r"llc\d+\.writebacks"),
        "queue_peak": max(queue_peaks, default=0),
        "noc_bytes": stats["noc.bytes"],
        "local": stats["tracker.local"],
        "remote": stats["tracker.remote"],
        "mem_lines": _sum(stats, r"mc\d+\.lines_transferred"),
        "row_hits": _sum(stats, r"mc\d+\.row_hits"),
        "row_misses": _sum(stats, r"mc\d+\.row_misses"),
        "mc_busy": _sum(stats, r"mc\d+\.busy_cycles"),
        "mc_cycles": len(system.mcs) * result.cycles,
        "mdr_epochs": stats["mdr.replication_epochs"],
        "latency": stats["tracker.total_latency"],
        "completed": stats["tracker.completed"],
        "pages": stats["driver.pages_allocated"],
    }


def _timed(fn, spans: Dict[str, float], name: str):
    """``fn`` with its wall time added to ``spans[name]`` per call."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[name] += time.perf_counter() - start
    return wrapper


def digest_of(result, stats) -> str:
    """SHA-256 over a RunResult and its stats snapshot."""
    payload = json.dumps([dataclasses.asdict(result), stats.as_dict()],
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def simulate(runner: ExperimentRunner, key: RunKey, seed: int,
             trace: bool) -> Tuple[Optional[RunResult], PointOutcome]:
    """Build, instantiate (with ``seed``), run and check one point.

    Returns the RunResult (None when the run raised) and the outcome.
    """
    outcome = PointOutcome(pid=os.getpid())
    spans: Dict[str, float] = collections.defaultdict(float)
    begun = time.perf_counter()
    system = runner.build(key)
    built = time.perf_counter()
    benchmark = dataclasses.replace(get_benchmark(key.benchmark), seed=seed)
    workload = benchmark.instantiate(system.gpu)
    instantiated = time.perf_counter()
    profiler = None
    if trace:
        spans["experiments.build_s"] = built - begun
        spans["workloads.instantiate_s"] = instantiated - built
        profiler = TickProfiler.attach(system.sim)
        # Instance attributes shadow the methods run_workload calls.
        system.run_kernel = _timed(system.run_kernel, spans,
                                   "core.run_kernel_s")
        system.result = _timed(system.result, spans,
                               "experiments.result_s")
    start = time.perf_counter()
    try:
        result = system.run_workload(workload, max_cycles=runner.max_cycles)
    except Exception as exc:  # noqa: BLE001 -- the point fails, not the run
        outcome.problems.append(f"{type(exc).__name__}: {exc}")
        return None, outcome
    outcome.run_s = time.perf_counter() - start
    start = time.perf_counter()
    stats = system.stats_snapshot()
    spans["experiments.result_s"] += time.perf_counter() - start
    if profiler is not None:
        for proxy in system.sim.components:
            family = proxy.name.rstrip("0123456789")
            layer = TICK_LAYERS[family]
            spans[f"{layer}.tick_s"] += proxy.seconds
            spans[f"{layer}.ticks"] += proxy.ticks
        profiler.detach()
    outcome.problems.extend(system.audit())
    outcome.cycles = result.cycles
    outcome.digest = digest_of(result, stats)
    outcome.counts = _counts(system, result)
    outcome.work_s = time.perf_counter() - begun
    outcome.spans = dict(spans) if trace else {}
    outcome.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result, outcome


#: RunResult.extra key that carries a worker's PointOutcome home.
_OUTCOME = "perfbench.outcome"


def sweep_task(key: RunKey, base_gpu, max_cycles: int, seed: int,
               trace: bool) -> RunResult:
    """The orchestrator's per-point ``task_fn`` (runs in a worker)."""
    runner = ExperimentRunner(base_gpu=base_gpu, max_cycles=max_cycles)
    result, outcome = simulate(runner, key, seed, trace)
    if result is None:
        raise RuntimeError("; ".join(outcome.problems))
    result.extra[_OUTCOME] = dataclasses.asdict(outcome)
    return result


# ----------------------------------------------------------------------
# One repetition of a workload's point set.
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Repetition:
    """One pass over every point of a workload.

    ``ref_s`` is the mean time of the reference loop sampled during the
    pass, so ``wall_s / ref_s`` is the pass's host time in reference
    units.
    """

    traced: bool
    wall_s: float
    outcomes: Dict[str, PointOutcome]
    spans: Dict[str, float] = dataclasses.field(default_factory=dict)
    ref_s: float = 0.0


def _serial(spec: WorkloadSpec, seed: int, trace: bool) -> Repetition:
    runner = ExperimentRunner(base_gpu=spec.gpu())
    outcomes: Dict[str, PointOutcome] = {}
    for label, key in spec.points():
        # Free the previous point's system first, so that peak RSS is
        # one point's and not a matter of when the collector ran.
        gc.collect()
        outcomes[label] = simulate(runner, key, seed, trace)[1]
    wall = sum(outcome.run_s for outcome in outcomes.values())
    return Repetition(trace, wall, outcomes)


def _reap_children() -> None:
    """Wait for every child process but the probes (the orchestrator
    kills its pool without joining it)."""
    for child in multiprocessing.active_children():
        if child.name != _PROBE_NAME:
            child.join(timeout=60)


def _sweep(spec: WorkloadSpec, seed: int, trace: bool) -> Repetition:
    gpu = spec.gpu()
    spans: Dict[str, float] = collections.defaultdict(float)
    WORK_DIR.mkdir(exist_ok=True)
    store_dir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        store = ResultStore(store_dir)
        if trace:
            store.save = _timed(store.save, spans,
                                "experiments.store_save_s")
        runner = ExperimentRunner(base_gpu=gpu, store=store)
        task = partial(sweep_task, base_gpu=gpu,
                       max_cycles=runner.max_cycles, seed=seed, trace=trace)
        orchestrator = SweepOrchestrator(runner, workers=SWEEP_WORKERS,
                                         task_fn=task)
        start = time.perf_counter()
        report = orchestrator.run(Sweep.of(spec.name, spec.points()))
        wall = time.perf_counter() - start
    finally:
        _reap_children()
        shutil.rmtree(store_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    failures = {failure.label: failure.error for failure in report.failures}
    outcomes: Dict[str, PointOutcome] = {}
    for label, key in spec.points():
        result = report.results.get(key)
        if result is None:
            outcome = PointOutcome(problems=[
                f"sweep failed the point: {failures.get(label, 'missing')}"
            ])
        else:
            outcome = PointOutcome(**result.extra.pop(_OUTCOME))
        if report.mode != "pool":
            outcome.problems.append(f"sweep ran in mode {report.mode!r}")
        outcomes[label] = outcome
    if trace:
        spans["orchestrator.retries"] = report.retries
        spans["orchestrator.pool_restarts"] = report.pool_restarts
        work = sum(outcome.work_s for outcome in outcomes.values())
        spans["orchestrator.overhead_s"] = wall - work / SWEEP_WORKERS
    return Repetition(trace, wall, outcomes, dict(spans))


def repetition(spec: WorkloadSpec, seed: int, trace: bool) -> Repetition:
    """Simulate every point of ``spec`` once."""
    if spec.sweep:
        return _sweep(spec, seed, trace)
    return _serial(spec, seed, trace)


# ----------------------------------------------------------------------
# Set-up time.
# ----------------------------------------------------------------------


def _import_s() -> float:
    """Seconds a fresh interpreter takes to import the simulator."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            f"t = time.perf_counter(); import {_IMPORTS}; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.split()[-1])


def _pool_probe() -> int:
    return os.getpid()


def _pool_start_s() -> float:
    """Seconds until a sweep-sized process pool answers.

    The pool is the kind the orchestrator's local backend starts, with
    the interpreter's default start method.
    """
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=SWEEP_WORKERS) as pool:
        for future in [pool.submit(_pool_probe)
                       for _ in range(SWEEP_WORKERS)]:
            future.result()
        elapsed = time.perf_counter() - start
    _reap_children()
    return elapsed


def _build_s(spec: WorkloadSpec, seed: int) -> float:
    """Seconds to build and instantiate every point of ``spec``."""
    runner = ExperimentRunner(base_gpu=spec.gpu())
    start = time.perf_counter()
    for _, key in spec.points():
        system = runner.build(key)
        benchmark = dataclasses.replace(get_benchmark(key.benchmark),
                                        seed=seed)
        benchmark.instantiate(system.gpu)
    return time.perf_counter() - start


def setup_s(spec: WorkloadSpec, seed: int) -> float:
    """Median over trials of import + build + instantiate (+ pool)."""
    trials = []
    for _ in range(SETUP_TRIALS):
        total = _import_s() + _build_s(spec, seed)
        if spec.sweep:
            total += _pool_start_s()
        trials.append(total)
    return statistics.median(trials)


# ----------------------------------------------------------------------
# A run: repetitions, checks and metrics.
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Report:
    """The outcome of one benchmark run."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Point label -> digest of its first repetition.
    points: Dict[str, str]
    repetitions: int
    problems: List[str]
    #: Medians of the untraced repetitions' raw host seconds and of
    #: their reference time, for the reader; no metric.
    host_s: float = 0.0
    ref_s: float = 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def digest(self) -> str:
        """One SHA-256 over every point's digest, in point order."""
        text = "".join(f"{label} {digest}\n"
                       for label, digest in self.points.items())
        return hashlib.sha256(text.encode()).hexdigest()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _total_counts(outcomes: Sequence[PointOutcome]) -> Dict[str, float]:
    totals: Dict[str, float] = collections.Counter()
    for outcome in outcomes:
        for name, value in outcome.counts.items():
            if name == "queue_peak":
                totals[name] = max(totals[name], value)
            else:
                totals[name] += value
    return totals


def _speedup_hmean(spec: WorkloadSpec,
                   outcomes: Dict[str, PointOutcome]) -> float:
    """Harmonic mean over benchmarks of UBA cycles / NUBA cycles, where
    NUBA is the most complete NUBA configuration the workload runs."""
    names = [key_fn.__name__ for key_fn in spec.keys]
    nuba = "nuba_key" if "nuba_key" in names else "nuba_norep_key"
    if not all(outcome.cycles for outcome in outcomes.values()):
        return 0.0  # a point failed to run; the run is incorrect anyway
    return harmonic_mean(
        outcomes[f"{bench}/uba_key"].cycles
        / outcomes[f"{bench}/{nuba}"].cycles
        for bench in spec.benchmarks
    )


def _peak_rss_mb(repetitions: Sequence[Repetition]) -> float:
    """Peak RSS of this process plus the median over repetitions of the
    summed peak RSS of the workers that simulated a repetition's points
    (which worker gets which point varies)."""
    me = os.getpid()
    workers = []
    for rep in repetitions:
        peaks: Dict[int, int] = {}
        for outcome in rep.outcomes.values():
            if outcome.pid != me:
                peaks[outcome.pid] = max(peaks.get(outcome.pid, 0),
                                         outcome.rss_kb)
        workers.append(sum(peaks.values()))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + statistics.median(workers)) / 1024.0


def end_to_end_metrics(spec: WorkloadSpec, reps: Sequence[Repetition],
                       reference: Dict[str, PointOutcome], failed: int,
                       attempted: int, setup: float) -> Dict[str, float]:
    """Every end-to-end metric from untraced repetitions."""
    cycles = sum(outcome.cycles for outcome in reference.values())
    return {
        "wall_ref": statistics.median(rep.wall_s / rep.ref_s
                                      for rep in reps),
        "sim_cycles_per_ref": statistics.median(
            cycles / (rep.wall_s / rep.ref_s) for rep in reps),
        "setup_s": setup,
        "peak_rss_mb": _peak_rss_mb(reps),
        "point_ok_ratio": 1.0 - failed / attempted,
        "sim_cycles": cycles,
        "nuba_speedup_hmean": _speedup_hmean(spec, reference),
    }


def _rep_spans(rep: Repetition) -> Dict[str, float]:
    spans: Dict[str, float] = collections.Counter(rep.spans)
    for outcome in rep.outcomes.values():
        spans.update(outcome.spans)
    return spans


def layer_metrics(traced: Sequence[Repetition],
                  untraced: Sequence[Repetition],
                  reference: Dict[str, PointOutcome]) -> Dict[str, float]:
    """Every per-layer metric: host seconds are medians over traced
    repetitions, counts are exact."""
    per_rep = [_rep_spans(rep) for rep in traced]

    def seconds(name: str) -> float:
        return statistics.median(spans[name] for spans in per_rep)

    self_s = statistics.median(
        spans["core.run_kernel_s"]
        - sum(spans[f"{layer}.tick_s"] for layer in _TICK_LAYER_NAMES)
        for spans in per_rep)
    ticks = sum(per_rep[0][f"{layer}.ticks"] for layer in _TICK_LAYER_NAMES)
    c = _total_counts(list(reference.values()))
    return {
        "sim.self_s": self_s,
        "sim.ticks": ticks,
        "sim.elided_ratio": _ratio(c["skipped_ticks"],
                                   c["component_cycles"]),
        "sim.ff_cycles": c["ff_cycles"],
        "sim.ns_per_tick": _ratio(self_s, ticks) * 1e9,
        "sm.tick_s": seconds("sm.tick_s"),
        "sm.ticks": per_rep[0]["sm.ticks"],
        "sm.instructions": c["instructions"],
        "sm.stall_cycles": c["stall_cycles"],
        "sm.issue_ratio": _ratio(c["issues"],
                                 c["issues"] + c["idle_cycles"]),
        "sm.l1_hit_ratio": _ratio(c["l1_hits"],
                                  c["l1_hits"] + c["l1_misses"]),
        "vm.l1tlb_hit_ratio": _ratio(c["tlb_hits"],
                                     c["tlb_hits"] + c["tlb_misses"]),
        "vm.l2tlb_hit_ratio": _ratio(c["l2tlb_hits"],
                                     c["l2tlb_hits"] + c["l2tlb_misses"]),
        "vm.walks": c["walks"],
        "cache.tick_s": seconds("cache.tick_s"),
        "cache.ticks": per_rep[0]["cache.ticks"],
        "cache.llc_hit_ratio": _ratio(c["llc_hits"],
                                      c["llc_hits"] + c["llc_misses"]),
        "cache.replica_hits": c["replica_hits"],
        "cache.writebacks": c["writebacks"],
        "cache.queue_peak": c["queue_peak"],
        "noc.xbar_tick_s": seconds("noc.xbar.tick_s"),
        "noc.p2p_tick_s": seconds("noc.p2p.tick_s"),
        "noc.bytes": c["noc_bytes"],
        "noc.local_ratio": _ratio(c["local"], c["local"] + c["remote"]),
        "mem.tick_s": seconds("mem.tick_s"),
        "mem.ticks": per_rep[0]["mem.ticks"],
        "mem.lines": c["mem_lines"],
        "mem.row_hit_ratio": _ratio(c["row_hits"],
                                    c["row_hits"] + c["row_misses"]),
        "mem.busy_ratio": _ratio(c["mc_busy"], c["mc_cycles"]),
        "core.run_kernel_s": seconds("core.run_kernel_s"),
        "core.mdr_replication_epochs": c["mdr_epochs"],
        "core.load_latency_cycles": _ratio(c["latency"], c["completed"]),
        "driver.pages_allocated": c["pages"],
        "workloads.instantiate_s": seconds("workloads.instantiate_s"),
        "experiments.build_s": seconds("experiments.build_s"),
        "experiments.result_s": seconds("experiments.result_s"),
        "experiments.store_save_s": seconds("experiments.store_save_s"),
        "orchestrator.overhead_s": seconds("orchestrator.overhead_s"),
        "orchestrator.retries": per_rep[0]["orchestrator.retries"],
        "orchestrator.pool_restarts":
            per_rep[0]["orchestrator.pool_restarts"],
        "trace.overhead_ratio": (
            statistics.median(rep.wall_s / rep.ref_s for rep in traced)
            / statistics.median(rep.wall_s / rep.ref_s
                                for rep in untraced)),
    }


def _check(reps: Sequence[Repetition], reference: Dict[str, PointOutcome],
           problems: List[str]) -> int:
    """Record every failed point of every repetition; return how many."""
    failed = 0
    for index, rep in enumerate(reps):
        kind = "traced" if rep.traced else "untraced"
        for label, outcome in rep.outcomes.items():
            found = list(outcome.problems)
            expected = reference[label]
            if outcome.digest != expected.digest:
                found.append(f"digest {outcome.digest[:16]} != first "
                             f"repetition's {expected.digest[:16]}")
            elif outcome.counts != expected.counts:
                found.append("engine counters differ from the first "
                             "repetition's")
            if found:
                failed += 1
                problems.extend(f"{kind} repetition {index} {label}: {p}"
                                for p in found)
    return failed


def run(spec: WorkloadSpec, seed: int, seconds: float,
        trace: bool) -> Report:
    """Measure one workload for about ``seconds`` and check it.

    Untraced runs repeat the point set at least ``MIN_REPETITIONS`` times;
    traced runs alternate untraced and traced repetitions, at least one
    of each. A repetition is not started when the last one's duration
    says it would end past ``seconds``. A serial workload runs pinned to
    one CPU, with the host-speed probe on the same CPU; the sweep's pool
    uses every CPU, with one probe on each.
    """
    setup = 0.0 if trace else setup_s(spec, seed)
    kinds = [False, True] if trace else [False]
    minimum = len(kinds) if trace else MIN_REPETITIONS
    reps: List[Repetition] = []
    windows: List[Tuple[float, float]] = []
    cpus = sorted(os.sched_getaffinity(0))
    used = cpus if spec.sweep else cpus[:1]
    os.sched_setaffinity(0, used)
    try:
        with HostProbe(used) as probe:
            start = time.perf_counter()
            while True:
                begun = time.perf_counter()
                reps.append(repetition(spec, seed,
                                       kinds[len(reps) % len(kinds)]))
                now = time.perf_counter()
                windows.append((begun, now))
                if (len(reps) >= minimum and len(reps) % len(kinds) == 0
                        and now - start + len(kinds) * (now - begun)
                        > seconds):
                    break
    finally:
        os.sched_setaffinity(0, cpus)
    for rep, window in zip(reps, windows):
        rep.ref_s = probe.ref_s(*window)
    reference = reps[0].outcomes
    problems: List[str] = []
    failed = _check(reps, reference, problems)
    attempted = sum(len(rep.outcomes) for rep in reps)
    untraced = [rep for rep in reps if not rep.traced]
    if trace:
        traced = [rep for rep in reps if rep.traced]
        metrics = layer_metrics(traced, untraced, reference)
    else:
        metrics = end_to_end_metrics(spec, untraced, reference, failed,
                                     attempted, setup)
    return Report(metrics, attempted, failed,
                  {label: outcome.digest
                   for label, outcome in reference.items()},
                  len(reps), problems,
                  statistics.median(rep.wall_s for rep in untraced),
                  statistics.median(rep.ref_s for rep in untraced))
