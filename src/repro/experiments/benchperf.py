"""Engine throughput measurement (``repro bench-perf``).

The quiescence-aware engine (docs/PERFORMANCE.md) is justified by
wall-clock numbers, so this module makes the measurement reproducible:
a fixed matrix of workload x architecture points, each simulated
end-to-end while timing ``run_workload``, reported as simulated
cycles per host second.

The matrix deliberately spans both sides of the engine's behaviour:

* UBA points (``MEM_SIDE_UBA`` + first-touch) have long drain phases
  where most components sleep -- they show the quiescence win;
* NUBA points (``NUBA`` + MDR) keep the machine busy -- they bound the
  bookkeeping overhead the activity contract adds to a saturated run.

Results are written to ``BENCH_engine.json`` and compared against a
committed baseline (``benchmarks/BENCH_engine_baseline.json``) with a
configurable regression threshold, which is what the CI ``perf-smoke``
job runs (``--quick``). Throughput is host-dependent: refresh the
baseline with ``repro bench-perf --update-baseline`` when moving to new
hardware, and read cross-host comparisons as orders of magnitude only.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from typing import Dict, List, Optional, Tuple

from repro.config.topology import Architecture, PagePolicy, ReplicationPolicy
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.workloads.suite import get_benchmark

#: The fixed measurement matrix: two benchmarks (one low-sharing
#: streaming workload, one high-sharing DNN workload) x three
#: architecture points -- UBA (long quiescent drain phases), plain
#: saturated NUBA (busy-path floor without replication machinery) and
#: NUBA+MDR (busy path plus the sampler/epoch machinery).  The two
#: saturated NUBA columns are what the fast-lane optimisations
#: (docs/PERFORMANCE.md, "Busy path") are measured against.
MATRIX: Tuple[RunKey, ...] = (
    RunKey("KMEANS", Architecture.MEM_SIDE_UBA,
           page_policy=PagePolicy.FIRST_TOUCH),
    RunKey("KMEANS", Architecture.NUBA),
    RunKey("KMEANS", Architecture.NUBA,
           replication=ReplicationPolicy.MDR),
    RunKey("AN", Architecture.MEM_SIDE_UBA,
           page_policy=PagePolicy.FIRST_TOUCH),
    RunKey("AN", Architecture.NUBA),
    RunKey("AN", Architecture.NUBA,
           replication=ReplicationPolicy.MDR),
)

#: ``--quick`` subset for CI: one UBA and one saturated NUBA+MDR point.
QUICK_MATRIX: Tuple[RunKey, ...] = (MATRIX[0], MATRIX[2])


def point_id(key: RunKey) -> str:
    """Stable identifier for a matrix point (JSON key).

    The replication policy is appended when it deviates from the
    default so the plain-NUBA and NUBA+MDR columns stay distinct
    (``AN/nuba`` vs ``AN/nuba+mdr``).
    """
    base = f"{key.benchmark}/{key.architecture.value}"
    if key.replication is not ReplicationPolicy.NONE:
        return f"{base}+{key.replication.value}"
    return base


def measure_point(key: RunKey, repeats: int = 3,
                  strict: bool = False) -> Dict[str, float]:
    """Simulate one point ``repeats`` times; record best and median.

    Every repeat builds a fresh system (no warm caches); only
    ``run_workload`` is timed, so workload generation and system
    construction stay out of the number.  The fastest repeat
    (``wall_seconds`` / ``cycles_per_second``) approximates the noise
    floor; the median (``*_median``) is what regression gating uses,
    since a single lucky repeat should not mask a real slowdown --
    and the sample stdev quantifies how trustworthy the point is.

    The engine's work counters (:func:`work_counters`) ride along:
    they are deterministic, so the last repeat's values stand for all.
    """
    times: List[float] = []
    cycles = 0
    work: Dict[str, int] = {}
    for _ in range(max(1, repeats)):
        runner = ExperimentRunner(strict=strict)
        system = runner.build(key)
        workload = get_benchmark(key.benchmark).instantiate(system.gpu)
        start = time.perf_counter()
        result = system.run_workload(workload, max_cycles=runner.max_cycles)
        elapsed = time.perf_counter() - start
        cycles = result.cycles
        times.append(elapsed)
        work = work_counters(system.sim)
    best = min(times)
    median = statistics.median(times)
    stdev = statistics.stdev(times) if len(times) > 1 else 0.0
    return {
        "cycles": cycles,
        "wall_seconds": round(best, 4),
        "wall_seconds_median": round(median, 4),
        "wall_seconds_stdev": round(stdev, 4),
        "cycles_per_second": round(cycles / best, 1) if best else 0.0,
        "cycles_per_second_median": (
            round(cycles / median, 1) if median else 0.0
        ),
        **work,
    }


def work_counters(sim) -> Dict[str, int]:
    """How much work the engine did for a finished run.

    ``ticks_executed`` counts component ticks actually run,
    ``ticks_elided`` the ticks quiescence skipped (``strict`` runs
    elide none), and ``fast_forwarded_cycles`` the cycles the clock
    jumped while every component slept.  Every component is registered
    before cycle 0, so executed plus elided is exactly
    components x cycles.  These explain a throughput delta: an engine
    change can run *more* ticks and still win if each is cheaper.
    """
    elided = sim.skipped_ticks
    return {
        "ticks_executed": len(sim.components) * sim.cycle - elided,
        "ticks_elided": elided,
        "fast_forwarded_cycles": sim.fast_forwarded_cycles,
    }


def gate_cps(point: Dict[str, float]) -> float:
    """The cycles/sec figure regression gates run on.

    Median-of-repeats when the report recorded it; older reports
    (pre noise-hardening) fall back to the best-run figure so
    committed baselines stay comparable without regeneration.
    """
    median = point.get("cycles_per_second_median")
    if median:
        return median
    return point.get("cycles_per_second", 0.0)


def _rel_stdev(point: Dict[str, float]) -> Optional[float]:
    """Relative run-to-run noise (stdev / median), None when absent."""
    stdev = point.get("wall_seconds_stdev")
    median = point.get("wall_seconds_median")
    if stdev is None or not median:
        return None
    return stdev / median


def run_matrix(quick: bool = False, repeats: Optional[int] = None,
               strict: bool = False,
               progress=None) -> Dict[str, object]:
    """Measure the (full or quick) matrix; returns the report payload."""
    keys = QUICK_MATRIX if quick else MATRIX
    if repeats is None:
        repeats = 1 if quick else 3
    points: Dict[str, Dict[str, float]] = {}
    for key in keys:
        if progress is not None:
            progress(point_id(key))
        points[point_id(key)] = measure_point(key, repeats, strict=strict)
    return {
        "schema": "repro-bench-engine/1",
        "mode": "strict" if strict else "quiescent",
        "quick": quick,
        "repeats": repeats,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "points": points,
    }


def profile_matrix(keys: Optional[Tuple[RunKey, ...]] = None,
                   top: int = 25, strict: bool = False) -> str:
    """Profile one simulated run per matrix point with :mod:`cProfile`.

    Returns a text artifact: for each point, the ``top`` functions by
    internal time.  Written next to the benchmark report by
    ``repro bench-perf --profile`` so a CI run preserves *where* the
    cycles went, not just how many per second -- regressions in the
    >30% gate can then be triaged from the uploaded artifact alone.
    """
    import cProfile
    import io
    import pstats

    if keys is None:
        keys = MATRIX
    sections: List[str] = []
    for key in keys:
        runner = ExperimentRunner(strict=strict)
        system = runner.build(key)
        workload = get_benchmark(key.benchmark).instantiate(system.gpu)
        profiler = cProfile.Profile()
        profiler.enable()
        system.run_workload(workload, max_cycles=runner.max_cycles)
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("tottime").print_stats(top)
        sections.append(f"=== {point_id(key)} ===\n{buffer.getvalue()}")
    return "\n".join(sections)


def write_report(path: str, payload: Dict[str, object]) -> None:
    """Write one report as stable (sorted, indented) JSON."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Dict[str, object]:
    """Load a report written by :func:`write_report`."""
    with open(path) as handle:
        return json.load(handle)


def compare(current: Dict[str, object], baseline: Dict[str, object],
            threshold: float = 0.30) -> Tuple[List[str], List[str]]:
    """Compare two reports point-by-point.

    Returns ``(lines, regressions)``: human-readable comparison lines
    for every point present in both reports, and the subset that
    regressed by more than ``threshold`` (fractional cycles/sec drop).
    Points missing from either side are skipped -- a quick run checks
    only its own two points against a full baseline.

    Gating runs on the median-of-repeats figure (:func:`gate_cps`)
    when a side recorded it, so one lucky or unlucky repeat cannot
    flip the verdict.
    """
    lines: List[str] = []
    regressions: List[str] = []
    if current.get("mode") != baseline.get("mode"):
        lines.append(
            f"note: mode mismatch (current={current.get('mode')}, "
            f"baseline={baseline.get('mode')}); comparison skipped"
        )
        return lines, regressions
    base_points = baseline.get("points", {})
    for name, point in current.get("points", {}).items():
        base = base_points.get(name)
        if base is None:
            continue
        cur_cps = gate_cps(point)
        base_cps = gate_cps(base)
        ratio = (cur_cps / base_cps) if base_cps else float("inf")
        verdict = "ok"
        if ratio < 1.0 - threshold:
            verdict = "REGRESSION"
            regressions.append(name)
        lines.append(
            f"{name:<24} {cur_cps:>10.0f} cyc/s  baseline "
            f"{base_cps:>10.0f}  ({ratio:.2f}x) {verdict}"
        )
    return lines, regressions


def delta_table(old: Dict[str, object],
                new: Dict[str, object]) -> List[str]:
    """Per-point cycles/sec delta table between two saved reports.

    Unlike :func:`compare` (a regression gate against the committed
    baseline), this is a symmetric inspection tool for
    ``repro bench-perf --compare OLD.json NEW.json``: every point
    present in both reports gets a row with absolute cycles/sec on
    both sides, the new/old ratio and the percentage delta.  Points
    present on only one side are listed explicitly so a partial
    (``--quick``) report reads as partial instead of silently
    shrinking the table.

    Ratios use the same median-preferred figure the regression gate
    uses (:func:`gate_cps`); the trailing stdev columns show each
    side's run-to-run noise (stdev / median wall time, percent) so a
    delta can be read against the measurement's jitter, and the last
    column is the new/old ratio of executed component ticks
    (:func:`work_counters`) -- a dash means the report predates that
    field.
    """
    lines: List[str] = []
    old_points = old.get("points", {})
    new_points = new.get("points", {})
    if old.get("mode") != new.get("mode"):
        lines.append(
            f"note: mode mismatch (old={old.get('mode')}, "
            f"new={new.get('mode')}); deltas compare different engines"
        )
    header = (f"{'point':<24} {'old cyc/s':>12} {'new cyc/s':>12} "
              f"{'ratio':>7} {'delta':>8} {'old sd':>7} {'new sd':>7} "
              f"{'ticks':>7}")
    lines.append(header)
    lines.append("-" * len(header))
    for name in sorted(set(old_points) | set(new_points)):
        old_point = old_points.get(name)
        new_point = new_points.get(name)
        if old_point is None or new_point is None:
            side = "new" if old_point is None else "old"
            lines.append(f"{name:<24} (only in {side} report)")
            continue
        old_cps = gate_cps(old_point)
        new_cps = gate_cps(new_point)
        ratio = (new_cps / old_cps) if old_cps else float("inf")
        delta = (ratio - 1.0) * 100.0
        noises = []
        for point in (old_point, new_point):
            noise = _rel_stdev(point)
            noises.append("-" if noise is None else f"{noise * 100.0:.1f}%")
        old_ticks = old_point.get("ticks_executed")
        new_ticks = new_point.get("ticks_executed")
        ticks = (f"{new_ticks / old_ticks:.2f}x"
                 if old_ticks and new_ticks is not None else "-")
        lines.append(
            f"{name:<24} {old_cps:>12.0f} {new_cps:>12.0f} "
            f"{ratio:>6.2f}x {delta:>+7.1f}% {noises[0]:>7} {noises[1]:>7} "
            f"{ticks:>7}"
        )
    return lines
