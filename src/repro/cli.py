"""Command-line interface.

Subcommands::

    python -m repro list                     # catalogue of benchmarks
    python -m repro run --bench KMEANS --arch nuba [--replication mdr]
    python -m repro run --arch nuba --trace out.json --timeline tl.csv
    python -m repro trace --bench AN --out an.json --profile
    python -m repro compare --bench KMEANS   # UBA vs NUBA side by side
    python -m repro figure fig7 [--subset KMEANS AN ...] [--workers 4]
    python -m repro sweep fig7 fig10 --workers 4 --store results/
    python -m repro sweep fig7 --shard 0/2 --store shared/  # one of N hosts
    python -m repro sweep fig7 --endpoint http://host:8000  # coordinator
    python -m repro bench-perf [--quick] [--update-baseline]
    python -m repro report --out report.md [--workers 4]
    python -m repro serve --port 8000 --store results/ --workers 4
    python -m repro worker --connect http://host:8000   # claim-loop worker
    python -m repro submit --url http://host:8000 --bench KMEANS --wait
    python -m repro status --url http://host:8000 [JOB_ID]
    python -m repro fetch --url http://host:8000 JOB_ID
    python -m repro store ls|gc|clear --dir results/
    python -m repro lint [--json] [--out findings.json]  # docs/LINT.md

The CLI drives the same public API the examples use; it exists so the
headline experiments are reproducible without writing any Python.
``figure``, ``sweep`` and ``report`` accept ``--workers`` to fan the
underlying simulation points out across a process pool (see
docs/ORCHESTRATOR.md) and ``--store`` to persist results on disk so
interrupted sweeps resume instead of restarting.

Distributed sweeps (docs/ORCHESTRATOR.md): ``sweep --shard i/N`` makes
this host deterministically claim shard ``i`` of the sweep's points --
no coordinator, N hosts cover the key space exactly once; a final
unsharded run merges/completes stragglers from the shared store.
``sweep --endpoint URL`` farms points out to one ``repro serve``
coordinator instead of local processes; machines join by running
``repro worker --connect URL`` against it.

Service (docs/SERVICE.md): ``serve`` boots the stdlib HTTP job API in
front of the orchestrator -- jobs deduplicate against in-flight work
and the result store, stream progress, and honour per-tenant bounds and
queue backpressure. ``submit``/``status``/``fetch`` are thin clients
for it, ``worker`` runs the claim loop (pull-based execution on remote
hardware; ``serve --workers 0`` makes the service a pure coordinator),
and ``store`` administers the content-addressed result cache.

Observability (docs/TRACING.md): ``run`` and the dedicated ``trace``
subcommand accept ``--trace PATH`` (Chrome-trace JSON for Perfetto /
``chrome://tracing``) and ``--timeline PATH`` (fixed-interval CSV time
series); ``trace --profile`` adds a wall-clock per-component tick-cost
report. ``figure --trace/--timeline DIR`` write one artifact pair per
actually simulated point into ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.config.presets import small_config
from repro.config.topology import (
    Architecture,
    PagePolicy,
    ReplicationPolicy,
    TopologySpec,
)
from repro.core.builders import build_system
from repro.experiments import figures
from repro.experiments.runner import ExperimentRunner
from repro.workloads.suite import BENCHMARKS, get_benchmark

#: Figure name -> harness function.
FIGURES = {
    "table2": lambda runner, subset: figures.table2_catalogue(),
    "fig3": figures.fig3_sharing,
    "fig7": figures.fig7_performance,
    "fig8": figures.fig8_bandwidth,
    "fig9": figures.fig9_miss_breakdown,
    "fig10": figures.fig10_noc_power,
    "fig11": figures.fig11_page_allocation,
    "fig12": figures.fig12_replication,
    "fig13": figures.fig13_energy,
    "fig14": figures.fig14_sensitivity,
    "fig16": figures.fig16_mcm,
    "sec76": figures.sec76_alternatives,
}


def _architecture(name: str) -> Architecture:
    aliases = {
        "uba": Architecture.MEM_SIDE_UBA,
        "mem-side-uba": Architecture.MEM_SIDE_UBA,
        "sm-side-uba": Architecture.SM_SIDE_UBA,
        "nuba": Architecture.NUBA,
    }
    try:
        return aliases[name.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown architecture {name!r}; choose from {sorted(aliases)}"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NUBA (ASPLOS'23) reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table 2 benchmark catalogue")

    run = sub.add_parser("run", help="simulate one benchmark")
    run.add_argument("--bench", default="KMEANS",
                     help="benchmark abbreviation (default KMEANS)")
    run.add_argument("--arch", type=_architecture, default=Architecture.NUBA)
    run.add_argument(
        "--replication",
        choices=[p.value for p in ReplicationPolicy],
        default=ReplicationPolicy.MDR.value,
    )
    run.add_argument(
        "--page-policy",
        choices=[p.value for p in PagePolicy],
        default=PagePolicy.LAB.value,
    )
    run.add_argument("--noc-gbps", type=float, default=None,
                     help="override NoC bandwidth (GB/s)")
    _add_observability_args(run)

    trace = sub.add_parser(
        "trace",
        help="simulate one benchmark with full observability "
             "(Chrome trace, timeline CSV, tick profile)",
    )
    trace.add_argument("--bench", default="KMEANS",
                       help="benchmark abbreviation (default KMEANS)")
    trace.add_argument("--arch", type=_architecture,
                       default=Architecture.NUBA)
    trace.add_argument(
        "--replication",
        choices=[p.value for p in ReplicationPolicy],
        default=ReplicationPolicy.MDR.value,
    )
    trace.add_argument("--channels", type=int, default=None,
                       help="simulate a smaller GPU (memory channels)")
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="Chrome-trace JSON output (default "
                            "trace.json)")
    trace.add_argument("--timeline", default=None, metavar="PATH",
                       help="also write a timeline CSV")
    trace.add_argument("--interval", type=int, default=500,
                       help="timeline sampling interval in cycles")
    trace.add_argument("--max-events", type=int, default=None,
                       help="tracer event ceiling (default 1e6)")
    trace.add_argument("--profile", action="store_true",
                       help="report wall-clock cost per component tick")

    compare = sub.add_parser(
        "compare", help="run a benchmark on UBA and NUBA and compare"
    )
    compare.add_argument("--bench", required=True)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", choices=sorted(FIGURES))
    figure.add_argument("--subset", nargs="*", default=None,
                        help="benchmark abbreviations (default: a "
                             "representative subset)")
    figure.add_argument("--full", action="store_true",
                        help="use all 29 benchmarks")
    figure.add_argument("--channels", type=int, default=None,
                        help="simulate a smaller GPU (memory channels)")
    figure.add_argument("--trace", default=None, metavar="DIR",
                        help="write a Chrome trace per simulated point "
                             "into DIR")
    figure.add_argument("--timeline", default=None, metavar="DIR",
                        help="write a timeline CSV per simulated point "
                             "into DIR")
    figure.add_argument("--interval", type=int, default=500,
                        help="timeline sampling interval in cycles")
    _add_orchestrator_args(figure)

    sweep = sub.add_parser(
        "sweep",
        help="run one or more figures' simulation points through the "
             "parallel orchestrator, then render them",
    )
    sweep.add_argument("names", nargs="+",
                       choices=sorted(FIGURES) + ["all"],
                       help="figures to sweep ('all' = every figure)")
    sweep.add_argument("--subset", nargs="*", default=None)
    sweep.add_argument("--full", action="store_true",
                       help="use all 29 benchmarks")
    sweep.add_argument("--channels", type=int, default=None)
    sweep.add_argument("--no-render", action="store_true",
                       help="only run the sweep; don't print figures")
    sweep.add_argument("--shard", type=_shard_spec, default=None,
                       metavar="I/N",
                       help="claim shard I of N (coordinator-free: run "
                            "the same command with 0/N..N-1/N on N "
                            "hosts into one --store, then once "
                            "unsharded to merge)")
    sweep.add_argument("--endpoint", action="append", default=None,
                       metavar="URL",
                       help="run points on this 'repro serve' "
                            "coordinator instead of locally; add "
                            "machines with 'repro worker --connect'")
    _add_orchestrator_args(sweep)

    bench = sub.add_parser(
        "bench-perf",
        help="measure engine throughput (cycles/sec) on a fixed "
             "workload matrix and compare against the committed "
             "baseline",
    )
    bench.add_argument("--quick", action="store_true",
                       help="2-point matrix, single repeat (CI smoke)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="timed repeats per point; best and median "
                            "are recorded and regression gating uses "
                            "the median (default: 3, or 1 with "
                            "--quick)")
    bench.add_argument("--out", default="BENCH_engine.json",
                       metavar="PATH",
                       help="result JSON (default BENCH_engine.json)")
    bench.add_argument("--baseline",
                       default="benchmarks/BENCH_engine_baseline.json",
                       metavar="PATH",
                       help="committed baseline to compare against")
    bench.add_argument("--threshold", type=float, default=0.30,
                       help="fractional cycles/sec regression that "
                            "fails the run (default 0.30)")
    bench.add_argument("--update-baseline", action="store_true",
                       help="overwrite the baseline with this run "
                            "instead of comparing")
    bench.add_argument("--compare", nargs=2, default=None,
                       metavar=("OLD.json", "NEW.json"),
                       help="print a per-point cycles/sec delta table "
                            "between two saved reports and exit "
                            "(no measurement); exits nonzero when any "
                            "point regressed beyond --threshold")
    bench.add_argument("--no-fail", action="store_true",
                       help="with --compare: always exit 0, even when "
                            "points regressed beyond --threshold "
                            "(inspection-only runs)")
    bench.add_argument("--strict", action="store_true",
                       help="disable quiescence skipping (A/B runs; "
                            "compared only against a strict baseline)")
    bench.add_argument("--profile", action="store_true",
                       help="also cProfile one run per measured point "
                            "and write the top functions next to the "
                            "result JSON (<out>_profile.txt)")
    bench.add_argument("--profile-top", type=int, default=25,
                       help="functions per point in the profile "
                            "artifact (default 25)")

    report = sub.add_parser(
        "report",
        help="regenerate every figure into one markdown report",
    )
    report.add_argument("--out", default=None,
                        help="write the report to a file (default stdout)")
    report.add_argument("--subset", nargs="*", default=None)
    report.add_argument("--channels", type=int, default=None)
    _add_orchestrator_args(report)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP job API (async submissions, dedup against "
             "the result store, streaming progress; docs/SERVICE.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="listen port (0 = pick a free one)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="content-addressed result cache directory")
    serve.add_argument("--channels", type=int, default=None,
                       help="simulate a smaller GPU (memory channels)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent job executions (threads); 0 = "
                            "pure coordinator, only 'repro worker' "
                            "processes drain the queue")
    serve.add_argument("--per-tenant", type=int, default=None,
                       help="max concurrent executions per tenant, "
                            "threads and claims together (default: "
                            "no cap)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="queued executions before 429 backpressure")
    serve.add_argument("--sim-workers", type=int, default=1,
                       help="process-pool workers per execution "
                            "(1 = inline)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-point timeout in seconds")
    serve.add_argument("--retries", type=int, default=1,
                       help="attempts per point beyond the first")
    serve.add_argument("--ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="evict store entries idle longer than this")
    serve.add_argument("--max-entries", type=int, default=None,
                       help="LRU-bound the store to this many entries")
    serve.add_argument("--claim-ttl", type=float, default=120.0,
                       metavar="SECONDS",
                       help="worker lease duration; an expired lease "
                            "requeues the point (default 120)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")

    worker = sub.add_parser(
        "worker",
        help="claim and execute sweep points from a running service "
             "(the pull-based claim loop; docs/SERVICE.md)",
    )
    worker.add_argument("--url", "--connect", dest="url",
                        default="http://127.0.0.1:8000",
                        help="service base URL to claim from")
    worker.add_argument("--name", default=None,
                        help="worker name shown in service stats "
                             "(default host-pid)")
    worker.add_argument("--channels", type=int, default=None,
                        help="simulate a smaller GPU; MUST match the "
                             "server's --channels")
    worker.add_argument("--store", default=None, metavar="DIR",
                        help="optional local result store (doubles as "
                             "a cache for repeated points)")
    worker.add_argument("--poll", type=float, default=1.0,
                        metavar="SECONDS",
                        help="idle poll interval (default 1s)")
    worker.add_argument("--max-points", type=int, default=None,
                        help="exit after executing this many points")
    worker.add_argument("--idle-exit", type=float, default=None,
                        metavar="SECONDS",
                        help="exit after this long with nothing to "
                             "claim (default: poll forever)")

    submit = sub.add_parser(
        "submit", help="submit a job to a running service",
    )
    submit.add_argument("--url", default="http://127.0.0.1:8000",
                        help="service base URL")
    submit.add_argument("--bench", default=None,
                        help="benchmark abbreviation for a single point")
    submit.add_argument("--arch", type=_architecture,
                        default=Architecture.NUBA)
    submit.add_argument(
        "--replication",
        choices=[p.value for p in ReplicationPolicy],
        default=ReplicationPolicy.MDR.value,
    )
    submit.add_argument(
        "--page-policy",
        choices=[p.value for p in PagePolicy],
        default=PagePolicy.LAB.value,
    )
    submit.add_argument("--figure", default=None,
                        choices=sorted(FIGURES),
                        help="submit a whole figure's sweep instead")
    submit.add_argument("--subset", nargs="*", default=None,
                        help="benchmarks for --figure")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--stream", action="store_true",
                        help="stream progress events until done")
    submit.add_argument("--wait", action="store_true",
                        help="block until finished and print results")

    status = sub.add_parser(
        "status", help="show a job (or all jobs) on a running service",
    )
    status.add_argument("job", nargs="?", default=None,
                        help="job id (omit to list all jobs)")
    status.add_argument("--url", default="http://127.0.0.1:8000")

    fetch = sub.add_parser(
        "fetch", help="fetch a finished job's results as JSON",
    )
    fetch.add_argument("job", help="job id")
    fetch.add_argument("--url", default="http://127.0.0.1:8000")
    fetch.add_argument("--wait", type=float, default=None,
                       metavar="SECONDS",
                       help="block server-side up to SECONDS")

    store = sub.add_parser(
        "store", help="administer a result-store directory",
    )
    store.add_argument("action", choices=["ls", "gc", "clear"])
    store.add_argument("--dir", default="results", metavar="DIR",
                       help="store directory (default results/)")
    store.add_argument("--max-age", type=float, default=None,
                       metavar="SECONDS",
                       help="gc: evict entries idle longer than this")
    store.add_argument("--max-entries", type=int, default=None,
                       help="gc: keep at most this many entries (LRU)")

    lint = sub.add_parser(
        "lint",
        help="run the AST invariant checkers over src/repro "
             "(docs/LINT.md)",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint "
                           "(default: all of src/repro)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the findings report as JSON")
    lint.add_argument("--out", default=None, metavar="PATH",
                      help="also write the report to PATH")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="suppression baseline "
                           "(default: <repo>/lint-baseline.json)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="append current new findings to the baseline "
                           "(notes must then be filled in by hand)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--verbose", action="store_true",
                      help="also list baselined findings")
    return parser


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome-trace JSON (Perfetto / "
                             "chrome://tracing)")
    parser.add_argument("--timeline", default=None, metavar="PATH",
                        help="write a fixed-interval timeline CSV")
    parser.add_argument("--interval", type=int, default=500,
                        help="timeline sampling interval in cycles")


def _shard_spec(text: str):
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard spec must look like i/N (e.g. 0/2), got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"bad shard {text!r}: need 0 <= i < N"
        )
    return index, count


def _add_orchestrator_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="simulation worker processes (1 = inline)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-point timeout in seconds (every "
                             "concurrent backend; inline runs ignore "
                             "it)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="persist results under DIR; reruns resume "
                             "from it instead of re-simulating")


def _cmd_list() -> int:
    rows = [
        [bench.abbr, bench.name, bench.sharing,
         f"{bench.footprint_mb:g} MB", f"{bench.ro_shared_mb:g} MB"]
        for bench in BENCHMARKS.values()
    ]
    print(format_table(
        ["abbr", "name", "sharing", "paper footprint", "paper RO-shared"],
        rows,
    ))
    return 0


def _cmd_run(args) -> int:
    gpu = small_config()
    if args.noc_gbps is not None:
        from dataclasses import replace
        gpu = replace(gpu, noc=gpu.noc.with_bandwidth(args.noc_gbps))
    topo = TopologySpec(
        architecture=args.arch,
        replication=ReplicationPolicy(args.replication),
        page_policy=PagePolicy(args.page_policy),
        mdr_epoch=2000,
    )
    system = build_system(gpu, topo)
    tracer, timeline = _attach_observability(system, args)
    workload = get_benchmark(args.bench).instantiate(gpu)
    result = system.run_workload(workload)
    print(format_table(["metric", "value"], [
        ["architecture", result.architecture],
        ["cycles", result.cycles],
        ["instructions", result.instructions],
        ["IPC", f"{result.ipc:.3f}"],
        ["replies/cycle", f"{result.replies_per_cycle:.3f}"],
        ["local L1 misses", f"{result.local_fraction * 100:.1f}%"],
        ["LLC hit rate", f"{result.llc_hit_rate * 100:.1f}%"],
        ["DRAM lines", result.dram_lines],
        ["NoC bytes", result.noc_bytes],
        ["NoC energy share", f"{result.energy.noc_fraction * 100:.1f}%"],
    ]))
    _export_observability(tracer, timeline, args)
    return 0


def _attach_observability(system, args):
    """Attach tracer/timeline per the ``--trace``/``--timeline`` flags."""
    from repro.obs import TimelineCollector, Tracer
    tracer = timeline = None
    if args.trace:
        max_events = getattr(args, "max_events", None)
        tracer = (Tracer.attach(system, max_events=max_events)
                  if max_events else Tracer.attach(system))
    if args.timeline:
        timeline = TimelineCollector.attach(system,
                                            interval=args.interval)
    return tracer, timeline


def _export_observability(tracer, timeline, args) -> None:
    """Write the artifacts the flags asked for and say where they went."""
    from repro.obs import write_chrome_trace
    if tracer is not None:
        events = write_chrome_trace(args.trace, tracer, timeline)
        dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
        print(f"\nwrote {args.trace}: {events} trace events{dropped}")
    if timeline is not None:
        from repro.analysis.timeline import timeline_chart
        timeline.write_csv(args.timeline)
        print(f"wrote {args.timeline}: {len(timeline)} samples x "
              f"{len(timeline.columns)} columns")
        print(timeline_chart(timeline))


def _cmd_trace(args) -> int:
    from repro.analysis.timeline import timeline_chart
    from repro.obs import TickProfiler, TimelineCollector, Tracer
    gpu = (small_config(num_channels=args.channels)
           if args.channels else small_config())
    topo = TopologySpec(
        architecture=args.arch,
        replication=ReplicationPolicy(args.replication),
        mdr_epoch=2000,
    )
    system = build_system(gpu, topo)
    tracer = (Tracer.attach(system, max_events=args.max_events)
              if args.max_events else Tracer.attach(system))
    timeline = TimelineCollector.attach(system, interval=args.interval)
    profiler = TickProfiler.attach(system.sim) if args.profile else None
    workload = get_benchmark(args.bench).instantiate(gpu)
    result = system.run_workload(workload)

    from repro.obs import write_chrome_trace
    events = write_chrome_trace(args.out, tracer, timeline)
    counts = ", ".join(
        f"{cat}={count}"
        for cat, count in sorted(tracer.category_counts().items())
    )
    print(f"{args.bench} on {result.architecture}: {result.cycles} "
          f"cycles, {result.loads_completed} loads")
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    print(f"wrote {args.out}: {events} trace events{dropped} [{counts}]")
    if args.timeline:
        timeline.write_csv(args.timeline)
        print(f"wrote {args.timeline}: {len(timeline)} samples x "
              f"{len(timeline.columns)} columns")
    windows = timeline.replication_windows()
    if windows:
        spans = ", ".join(f"{start}-{end}" for start, end in windows)
        print(f"MDR replication windows: {spans}")
    print(timeline_chart(timeline))
    if profiler is not None:
        profiler.detach()
        print(profiler.report())
    return 0


def _cmd_compare(args) -> int:
    gpu = small_config()
    rows = []
    results = {}
    for label, arch, rep in [
        ("mem-side UBA", Architecture.MEM_SIDE_UBA, ReplicationPolicy.NONE),
        ("NUBA (LAB+MDR)", Architecture.NUBA, ReplicationPolicy.MDR),
    ]:
        topo = TopologySpec(architecture=arch, replication=rep,
                            mdr_epoch=2000)
        system = build_system(gpu, topo)
        workload = get_benchmark(args.bench).instantiate(gpu)
        results[label] = system.run_workload(workload)
        result = results[label]
        rows.append([
            label, result.cycles,
            f"{result.replies_per_cycle:.3f}",
            f"{result.local_fraction * 100:.0f}%",
            f"{result.energy.noc:.0f}",
        ])
    print(format_table(
        ["config", "cycles", "replies/cycle", "local", "NoC energy"],
        rows,
    ))
    speedup = results["NUBA (LAB+MDR)"].speedup_over(
        results["mem-side UBA"]
    )
    print(f"\nNUBA speedup: {speedup:.3f}x")
    return 0


DEFAULT_SUBSET = ["KMEANS", "DWT2D", "LBM", "AN", "2MM", "BT", "SC"]


def _make_runner(channels: Optional[int],
                 store_dir: Optional[str] = None,
                 observer=None) -> ExperimentRunner:
    store = None
    if store_dir:
        from repro.experiments.store import ResultStore
        store = ResultStore(store_dir)
    gpu = None
    if channels is not None:
        gpu = small_config(num_channels=channels)
    return ExperimentRunner(base_gpu=gpu, store=store, observer=observer)


def _figure_subset(args) -> Optional[List[str]]:
    if args.full:
        return None
    if args.subset:
        return args.subset
    return DEFAULT_SUBSET


def _sweep_backend(args):
    """Build the executor backend the sweep flags ask for (or None)."""
    endpoints = getattr(args, "endpoint", None) or []
    if len(endpoints) > 1:
        raise SystemExit(
            "sweep: --endpoint takes one coordinator URL; add machines "
            "by running 'repro worker --connect URL' against it"
        )
    shard = getattr(args, "shard", None)
    inner = None
    if endpoints:
        from repro.orchestrator import RemoteExecutor
        inner = RemoteExecutor(endpoints[0])
    if shard is not None:
        from repro.orchestrator import ShardedExecutor
        return ShardedExecutor(shard[0], shard[1], inner)
    return inner


def _prewarm(runner: ExperimentRunner, names, subset, args) -> int:
    """Run the named figures' sweeps through the orchestrator; returns
    the number of permanently failed points."""
    from repro.orchestrator import (
        ProgressReporter,
        SweepOrchestrator,
        figure_sweep,
    )
    sweeps = [figure_sweep(name, runner, subset) for name in names]
    sweeps = [sweep for sweep in sweeps if len(sweep)]
    if not sweeps:
        return 0
    orchestrator = SweepOrchestrator(
        runner, workers=args.workers, timeout=args.timeout,
        progress=ProgressReporter(),
        backend=_sweep_backend(args),
    )
    report = orchestrator.run(*sweeps)
    print(f"sweep: {report.summary()}", file=sys.stderr)
    for failure in report.failures:
        print(f"sweep: FAILED {failure.label} after {failure.attempts} "
              f"attempts: {failure.error}", file=sys.stderr)
    return len(report.failures)


def _cmd_figure(args) -> int:
    observer = None
    if args.trace or args.timeline:
        from repro.obs import RunObserver
        observer = RunObserver(trace_dir=args.trace,
                               timeline_dir=args.timeline,
                               interval=args.interval)
    runner = _make_runner(args.channels, args.store, observer)
    subset = _figure_subset(args)
    if args.workers > 1:
        _prewarm(runner, [args.name], subset, args)
    result = FIGURES[args.name](runner, subset)
    print(result.render())
    if observer is not None:
        for line in observer.summary():
            print(f"observed {line}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    runner = _make_runner(args.channels, args.store)
    subset = _figure_subset(args)
    names = sorted(FIGURES) if "all" in args.names else list(
        dict.fromkeys(args.names)
    )
    sharded = args.shard is not None and args.shard[1] > 1
    if sharded and not args.no_render:
        # Rendering needs every point; a shard deliberately only
        # simulates its own subset, so rendering here would silently
        # simulate the other shards' points inline.
        print("sweep: --shard implies --no-render (merge by re-running "
              "unsharded with the same --store)", file=sys.stderr)
        args.no_render = True
    failed = _prewarm(runner, names, subset, args)
    if sharded:
        index, count = args.shard
        print(f"sweep: shard {index}/{count} done; run the other "
              f"shards, then re-run unsharded with the same --store "
              f"to merge and complete stragglers", file=sys.stderr)
    if not args.no_render:
        sections = [FIGURES[name](runner, subset).render()
                    for name in names]
        print("\n\n".join(sections))
    return 1 if failed else 0


REPORT_FIGURES = ("table2", "fig3", "fig7", "fig8", "fig9", "fig11",
                  "fig12", "fig13")


def _cmd_bench_perf(args) -> int:
    import os
    from repro.experiments import benchperf

    if args.compare:
        old = benchperf.load_report(args.compare[0])
        new = benchperf.load_report(args.compare[1])
        for line in benchperf.delta_table(old, new):
            print(line)
        # The delta table doubles as a regression gate: any point
        # present in both reports that lost more than --threshold of
        # its (median-preferred) cycles/sec fails the command unless
        # --no-fail turns it back into an inspection-only run.
        if old.get("mode") != new.get("mode"):
            return 0  # different engines: deltas are not a gate
        old_points = old.get("points", {})
        regressed = []
        for name, new_point in new.get("points", {}).items():
            old_point = old_points.get(name)
            if old_point is None:
                continue
            old_cps = benchperf.gate_cps(old_point)
            new_cps = benchperf.gate_cps(new_point)
            ratio = (new_cps / old_cps) if old_cps else float("inf")
            if ratio < 1.0 - args.threshold:
                regressed.append(name)
        if regressed:
            print(f"\n{len(regressed)} point(s) regressed more than "
                  f"{args.threshold * 100:.0f}%: {', '.join(regressed)}")
            if args.no_fail:
                print("--no-fail: exiting 0 anyway")
                return 0
            return 1
        return 0

    def progress(name: str) -> None:
        print(f"bench-perf: measuring {name} ...", file=sys.stderr)

    payload = benchperf.run_matrix(
        quick=args.quick, repeats=args.repeats, strict=args.strict,
        progress=progress,
    )
    rows = [
        [name, point["cycles"], f"{point['wall_seconds']:.2f}",
         f"{point['cycles_per_second']:.0f}",
         f"{point['cycles_per_second_median']:.0f}",
         f"{point['wall_seconds_stdev']:.3f}",
         point["ticks_executed"], point["ticks_elided"]]
        for name, point in payload["points"].items()
    ]
    print(format_table(
        ["point", "cycles", "wall s", "cycles/s",
         "median c/s", "sd s", "ticks", "elided"], rows,
    ))
    benchperf.write_report(args.out, payload)
    print(f"wrote {args.out}")
    if args.profile:
        keys = (benchperf.QUICK_MATRIX if args.quick
                else benchperf.MATRIX)
        print("bench-perf: profiling ...", file=sys.stderr)
        artifact = benchperf.profile_matrix(
            keys, top=args.profile_top, strict=args.strict,
        )
        root, _ = os.path.splitext(args.out)
        profile_path = f"{root}_profile.txt"
        with open(profile_path, "w") as handle:
            handle.write(artifact)
        print(f"wrote {profile_path}")
    if args.update_baseline:
        benchperf.write_report(args.baseline, payload)
        print(f"updated baseline {args.baseline}")
        return 0
    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}; skipping comparison "
              f"(create one with --update-baseline)")
        return 0
    baseline = benchperf.load_report(args.baseline)
    lines, regressions = benchperf.compare(
        payload, baseline, threshold=args.threshold,
    )
    print()
    for line in lines:
        print(line)
    if regressions:
        print(f"\nFAIL: {len(regressions)} point(s) regressed more than "
              f"{args.threshold * 100:.0f}%: {', '.join(regressions)}")
        return 1
    print(f"\nwithin {args.threshold * 100:.0f}% of baseline")
    return 0


def _cmd_report(args) -> int:
    runner = _make_runner(args.channels, args.store)
    subset = args.subset or DEFAULT_SUBSET
    if args.workers > 1:
        _prewarm(runner, list(REPORT_FIGURES), subset, args)
    sections = []
    for name in REPORT_FIGURES:
        result = FIGURES[name](runner, subset)
        sections.append(result.render())
    text = "\n\n".join(sections) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out} ({runner.simulations_run} simulations)")
    else:
        print(text)
    return 0


def _cmd_serve(args) -> int:
    from repro.service import JobManager, ServiceServer
    runner = _make_runner(args.channels, args.store)
    manager = JobManager(
        runner,
        workers=args.workers,
        per_tenant=args.per_tenant,
        queue_limit=args.queue_limit,
        sim_workers=args.sim_workers,
        timeout=args.timeout,
        retries=args.retries,
        store_ttl_seconds=args.ttl,
        store_max_entries=args.max_entries,
        claim_ttl_seconds=args.claim_ttl,
    )
    server = ServiceServer(manager, host=args.host, port=args.port,
                           quiet=not args.verbose)
    workers_desc = (f"{args.workers} workers" if args.workers
                    else "0 workers (coordinator; drain with "
                         "'repro worker')")
    print(f"repro service listening on {server.url} "
          f"({workers_desc}, queue limit {args.queue_limit}, "
          f"store {args.store or 'none (in-memory cache only)'})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        server.stop()
    return 0


def _cmd_worker(args) -> int:
    from repro.service import ServiceError, ServiceWorker
    gpu = (small_config(num_channels=args.channels)
           if args.channels else None)
    store = None
    if args.store:
        from repro.experiments.store import ResultStore
        store = ResultStore(args.store)
    try:
        worker = ServiceWorker.from_service(
            args.url, base_gpu=gpu, store=store,
            name=args.name, poll_seconds=args.poll,
        )
    except (ServiceError, OSError) as exc:
        print(f"worker: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    print(f"worker {worker.name}: claiming from {args.url} "
          f"(settings {worker.runner.cache_settings()})", flush=True)
    try:
        worker.run(max_points=args.max_points, idle_exit=args.idle_exit)
    except KeyboardInterrupt:
        print("worker: interrupted", file=sys.stderr)
    print(f"worker {worker.name}: {worker.completed} completed, "
          f"{worker.failed} failed, {worker.claimed} claimed")
    return 0


def _cmd_submit(args) -> int:
    from repro.experiments.runner import RunKey
    from repro.service import ServiceClient, ServiceError
    client = ServiceClient(args.url)
    try:
        if args.figure:
            job = client.submit(figure=args.figure, subset=args.subset,
                                tenant=args.tenant)
        elif args.bench:
            key = RunKey(
                args.bench, args.arch,
                replication=ReplicationPolicy(args.replication),
                page_policy=PagePolicy(args.page_policy),
            )
            job = client.submit(points=[(None, key)], tenant=args.tenant)
        else:
            print("submit needs --bench or --figure", file=sys.stderr)
            return 2
        print(f"submitted {job['id']}: {job['state']}, "
              f"{job['points_total']} point(s)")
        if args.stream:
            for event in client.events(job["id"]):
                print(json.dumps(event))
        if args.wait or args.stream:
            payload = client.result(job["id"], wait=None if args.stream
                                    else 3600.0)
            print(json.dumps(payload, indent=2))
            return 0 if payload["state"] == "done" else 1
        return 0
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        if exc.retry_after is not None:
            print(f"retry after {exc.retry_after:.0f}s", file=sys.stderr)
        return 1


def _cmd_status(args) -> int:
    from repro.service import ServiceClient, ServiceError
    client = ServiceClient(args.url)
    try:
        if args.job:
            print(json.dumps(client.job(args.job), indent=2))
            return 0
        jobs = client.jobs()
        if not jobs:
            print("no jobs")
            return 0
        rows = [
            [job["id"], job["tenant"], job["state"],
             f"{job['progress']['done']}/{job['progress']['total']}",
             job["name"]]
            for job in jobs
        ]
        print(format_table(["id", "tenant", "state", "done", "name"],
                           rows))
        return 0
    except ServiceError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1


def _cmd_fetch(args) -> int:
    from repro.service import ServiceClient, ServiceError
    client = ServiceClient(args.url)
    try:
        payload = client.result(args.job, wait=args.wait)
    except ServiceError as exc:
        print(f"fetch failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2))
    return 0 if payload["state"] == "done" else 1


def _cmd_store(args) -> int:
    from repro.experiments.store import ResultStore
    store = ResultStore(args.dir)
    if args.action == "ls":
        stats = store.stats()
        rows = [
            [entry["name"], entry["bytes"],
             f"{entry['idle_seconds']:.0f}s"]
            for entry in store.entries()
        ]
        if rows:
            print(format_table(["entry", "bytes", "idle"], rows))
        print(f"{stats['entries']} entries, {stats['bytes']} bytes")
        return 0
    if args.action == "gc":
        outcome = store.gc(max_age_seconds=args.max_age,
                           max_entries=args.max_entries)
        print(f"evicted {outcome['evicted']} entries, swept "
              f"{outcome['tmp_swept']} stale tmp files; "
              f"{outcome['entries']} remain")
        return 0
    if args.action == "clear":
        count = len(store)
        store.clear()
        print(f"cleared {count} entries from {args.dir}")
        return 0
    raise AssertionError("unreachable")


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.lint import (
        ALL_CHECKERS,
        lint_paths,
        load_baseline,
        render_json,
        render_text,
    )
    from repro.lint.report import render_rules
    from repro.lint.runner import repo_root

    if args.list_rules:
        print(render_rules(ALL_CHECKERS()))
        return 0
    baseline_path = (Path(args.baseline) if args.baseline
                     else repo_root() / "lint-baseline.json")
    baseline = load_baseline(baseline_path)
    result = lint_paths(args.paths or None, baseline=baseline)
    if args.update_baseline and result.new:
        real = [f for f in result.new if not f.rule.startswith("B")]
        baseline.extended_with(real).dump(baseline_path)
        print(f"added {len(real)} entries to {baseline_path}; "
              "fill in their `note` fields before committing")
        return 0
    report = render_json(result) if args.as_json else render_text(
        result, verbose=args.verbose)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
    print(report)
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "bench-perf":
        return _cmd_bench_perf(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "fetch":
        return _cmd_fetch(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
