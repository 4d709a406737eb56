"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig7-sweep --seed 1 --seconds 60 --trace 0

Workloads: ``fig7-sweep`` and ``latency-bound`` (see
``BENCHMARK.json`` for why each exists). ``--trace 0`` prints every
end-to-end metric, ``--trace 1`` every per-layer metric. Progress and
per-point detail go to stderr. The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it carries the workload's combined result digest. The exit
code is 1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    """Parse arguments, run the workload, print the result."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import bench  # imports the simulator; fails without its sources

    spec = bench.WORKLOADS.get(args.workload)
    if spec is None:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(bench.WORKLOADS)}")
    report = bench.run(spec, args.seed, args.seconds, bool(args.trace))
    units = bench.LAYER_UNITS if args.trace else bench.E2E_UNITS
    for problem in report.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for label, digest in report.points.items():
        print(f"{label:28s} {digest}", file=sys.stderr)
    for name, value in report.metrics.items():
        print(f"{name:28s} {value:16.6f} {units[name]}", file=sys.stderr)
    print(f"{report.repetitions} repetitions, {report.attempted} points "
          f"simulated, {report.failed} failed", file=sys.stderr)
    print(f"median host time {report.host_s:.3f} s per repetition, "
          f"reference pass {report.ref_s * 1e3:.3f} ms", file=sys.stderr)
    print(f"digest {args.workload} seed={args.seed} {report.digest}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report.metrics.items()},
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
