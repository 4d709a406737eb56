"""Command-line interface tests."""

import pytest

from repro.cli import FIGURES, _architecture, main
from repro.config.topology import Architecture


class TestParsing:
    def test_architecture_aliases(self):
        assert _architecture("uba") is Architecture.MEM_SIDE_UBA
        assert _architecture("NUBA") is Architecture.NUBA
        assert _architecture("sm-side-uba") is Architecture.SM_SIDE_UBA

    def test_unknown_architecture(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _architecture("tpu")

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_bench_is_optional(self):
        """`repro run --arch nuba --trace out.json` must work without
        --bench (defaults to KMEANS)."""
        import argparse
        from repro.cli import _build_parser
        args = _build_parser().parse_args(["run"])
        assert isinstance(args, argparse.Namespace)
        assert args.bench == "KMEANS"

    def test_trace_defaults(self):
        from repro.cli import _build_parser
        args = _build_parser().parse_args(["trace"])
        assert args.bench == "KMEANS"
        assert args.out == "trace.json"
        assert args.interval == 500

    def test_bench_perf_disable_rejects_retired_columnar_flag(self, capsys):
        from repro.cli import _build_parser
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["bench-perf", "--disable", "columnar_llc"])
        assert "unrecognized arguments: --disable" in capsys.readouterr().err

    def test_bench_perf_disable_rejects_unknown_flag(self, capsys):
        from repro.cli import _build_parser
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["bench-perf", "--quick", "--disable", "tlb_mru"])
        assert "unrecognized arguments: --disable" in capsys.readouterr().err

    def test_sweep_endpoint_selects_remote_backend(self):
        from repro.cli import _build_parser, _sweep_backend
        from repro.orchestrator import RemoteExecutor
        args = _build_parser().parse_args(
            ["sweep", "fig7", "--endpoint", "http://coord:8000/"])
        backend = _sweep_backend(args)
        assert isinstance(backend, RemoteExecutor)
        assert backend.url == "http://coord:8000"

    def test_sweep_without_endpoint_runs_locally(self):
        from repro.cli import _build_parser, _sweep_backend
        args = _build_parser().parse_args(["sweep", "fig7"])
        assert _sweep_backend(args) is None

    def test_sweep_rejects_second_endpoint(self):
        from repro.cli import _build_parser, _sweep_backend
        args = _build_parser().parse_args(
            ["sweep", "fig7", "--endpoint", "http://a:8000",
             "--endpoint", "http://b:8000"])
        with pytest.raises(SystemExit, match="repro worker --connect"):
            _sweep_backend(args)

    def test_sweep_backend_flag_is_gone(self):
        from repro.cli import _build_parser
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["sweep", "fig7", "--backend", "remote"])

    def test_figure_validates_name(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_every_paper_figure_has_a_cli_entry(self):
        expected = {"table2", "fig3", "fig7", "fig8", "fig9", "fig10",
                    "fig11", "fig12", "fig13", "fig14", "fig16", "sec76"}
        assert set(FIGURES) == expected


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "KMEANS" in out and "BICG" in out
        assert out.count("\n") >= 30  # 29 benchmarks + header

    def test_run(self, capsys):
        assert main(["run", "--bench", "AN", "--arch", "nuba"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "local L1 misses" in out

    def test_run_with_overrides(self, capsys):
        code = main([
            "run", "--bench", "KMEANS", "--arch", "uba",
            "--replication", "no-rep", "--page-policy", "round-robin",
            "--noc-gbps", "200",
        ])
        assert code == 0
        assert "mem-side-uba" in capsys.readouterr().out

    def test_run_with_trace_artifacts(self, tmp_path, capsys):
        """The acceptance path: run --trace emits Perfetto-loadable
        JSON and --timeline emits the CSV time series."""
        import json
        trace = tmp_path / "out.json"
        timeline = tmp_path / "timeline.csv"
        code = main([
            "run", "--bench", "AN", "--arch", "nuba",
            "--trace", str(trace), "--timeline", str(timeline),
        ])
        assert code == 0
        loaded = json.loads(trace.read_text())
        assert loaded["traceEvents"]
        assert all({"ph", "ts", "pid", "name"} <= set(e)
                   for e in loaded["traceEvents"])
        header = timeline.read_text().splitlines()[0]
        assert "npb" in header and "mdr_replicating" in header
        out = capsys.readouterr().out
        assert "trace events" in out

    def test_trace_subcommand(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        code = main([
            "trace", "--bench", "AN", "--channels", "4",
            "--out", str(out_path), "--profile",
        ])
        assert code == 0
        assert out_path.stat().st_size > 0
        out = capsys.readouterr().out
        assert "trace events" in out
        assert "tick profile" in out

    def test_compare(self, capsys):
        assert main(["compare", "--bench", "KMEANS"]) == 0
        out = capsys.readouterr().out
        assert "NUBA speedup" in out

    def test_figure_with_subset(self, capsys):
        code = main(["figure", "fig8", "--subset", "KMEANS"])
        assert code == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_bench_perf_compare_reports(self, tmp_path, capsys):
        """`bench-perf --compare OLD NEW` prints the delta table from
        the saved reports without measuring anything."""
        import json

        def report(points):
            return {"schema": "repro-bench-engine/1",
                    "mode": "quiescent", "points": points}

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(report({
            "KMEANS/nuba+mdr": {"cycles": 16128, "wall_seconds": 1.6,
                                "cycles_per_second": 10000.0},
            "AN/nuba": {"cycles": 39680, "wall_seconds": 4.0,
                        "cycles_per_second": 9920.0},
        })))
        new.write_text(json.dumps(report({
            "KMEANS/nuba+mdr": {"cycles": 16128, "wall_seconds": 1.2,
                                "cycles_per_second": 13440.0},
        })))
        assert main(["bench-perf", "--compare", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "1.34x" in out and "+34.4%" in out
        assert "only in old report" in out

    def test_bench_perf_compare_shows_executed_tick_ratio(
            self, tmp_path, capsys):
        """Reports carrying work counters get a new/old executed-tick
        ratio; a side without them (an older report) shows a dash."""
        import json

        def report(points):
            return {"schema": "repro-bench-engine/1",
                    "mode": "quiescent", "points": points}

        point = {"cycles": 1000, "wall_seconds": 1.0,
                 "cycles_per_second": 1000.0}
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(report({
            "A/uba": dict(point, ticks_executed=800),
            "B/nuba": dict(point),
        })))
        new.write_text(json.dumps(report({
            "A/uba": dict(point, ticks_executed=1200),
            "B/nuba": dict(point, ticks_executed=900),
        })))
        assert main(["bench-perf", "--compare", str(old), str(new)]) == 0
        rows = {line.split()[0]: line.split()
                for line in capsys.readouterr().out.splitlines()
                if line.startswith(("A/", "B/"))}
        assert rows["A/uba"][-1] == "1.50x"
        assert rows["B/nuba"][-1] == "-"


class TestReport:
    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main([
            "report", "--out", str(out),
            "--subset", "KMEANS", "--channels", "4",
        ])
        assert code == 0
        text = out.read_text()
        assert "Figure 7" in text and "Figure 13" in text
        assert "wrote" in capsys.readouterr().out

    def test_figure_with_channels(self, capsys):
        code = main(["figure", "fig9", "--subset", "KMEANS",
                     "--channels", "4"])
        assert code == 0
        assert "Figure 9" in capsys.readouterr().out
