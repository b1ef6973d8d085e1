"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "mube" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.sources == 200
        assert args.choose == 10
        assert args.optimizer == "tabu"

    def test_trace_report_chrome_defaults_off(self):
        args = build_parser().parse_args(["trace-report", "t.jsonl"])
        assert args.chrome is None

    def test_runs_json_flags(self):
        assert build_parser().parse_args(["runs", "--json"]).as_json
        args = build_parser().parse_args(["runs", "show", "abc", "--json"])
        assert args.as_json


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "iteration 1" in out
        assert "search term" in out  # the bridging demo fired

    def test_solve_runs_small(self, capsys):
        assert (
            main(
                [
                    "solve", "--sources", "40", "--choose", "5",
                    "--iterations", "10", "--seed", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Solution:" in out
        assert "tabu:" in out

    def test_optimizers_table(self, capsys):
        assert (
            main(["optimizers", "--sources", "30", "--choose", "4"]) == 0
        )
        out = capsys.readouterr().out
        for name in ("tabu", "annealing", "local", "pso", "greedy", "random"):
            assert name in out

    def test_solve_trace_writes_jsonl(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "solve", "--sources", "30", "--choose", "4",
                    "--iterations", "6", "--trace", str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrote span trace" in out
        assert "match memo" in out
        entries = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        names = {e["name"] for e in entries if e["type"] == "span"}
        assert "session.solve" in names
        assert "search.solve" in names
        assert "search.iteration" in names
        assert "match.evaluate" in names
        assert "objective.evaluate" in names
        assert any(name.startswith("qef.") for name in names)
        (metrics,) = [e for e in entries if e["type"] == "metrics"]
        assert metrics["counters"]["search.solves"] == 1

    def test_solve_stats_prints_summary(self, capsys):
        assert (
            main(
                [
                    "solve", "--sources", "30", "--choose", "4",
                    "--iterations", "6", "--stats",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "telemetry: spans" in err
        assert "search.solve" in err
        assert "telemetry: counters" in err

    def test_discover_runs(self, capsys):
        assert (
            main(
                [
                    "discover", "title", "author",
                    "--per-domain", "20", "--hits", "10", "--choose", "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "hits for" in out
        assert "selected sources by domain" in out

    def test_discover_no_hits(self, capsys):
        assert (
            main(["discover", "zzzqqq", "--per-domain", "10"]) == 1
        )
        assert "no sources match" in capsys.readouterr().out

    def test_catalog_generate_and_inspect(self, capsys, tmp_path):
        out = tmp_path / "catalog.json"
        assert (
            main(["catalog", "--sources", "20", "--out", str(out)]) == 0
        )
        assert "20 sources" in capsys.readouterr().out
        assert main(["catalog", "--inspect", str(out)]) == 0
        assert "20 sources" in capsys.readouterr().out

    def test_catalog_other_domain(self, capsys):
        assert (
            main(
                ["catalog", "--sources", "10", "--domain", "airfares"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "10 sources" in out

    def test_figures_command(self, capsys, tmp_path):
        import json

        report = tmp_path / "bench.json"
        report.write_text(
            json.dumps(
                {
                    "benchmarks": [
                        {
                            "name": f"test_fig[{m}]",
                            "group": None,
                            "stats": {"mean": m / 10},
                            "extra_info": {"choose": m},
                        }
                        for m in (5, 10, 20)
                    ]
                }
            )
        )
        assert main(["figures", str(report)]) == 0
        out = capsys.readouterr().out
        assert "choose" in out
        assert "┤" in out

    def test_query_runs(self, capsys):
        assert (
            main(
                [
                    "query", "--sources", "30", "--choose", "4",
                    "--queries", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "complete" in out
        assert out.count("ms") >= 3


class TestExplainCommands:
    EXPLAIN_SMALL = [
        "explain", "--sources", "30", "--choose", "4", "--iterations", "8",
    ]

    def test_explain_prints_text_report(self, capsys):
        assert main(self.EXPLAIN_SMALL) == 0
        out = capsys.readouterr().out
        assert "Per-QEF decomposition" in out
        assert "Mediated-schema provenance" in out
        assert "Source attribution (leave-one-out ΔQ)" in out
        assert "Decision events" in out

    def test_explain_json_to_file(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "explanation.json"
        assert (
            main(
                [
                    *self.EXPLAIN_SMALL, "--format", "json",
                    "--out", str(out_file),
                ]
            )
            == 0
        )
        assert "wrote json explanation" in capsys.readouterr().out
        payload = json.loads(out_file.read_text())
        assert payload["selected"]
        assert payload["gas"]
        assert payload["event_counts"]["match.merge"] > 0

    def test_explain_markdown_format(self, capsys):
        assert main([*self.EXPLAIN_SMALL, "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "# Solve explanation" in out
        assert "| QEF | weight | score | contribution |" in out

    def test_solve_explain_writes_report_by_suffix(self, capsys, tmp_path):
        report = tmp_path / "why.md"
        assert (
            main(
                [
                    "solve", "--sources", "30", "--choose", "4",
                    "--iterations", "6", "--explain", str(report),
                ]
            )
            == 0
        )
        assert "wrote markdown explanation" in capsys.readouterr().out
        assert report.read_text().startswith("# Solve explanation")

    def test_trace_carries_decision_events_when_explaining(
        self, capsys, tmp_path
    ):
        import json

        trace = tmp_path / "trace.jsonl"
        report = tmp_path / "why.txt"
        assert (
            main(
                [
                    "solve", "--sources", "30", "--choose", "4",
                    "--iterations", "6", "--trace", str(trace),
                    "--explain", str(report),
                ]
            )
            == 0
        )
        capsys.readouterr()
        kinds = {
            json.loads(line)["kind"]
            for line in trace.read_text().splitlines()
            if json.loads(line)["type"] == "event"
        }
        assert "match.merge" in kinds
        assert "quality.scored" in kinds

    def test_trace_report_command(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "solve", "--sources", "30", "--choose", "4",
                    "--iterations", "6", "--trace", str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["trace-report", str(trace), "--tree"]) == 0
        out = capsys.readouterr().out
        assert "== time by span name ==" in out
        assert "== span tree ==" in out
        assert "session.solve" in out

    def test_trace_report_missing_file(self, capsys):
        assert main(["trace-report", "/nonexistent/trace.jsonl"]) == 2
        assert "cannot read trace file" in capsys.readouterr().err

    def test_trace_report_chrome_export(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "solve", "--sources", "30", "--choose", "4",
                    "--iterations", "6", "--trace", str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        chrome = tmp_path / "chrome.json"
        assert main(["trace-report", str(trace), "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "chrome trace events" in out
        document = json.loads(chrome.read_text(encoding="utf-8"))
        names = {
            e["name"] for e in document["traceEvents"] if e["ph"] == "X"
        }
        assert "session.solve" in names

    def test_trace_report_chrome_unwritable_path(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "solve", "--sources", "30", "--choose", "4",
                    "--iterations", "6", "--trace", str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        bad = tmp_path / "missing-dir" / "chrome.json"
        assert main(["trace-report", str(trace), "--chrome", str(bad)]) == 2
        assert "cannot write chrome trace" in capsys.readouterr().err


class TestSolveArgumentErrors:
    """A rejected solve argument is one ``error:`` line and exit code 2."""

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--portfolio", "tabu:0"], "worker count must be >= 1"),
            (["--worker-timeout", "0"], "worker_timeout must be > 0"),
            (["--jobs", "1", "--retries", "-1"], "retries must be >= 0"),
            (["--retries", "-1"], "retries must be >= 0"),
            (["--jobs", "0"], "jobs must be >= 1"),
        ],
    )
    def test_rejected_argument_exits_2_without_traceback(
        self, capsys, flags, message
    ):
        argv = ["solve", "--sources", "20", "--choose", "4"] + flags
        assert main(argv + ["--iterations", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert "Traceback" not in captured.err
        assert "Solution:" not in captured.out
