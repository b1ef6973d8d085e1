"""The bench runner must discover every ``bench_*.py`` suite by glob.

``benchmarks/run_all.py`` is the CI entry point: a bench suite that the
glob misses silently never runs, so this pins the discovery contract —
new suites are picked up with no registration step, ``--only`` filters
by substring, and ``--list`` previews the roster without spawning any
pytest subprocesses.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def load_bench_module(filename: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{Path(filename).stem}", BENCH_DIR / filename
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_all = load_bench_module("run_all.py")


class TestDiscovery:
    def test_discovers_every_bench_file_sorted(self):
        stems = [bench.stem for bench in run_all.discover(None)]
        assert stems == sorted(stems)
        assert all(stem.startswith("bench_") for stem in stems)
        on_disk = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))
        assert stems == on_disk

    def test_known_suites_are_present(self):
        stems = {bench.stem for bench in run_all.discover(None)}
        assert "bench_batch_eval" in stems
        assert "bench_parallel" in stems

    def test_only_filters_by_substring(self):
        stems = [bench.stem for bench in run_all.discover("parallel")]
        assert stems == ["bench_parallel"]

    def test_unmatched_filter_is_empty(self):
        assert run_all.discover("no-such-bench") == []


class TestListFlag:
    def test_list_prints_the_roster_without_running(self, capsys):
        status = run_all.main(["--list"])
        out = capsys.readouterr().out.splitlines()
        assert status == 0
        assert out == [bench.stem for bench in run_all.discover(None)]

    def test_list_respects_only(self, capsys):
        status = run_all.main(["--list", "--only", "parallel"])
        assert status == 0
        assert capsys.readouterr().out.splitlines() == ["bench_parallel"]

    def test_unmatched_only_fails_clearly(self, capsys):
        status = run_all.main(["--list", "--only", "no-such-bench"])
        assert status == 2
        assert "no bench files match" in capsys.readouterr().err
