"""End-to-end run observatory: the run registry over real solves.

The acceptance contract: a fault-injected portfolio solve produces a run
record whose per-worker attempt counts, retries, timeouts, winner and
jobs match the final ``PortfolioStats``; every ``Session.solve`` appends
a record; and ``mube runs`` lists and renders them.
"""

import json

import pytest

from repro.cli import main
from repro.search import OptimizerConfig, ParallelSolveEngine, seeded_restarts
from repro.search.resilience import problem_fingerprint
from repro.session import Session
from repro.telemetry.observatory import build_run_record
from repro.testing import FaultPlan, FaultSpec

from ..search.test_optimizers import tiny_universe
from .conftest import CONFIG, faulted_portfolio


def make_session(**kwargs) -> Session:
    defaults = dict(
        universe=tiny_universe(),
        max_sources=4,
        optimizer_config=OptimizerConfig(max_iterations=20, patience=12, seed=5),
    )
    defaults.update(kwargs)
    return Session(**defaults)


@pytest.mark.parametrize("jobs", [1, 2])
class TestFaultedObservatory:
    def test_run_record_matches_portfolio_stats_under_faults(
        self, problem, start_method, jobs
    ):
        specs = seeded_restarts("local", 3, CONFIG)
        # Worker 0 crashes on its first attempt; worker 2 hangs past the
        # wall-clock budget.  Both recover on attempt 1.
        plan = FaultPlan(
            entries=(
                FaultSpec(worker=0, attempt=0, kind="crash"),
                FaultSpec(worker=2, attempt=0, kind="hang", seconds=0.4),
            )
        )
        result = ParallelSolveEngine(
            jobs=jobs,
            start_method=start_method,
            worker_timeout=10.0 if jobs > 1 else 0.15,
            retries=1,
        ).solve(problem, faulted_portfolio(specs, plan))

        record = build_run_record(
            result,
            fingerprint=problem_fingerprint(problem),
            optimizer="local",
        )
        stats = result.portfolio
        assert stats.workers[0].attempts == 2
        assert {
            w["index"]: w["attempts"] for w in record.workers
        } == {o.index: o.attempts for o in stats.workers}
        assert record.retries == stats.retries
        assert record.timeouts == stats.timeouts
        assert record.winner_index == stats.winner_index
        assert record.jobs == stats.jobs
        assert record.selection == tuple(sorted(result.solution.selected))


class TestSessionRunRecording:
    def test_every_solve_appends_a_record(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.jsonl"
        monkeypatch.setenv("MUBE_RUNS_PATH", str(path))
        session = make_session()
        iteration = session.solve()
        session.solve(jobs=1, portfolio="local:2", retries=1)

        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["command"] == "session.solve"
        assert first["quality"] == iteration.solution.quality
        assert first["fingerprint"] == problem_fingerprint(
            session.problem()
        )
        assert len(first["workers"]) == 1  # sequential pseudo-worker
        assert len(second["workers"]) == 2
        assert second["jobs"] == 1

    def test_record_runs_false_writes_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.jsonl"
        monkeypatch.setenv("MUBE_RUNS_PATH", str(path))
        make_session(record_runs=False).solve()
        assert not path.exists()

    def test_empty_env_disables_recording(self, monkeypatch):
        monkeypatch.setenv("MUBE_RUNS_PATH", "")
        session = make_session()
        assert session.run_registry is None
        session.solve()  # must not raise


class TestRunsCli:
    @pytest.fixture()
    def recorded(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.jsonl"
        monkeypatch.setenv("MUBE_RUNS_PATH", str(path))
        assert (
            main(
                [
                    "solve", "--sources", "20", "--choose", "4",
                    "--iterations", "8", "--jobs", "1",
                ]
            )
            == 0
        )
        return path

    def test_runs_lists_the_record(self, recorded, capsys):
        assert main(["runs"]) == 0
        out = capsys.readouterr().out
        assert "session.solve" in out
        assert "RUN" in out

    def test_runs_show_renders_by_prefix(self, recorded, capsys):
        assert main(["runs"]) == 0
        table = capsys.readouterr().out.splitlines()
        run_id = table[1].split()[0]
        assert main(["runs", "show", run_id[:10]]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "winner" in out

    def test_runs_show_unknown_id_fails(self, recorded, capsys):
        assert main(["runs", "show", "zzz-does-not-exist"]) == 1
        assert "no run" in capsys.readouterr().err

    def test_runs_json_is_machine_readable(self, recorded, capsys):
        assert main(["runs", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert isinstance(records, list) and records
        assert records[0]["command"] == "session.solve"
        assert "run_id" in records[0]

    def test_runs_show_json_round_trips(self, recorded, capsys):
        assert main(["runs", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        run_id = records[0]["run_id"]
        assert main(["runs", "show", run_id, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["run_id"] == run_id
        assert record["workers"]

    def test_runs_json_empty_registry_is_valid_json(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("MUBE_RUNS_PATH", str(tmp_path / "void.jsonl"))
        assert main(["runs", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_runs_with_no_registry_is_not_an_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("MUBE_RUNS_PATH", str(tmp_path / "void.jsonl"))
        assert main(["runs"]) == 0
        assert "nothing recorded" in capsys.readouterr().out
