"""The persistent run registry: records, appends, lookup, env plumbing."""

import json
from types import SimpleNamespace

from repro.telemetry.observatory import (
    RunRecord,
    RunRegistry,
    build_run_record,
    default_registry,
    new_run_id,
)
from repro.telemetry.observatory.registry import RUNS_PATH_ENV


def sequential_result(objective=0.8, quality=0.7):
    solution = SimpleNamespace(
        objective=objective,
        quality=quality,
        feasible=True,
        selected=frozenset({3, 1}),
    )
    stats = SimpleNamespace(
        iterations=10, evaluations=200, elapsed_seconds=0.5
    )
    return SimpleNamespace(solution=solution, stats=stats, portfolio=None)


def record(run_id=None, command="session.solve", status="ok", quality=0.5):
    return RunRecord(
        run_id=run_id or new_run_id(),
        started_at=0.0,
        command=command,
        fingerprint="f" * 12,
        optimizer="tabu",
        jobs=1,
        quality=quality,
        objective=quality,
        feasible=True,
        selection=(1, 3),
        iterations=5,
        evaluations=50,
        elapsed_seconds=0.1,
        status=status,
    )


class TestRunRecord:
    def test_roundtrips_through_dict(self):
        original = record()
        again = RunRecord.from_dict(original.to_dict())
        assert again == original

    def test_unknown_keys_are_dropped_on_load(self):
        original = record()
        data = original.to_dict()
        data["from_the_future"] = {"x": 1}
        # Records written before the live-progress path was removed
        # carry a heartbeat count; they still load, as version 1.
        data["heartbeats"] = 57
        loaded = RunRecord.from_dict(data)  # must not raise
        assert loaded == original
        assert loaded.version == 1

    def test_portfolio_counters_fold_back(self):
        data = record().to_dict()
        data["counters"] = {
            "portfolio.retries": 2,
            "portfolio.timeouts": 41,
            "search.solves": 3,
        }
        loaded = RunRecord.from_dict(data)
        assert loaded.portfolio_counters() == {
            "portfolio.retries": 2,
            "portfolio.timeouts": 41,
        }


class TestBuildRunRecord:
    def test_sequential_result_records_one_pseudo_worker(self):
        built = build_run_record(
            sequential_result(),
            fingerprint="abc",
            optimizer="tabu",
            seed=7,
        )
        assert built.jobs == 1
        assert built.selection == (1, 3)
        assert built.seeds == (7,)
        (worker,) = built.workers
        assert worker["status"] == "ok"
        assert worker["attempts"] == 1
        assert worker["seed"] == 7

    def test_counters_and_checkpoint_ride_along(self):
        built = build_run_record(
            sequential_result(),
            fingerprint="abc",
            checkpoint="solve.ckpt",
            counters={"runs.recorded": 1},
        )
        assert built.checkpoint == "solve.ckpt"
        assert built.counters == {"runs.recorded": 1}


class TestRunRegistry:
    def test_record_appends_one_json_line(self, tmp_path):
        registry = RunRegistry(tmp_path / "nested" / "runs.jsonl")
        registry.record(record(run_id="a"))
        registry.record(record(run_id="b"))
        lines = registry.path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["run_id"] == "a"

    def test_load_is_oldest_first_and_limit_keeps_newest(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs.jsonl")
        for run_id in ("a", "b", "c"):
            registry.record(record(run_id=run_id))
        assert [r.run_id for r in registry.load()] == ["a", "b", "c"]
        assert [r.run_id for r in registry.load(limit=2)] == ["b", "c"]

    def test_filters_by_status_and_command(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs.jsonl")
        registry.record(record(run_id="a", status="ok"))
        registry.record(record(run_id="b", status="failed"))
        registry.record(record(run_id="c", command="cli.solve"))
        assert [r.run_id for r in registry.load(status="failed")] == ["b"]
        assert [r.run_id for r in registry.load(command="cli")] == ["c"]

    def test_malformed_lines_are_skipped_and_counted(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs.jsonl")
        registry.record(record(run_id="good"))
        with open(registry.path, "a") as stream:
            stream.write("{torn line\n")
            stream.write(json.dumps({"not": "a record"}) + "\n")
        loaded = registry.load()
        assert [r.run_id for r in loaded] == ["good"]
        assert registry.skipped_lines == 2

    def test_find_matches_prefix_newest_wins(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs.jsonl")
        registry.record(record(run_id="20260101-090000-aaaaaa", quality=0.1))
        registry.record(record(run_id="20260101-100000-bbbbbb", quality=0.2))
        assert registry.find("20260101-090000-aaaaaa").quality == 0.1
        assert registry.find("20260101").quality == 0.2  # newest of two
        assert registry.find("nope") is None

    def test_missing_file_loads_empty(self, tmp_path):
        assert RunRegistry(tmp_path / "absent.jsonl").load() == []


class TestDefaultRegistry:
    def test_env_path_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(RUNS_PATH_ENV, str(tmp_path / "custom.jsonl"))
        registry = default_registry()
        assert registry.path == tmp_path / "custom.jsonl"

    def test_empty_env_disables_recording(self, monkeypatch):
        monkeypatch.setenv(RUNS_PATH_ENV, "")
        assert default_registry() is None


class TestRegistryFailureVisibility:
    """Write failures stay non-fatal but are counted and warned once."""

    class BrokenRegistry:
        def __init__(self):
            self.attempts = 0

        def record(self, record):
            self.attempts += 1
            raise OSError("disk full")

    def make_session(self):
        from repro.search import OptimizerConfig
        from repro.session import Session
        from repro.telemetry import Telemetry
        from repro.workload import theater_universe

        broken = self.BrokenRegistry()
        session = Session(
            theater_universe(0),
            run_registry=broken,
            telemetry=Telemetry(),
            optimizer_config=OptimizerConfig(max_iterations=10, seed=0),
        )
        return session, broken

    def test_failures_counted_and_warned_once_per_session(self):
        import warnings

        session, broken = self.make_session()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session.solve()
            session.solve()
        registry_warnings = [
            w for w in caught if "run-registry write failed" in str(w.message)
        ]
        # Both writes failed, but only the first one warned.
        assert broken.attempts == 2
        assert len(registry_warnings) == 1
        assert issubclass(registry_warnings[0].category, RuntimeWarning)
        counters = session.telemetry.metrics.snapshot()["counters"]
        assert counters["runs.record_failures"] == 2
        assert "runs.recorded" not in counters

    def test_solves_survive_the_broken_registry(self):
        session, _ = self.make_session()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            iteration = session.solve()
        assert iteration.result.solution.quality > 0
