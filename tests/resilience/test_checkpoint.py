"""Checkpoint/resume: atomic snapshots, bit-identical restoration."""

import json
from dataclasses import replace

import pytest

from repro.exceptions import SearchError
from repro.search import (
    Checkpoint,
    ParallelSolveEngine,
    WorkerProgress,
    WorkerSpec,
    load_checkpoint,
    problem_fingerprint,
    resolve_optimizer_class,
    seeded_restarts,
    write_checkpoint,
)
from repro.search.base import Optimizer

from .conftest import CONFIG
from ..search.test_optimizers import tiny_problem


def engine(path, jobs=1, start_method=None):
    return ParallelSolveEngine(
        jobs=jobs,
        start_method=start_method,
        checkpoint=str(path),
    )


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        checkpoint = Checkpoint(
            fingerprint="abc",
            workers=(
                WorkerProgress(
                    index=0,
                    optimizer="tabu",
                    seed=3,
                    label="tabu[0]",
                    status="ok",
                    attempts=1,
                    selection=(1, 4),
                    stats={
                        "iterations": 5,
                        "evaluations": 40,
                        "elapsed_seconds": 0.1,
                        "best_found_at": 2,
                        "match_memo_hits": 0,
                        "match_memo_misses": 0,
                    },
                    trajectory=(0.1, 0.4),
                ),
                WorkerProgress(
                    index=1, optimizer="local", seed=4, label="local[0]"
                ),
            ),
            best_selection=(1, 4),
            best_objective=0.4,
            best_quality=0.4,
        )
        path = tmp_path / "solve.ckpt"
        write_checkpoint(path, checkpoint)
        assert load_checkpoint(path) == checkpoint
        assert not path.with_name(path.name + ".tmp").exists()

    def test_missing_file_is_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope.ckpt") is None

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SearchError, match="cannot read checkpoint"):
            load_checkpoint(path)

    def test_unknown_version_raises(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_text(
            json.dumps({"version": 99, "fingerprint": "x", "workers": []}),
            encoding="utf-8",
        )
        with pytest.raises(SearchError, match="checkpoint version"):
            load_checkpoint(path)

    def test_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "solve.ckpt"
        write_checkpoint(path, Checkpoint(fingerprint="f", workers=()))
        assert path.exists()


class TestProblemFingerprint:
    def test_stable_across_calls(self):
        assert problem_fingerprint(tiny_problem()) == problem_fingerprint(
            tiny_problem()
        )

    def test_sensitive_to_the_problem(self):
        base = problem_fingerprint(tiny_problem())
        assert problem_fingerprint(tiny_problem(theta=0.9)) != base
        assert problem_fingerprint(tiny_problem(max_sources=3)) != base


class TestSolveCheckpointing:
    def test_solve_writes_a_complete_snapshot(self, problem, tmp_path):
        path = tmp_path / "solve.ckpt"
        specs = seeded_restarts("local", 3, CONFIG)
        result = engine(path).solve(problem, specs)
        checkpoint = load_checkpoint(path)
        assert checkpoint is not None
        assert checkpoint.completed == 3
        assert checkpoint.fingerprint == problem_fingerprint(problem)
        assert checkpoint.best_selection == tuple(
            sorted(result.solution.selected)
        )
        assert checkpoint.best_objective == result.solution.objective

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resume_after_simulated_kill_is_bit_identical(
        self, problem, tmp_path, start_method, jobs
    ):
        """Kill the solve after two workers, resume, get the same answer.

        The kill is simulated by rewinding the finished checkpoint: one
        worker's entry is reset to pending, exactly the file a solve
        killed between that worker's start and finish would have left
        behind (writes are atomic per-outcome, so no other intermediate
        state exists).
        """
        path = tmp_path / "solve.ckpt"
        specs = seeded_restarts("local", 3, CONFIG)
        full = engine(path, jobs, start_method).solve(problem, specs)
        complete = load_checkpoint(path)

        rewound = [
            (
                replace(
                    entry,
                    status="pending",
                    attempts=0,
                    selection=None,
                    stats=None,
                    trajectory=(),
                )
                if entry.index == 2
                else entry
            )
            for entry in complete.workers
        ]
        write_checkpoint(
            path, replace(complete, workers=tuple(rewound))
        )

        resumed = engine(path, jobs, start_method).solve(problem, specs)
        assert resumed.solution.selected == full.solution.selected
        assert resumed.solution.objective == full.solution.objective
        assert resumed.solution.quality == full.solution.quality
        assert resumed.portfolio.resumed_workers == 2
        assert (
            resumed.portfolio.winner_index == full.portfolio.winner_index
        )
        for index in (0, 1):
            restored = resumed.portfolio.workers[index]
            original = full.portfolio.workers[index]
            assert restored.resumed
            assert (
                restored.result.solution.selected
                == original.result.solution.selected
            )
            assert (
                restored.result.solution.objective
                == original.result.solution.objective
            )

    def test_resume_of_a_finished_solve_reruns_nothing(
        self, problem, tmp_path
    ):
        path = tmp_path / "solve.ckpt"
        specs = seeded_restarts("local", 2, CONFIG)
        first = engine(path).solve(problem, specs)
        second = engine(path).solve(problem, specs)
        assert second.portfolio.resumed_workers == 2
        assert all(o.resumed for o in second.portfolio.workers)
        assert second.solution.selected == first.solution.selected
        assert second.solution.objective == first.solution.objective

    def test_failed_workers_are_restored_as_failures(
        self, problem, tmp_path
    ):
        from repro.testing import FaultPlan, FaultSpec, faulty_spec

        path = tmp_path / "solve.ckpt"
        specs = seeded_restarts("local", 2, CONFIG)
        plan = FaultPlan(
            entries=(FaultSpec(worker=1, attempt=0, kind="crash"),)
        )
        faulted = tuple(
            faulty_spec(i, spec, plan) for i, spec in enumerate(specs)
        )
        engine(path).solve(problem, faulted)
        resumed = engine(path).solve(problem, faulted)
        outcome = resumed.portfolio.workers[1]
        assert outcome.resumed and not outcome.ok
        assert "FaultInjected" in outcome.error

    def test_fingerprint_mismatch_refuses_to_resume(
        self, problem, tmp_path
    ):
        path = tmp_path / "solve.ckpt"
        specs = seeded_restarts("local", 2, CONFIG)
        engine(path).solve(problem, specs)
        other = tiny_problem(theta=0.9)
        with pytest.raises(SearchError, match="different problem"):
            engine(path).solve(other, specs)

    def test_portfolio_shape_mismatch_refuses_to_resume(
        self, problem, tmp_path
    ):
        path = tmp_path / "solve.ckpt"
        engine(path).solve(problem, seeded_restarts("local", 2, CONFIG))
        with pytest.raises(SearchError, match="records 2 workers"):
            engine(path).solve(
                problem, seeded_restarts("local", 3, CONFIG)
            )

    def test_spec_mismatch_refuses_to_resume(self, problem, tmp_path):
        path = tmp_path / "solve.ckpt"
        engine(path).solve(problem, seeded_restarts("local", 2, CONFIG))
        with pytest.raises(SearchError, match="does not match"):
            engine(path).solve(
                problem, seeded_restarts("tabu", 2, CONFIG)
            )

    @pytest.mark.parametrize(
        "bad_stats", [None, {"bogus": 1}], ids=["null", "wrong-fields"]
    )
    def test_malformed_worker_payload_raises_search_error(
        self, problem, tmp_path, bad_stats
    ):
        """A torn per-worker payload keeps the SearchError contract.

        The version guard only vouches for the top-level layout; an
        ``ok`` entry whose stats were hand-edited (or written by a build
        with different SearchStats fields) must surface as a
        SearchError naming the worker, not a raw TypeError.
        """
        path = tmp_path / "solve.ckpt"
        specs = seeded_restarts("local", 2, CONFIG)
        engine(path).solve(problem, specs)
        complete = load_checkpoint(path)
        mangled = tuple(
            replace(entry, stats=bad_stats) if entry.index == 0 else entry
            for entry in complete.workers
        )
        write_checkpoint(path, replace(complete, workers=mangled))
        with pytest.raises(SearchError, match="restore worker 0"):
            engine(path).solve(problem, specs)


class ProbeOptimizer(Optimizer):
    """Records the warm-start each solve hands its workers.

    A real optimizer installed by dotted path
    (``tests.resilience.test_checkpoint:ProbeOptimizer``), delegating
    to ``local`` so its results are genuine.  Inline (``jobs=1``)
    solves construct it in-process, so the recorded ``initial`` values
    are visible to the test.
    """

    name = "initial-probe"
    seen: list = []

    def _optimize(self, objective, initial=None):
        ProbeOptimizer.seen.append(initial)
        cls = resolve_optimizer_class("local")
        return cls(self.config).optimize(objective, initial=initial)


class TestResumeWarmStart:
    """An explicit caller ``initial`` must survive a resume.

    Warm-starting pending workers from the snapshot's best selection is
    the default — but only a default: the checkpoint must never
    override what the caller asked for.
    """

    def _probe_resume(self, problem, tmp_path, initial):
        path = tmp_path / "solve.ckpt"
        specs = tuple(
            WorkerSpec(
                optimizer="tests.resilience.test_checkpoint:ProbeOptimizer",
                config=spec.config,
                label=spec.label,
            )
            for spec in seeded_restarts("local", 2, CONFIG)
        )
        engine(path).solve(problem, specs)
        complete = load_checkpoint(path)
        rewound = tuple(
            (
                replace(
                    entry,
                    status="pending",
                    attempts=0,
                    selection=None,
                    stats=None,
                    trajectory=(),
                )
                if entry.index == 1
                else entry
            )
            for entry in complete.workers
        )
        write_checkpoint(path, replace(complete, workers=rewound))
        ProbeOptimizer.seen.clear()
        engine(path).solve(problem, specs, initial=initial)
        return list(ProbeOptimizer.seen), complete.best_selection

    def test_checkpoint_best_warm_starts_by_default(
        self, problem, tmp_path
    ):
        seen, best = self._probe_resume(problem, tmp_path, initial=None)
        assert seen == [frozenset(best)]

    def test_explicit_caller_initial_wins_over_the_checkpoint(
        self, problem, tmp_path
    ):
        mine = frozenset({0})
        seen, _ = self._probe_resume(problem, tmp_path, initial=mine)
        assert seen == [mine]
