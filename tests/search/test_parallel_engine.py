"""Portfolio engine contracts: merge order, failure handling, early stop.

The merge must be a pure function of the worker list (never of
completion order), a crashing worker must degrade the portfolio instead
of killing it, an all-failed portfolio must raise a
:class:`~repro.exceptions.SearchError` naming every worker's reason, and
the early-stop channel must trip without leaking its installed stop
check into later sequential solves.  A pooled solve handed a prebuilt
similarity matrix and ``EvalContext`` must match the inline solve, also
after the pool is rebuilt or rotated.  ``MUBE_TEST_START_METHOD`` pins
fork/spawn for those, because the pool initializer that receives the
context is the code path that differs most between the two.
"""

from __future__ import annotations

import os
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.exceptions import SearchError
from repro.quality import Objective
from repro.run_context import current_run
from repro.search import (
    OptimizerConfig,
    ParallelSolveEngine,
    WorkerSpec,
    parse_portfolio,
    render_portfolio,
    resolve_portfolio,
    seeded_restarts,
)
from repro.search.parallel import WorkerOutcome, select_winner
from repro.similarity import NameSimilarityMatrix, default_measure
from repro.testing import FaultPlan, FaultSpec, faulty_spec

from .test_optimizers import tiny_problem

CONFIG = OptimizerConfig(max_iterations=10, patience=8, seed=1)
POOL_CONFIG = OptimizerConfig(max_iterations=20, patience=14, seed=3)


@pytest.fixture(scope="session")
def start_method():
    """The pinned multiprocessing start method, or None for the default."""
    return os.environ.get("MUBE_TEST_START_METHOD") or None


def prebuilt_solve(jobs, start_method=None, plan=None, **recovery):
    """A three-worker tabu solve handed a prebuilt matrix and EvalContext.

    ``plan`` injects faults into the workers through
    :func:`~repro.testing.faulty_spec`; ``recovery`` holds the engine's
    ``worker_timeout`` / ``retries`` arguments.
    """
    problem = tiny_problem()
    similarity = NameSimilarityMatrix.build(
        problem.universe.attribute_names(), default_measure()
    )
    workers = seeded_restarts("tabu", 3, POOL_CONFIG)
    if plan is not None:
        workers = tuple(
            faulty_spec(index, spec, plan)
            for index, spec in enumerate(workers)
        )
    return ParallelSolveEngine(
        jobs=jobs, start_method=start_method, **recovery
    ).solve(
        problem,
        workers,
        similarity=similarity,
        eval_context=Objective(problem, similarity=similarity).context,
    )


def crashing_spec(seed: int = 99) -> WorkerSpec:
    # cooling=5.0 fails SimulatedAnnealing's constructor validation, so
    # the crash happens inside the worker, after dispatch.
    return WorkerSpec(
        optimizer="annealing",
        config=replace(CONFIG, seed=seed),
        params=(("cooling", 5.0),),
        label="boom",
    )


def outcome(index: int, objective: float, selected=(0,), feasible=True):
    """A synthetic worker outcome for merge-order tests."""
    solution = SimpleNamespace(
        objective=objective, feasible=feasible, selected=frozenset(selected)
    )
    return WorkerOutcome(
        index=index,
        label=f"w{index}",
        optimizer="tabu",
        seed=index,
        result=SimpleNamespace(solution=solution),
    )


class TestPortfolioConstruction:
    def test_parse_counts_names_and_consecutive_seeds(self):
        workers = parse_portfolio("tabu:2, local , annealing:1", CONFIG)
        assert [w.optimizer for w in workers] == [
            "tabu", "tabu", "local", "annealing",
        ]
        assert [w.seed for w in workers] == [1, 2, 3, 4]
        assert [w.label for w in workers] == [
            "tabu[0]", "tabu[1]", "local[0]", "annealing[0]",
        ]

    def test_parse_rejects_unknown_optimizer(self):
        with pytest.raises(SearchError, match="unknown optimizer 'nope'"):
            parse_portfolio("tabu:2,nope:1", CONFIG)

    def test_parse_rejects_bad_count(self):
        with pytest.raises(SearchError, match="bad worker count"):
            parse_portfolio("tabu:two", CONFIG)

    def test_parse_rejects_nonpositive_count(self):
        with pytest.raises(SearchError, match="must be >= 1"):
            parse_portfolio("tabu:0", CONFIG)

    def test_parse_rejects_empty_spec(self):
        with pytest.raises(SearchError, match="empty segment"):
            parse_portfolio(" , ", CONFIG)

    def test_parse_rejects_empty_interior_segment(self):
        with pytest.raises(SearchError, match="empty segment"):
            parse_portfolio("tabu:4,,local:2", CONFIG)

    def test_parse_rejects_missing_name(self):
        with pytest.raises(SearchError, match="missing optimizer name"):
            parse_portfolio(":2", CONFIG)

    def test_parse_rejects_dangling_colon(self):
        with pytest.raises(SearchError, match="missing worker count"):
            parse_portfolio("tabu:", CONFIG)

    def test_parse_rejects_negative_count(self):
        with pytest.raises(SearchError, match="must be >= 1"):
            parse_portfolio("tabu:-3", CONFIG)

    def test_resolve_none_is_seeded_restarts_of_the_default(self):
        workers = resolve_portfolio(None, 3, "local", CONFIG)
        assert workers == seeded_restarts("local", 3, CONFIG)

    def test_resolve_string_parses(self):
        workers = resolve_portfolio("tabu:2", 4, "local", CONFIG)
        assert [w.optimizer for w in workers] == ["tabu", "tabu"]

    def test_resolve_sequence_passes_through(self):
        explicit = seeded_restarts("pso", 2, CONFIG)
        assert resolve_portfolio(list(explicit), 8, "tabu", CONFIG) == explicit

    def test_restarts_require_at_least_one_worker(self):
        with pytest.raises(SearchError, match="at least one worker"):
            seeded_restarts("tabu", 0, CONFIG)


class TestDeterministicMerge:
    def test_winner_is_independent_of_outcome_order(self):
        outcomes = [
            outcome(0, 0.5), outcome(1, 0.9), outcome(2, 0.7),
        ]
        assert select_winner(outcomes).index == 1
        assert select_winner(list(reversed(outcomes))).index == 1

    def test_objective_ties_break_on_the_selection_key(self):
        a = outcome(0, 0.8, selected=(3, 7))
        b = outcome(1, 0.8, selected=(2, 9))  # (2, 9) < (3, 7)
        assert select_winner([a, b]).index == 1
        assert select_winner([b, a]).index == 1

    def test_full_ties_keep_the_earlier_worker(self):
        a = outcome(0, 0.8, selected=(1, 2))
        b = outcome(1, 0.8, selected=(1, 2))
        assert select_winner([b, a]).index == 0

    def test_feasible_beats_infeasible_at_equal_objective(self):
        a = outcome(0, 0.8, feasible=False)
        b = outcome(1, 0.8, feasible=True)
        assert select_winner([a, b]).index == 1

    def test_failed_outcomes_are_skipped(self):
        failed = WorkerOutcome(
            index=0, label="w0", optimizer="tabu", seed=0, error="boom"
        )
        assert select_winner([failed, outcome(1, 0.1)]).index == 1
        assert select_winner([failed]) is None


class TestFailureRobustness:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_crash_degrades_instead_of_failing(self, jobs):
        workers = (*seeded_restarts("tabu", 1, CONFIG), crashing_spec())
        result = ParallelSolveEngine(jobs=jobs).solve(
            tiny_problem(), workers
        )
        stats = result.portfolio
        assert stats.failed_workers == 1
        assert stats.succeeded_workers == 1
        assert stats.winner_index == 0
        crashed = stats.workers[1]
        assert not crashed.ok
        assert "ValueError" in crashed.error
        assert "cooling" in crashed.error

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_all_crashes_raise_with_per_worker_reasons(self, jobs):
        workers = (crashing_spec(1), crashing_spec(2))
        with pytest.raises(SearchError) as excinfo:
            ParallelSolveEngine(jobs=jobs).solve(tiny_problem(), workers)
        message = str(excinfo.value)
        assert "all 2 portfolio workers failed" in message
        assert "worker 0 (boom)" in message
        assert "worker 1 (boom)" in message
        assert "ValueError" in message

    def test_failure_counters_feed_portfolio_stats_totals(self):
        workers = (*seeded_restarts("tabu", 2, CONFIG), crashing_spec())
        result = ParallelSolveEngine(jobs=1).solve(tiny_problem(), workers)
        stats = result.portfolio
        # Totals count only survivors, so a crash cannot inflate them.
        assert stats.total_iterations == sum(
            o.result.stats.iterations for o in stats.workers if o.ok
        )
        assert stats.total_evaluations > 0


class TestEarlyStop:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reaching_the_bound_sets_early_stopped(self, jobs):
        # Any feasible solution has quality >= 0, so the first worker
        # always trips the bound.
        result = ParallelSolveEngine(jobs=jobs, stop_quality=0.0).solve(
            tiny_problem(), seeded_restarts("tabu", 2, CONFIG)
        )
        assert result.portfolio.early_stopped

    def test_unreachable_bound_never_stops(self):
        result = ParallelSolveEngine(jobs=1, stop_quality=2.0).solve(
            tiny_problem(), seeded_restarts("tabu", 2, CONFIG)
        )
        assert not result.portfolio.early_stopped

    def test_inline_stop_check_is_uninstalled_afterwards(self):
        engine = ParallelSolveEngine(jobs=1, stop_quality=0.0)
        engine.solve(tiny_problem(), seeded_restarts("tabu", 2, CONFIG))
        assert current_run().stop_check is None

    def test_early_stop_still_returns_the_merge_winner(self):
        result = ParallelSolveEngine(jobs=1, stop_quality=0.0).solve(
            tiny_problem(), seeded_restarts("tabu", 3, CONFIG)
        )
        stats = result.portfolio
        winner = stats.winner
        assert winner.ok
        assert result.solution == winner.result.solution


class TestEngineValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(SearchError, match="jobs must be >= 1"):
            ParallelSolveEngine(jobs=0)

    def test_empty_portfolio_rejected(self):
        with pytest.raises(SearchError, match="at least one worker"):
            ParallelSolveEngine(jobs=1).solve(tiny_problem(), ())

    def test_unknown_optimizer_rejected_before_launch(self):
        bogus = WorkerSpec(optimizer="warp", config=CONFIG)
        with pytest.raises(SearchError, match="unknown optimizer"):
            ParallelSolveEngine(jobs=1).solve(tiny_problem(), (bogus,))


class TestRendering:
    def test_render_marks_the_winner_and_the_failures(self):
        workers = (*seeded_restarts("tabu", 1, CONFIG), crashing_spec())
        result = ParallelSolveEngine(jobs=1).solve(tiny_problem(), workers)
        report = render_portfolio(result.portfolio)
        assert "portfolio: 2 workers" in report
        assert " * [0] tabu[0]" in report
        assert "FAILED: ValueError" in report


class TestPooledContext:
    def test_pooled_prebuilt_solve_matches_inline(self, start_method):
        inline = prebuilt_solve(jobs=1)
        pooled = prebuilt_solve(jobs=2, start_method=start_method)
        assert pooled.solution == inline.solution
        assert pooled.trajectory == inline.trajectory

    def test_matches_inline_after_broken_pool_rebuild(self, start_method):
        plan = FaultPlan(
            entries=(FaultSpec(worker=1, attempt=0, kind="break_pool"),)
        )
        result = prebuilt_solve(
            jobs=2, start_method=start_method, plan=plan, retries=1
        )
        assert result.portfolio.pool_rebuilds == 1
        assert all(outcome.ok for outcome in result.portfolio.workers)
        inline = prebuilt_solve(jobs=1)
        assert result.solution == inline.solution
        assert result.trajectory == inline.trajectory

    def test_matches_inline_after_pool_rotation(self, start_method):
        # Both slots hang past the deadline, so the hostage pool is
        # rotated out and the retries run on a fresh pool generation,
        # which receives the context again.
        plan = FaultPlan(
            entries=tuple(
                FaultSpec(worker=w, attempt=0, kind="hang", seconds=5.0)
                for w in (0, 1)
            )
        )
        result = prebuilt_solve(
            jobs=2, start_method=start_method, plan=plan,
            worker_timeout=1.0, retries=1,
        )
        assert result.portfolio.pool_rebuilds >= 1
        assert all(outcome.ok for outcome in result.portfolio.workers)
        inline = prebuilt_solve(jobs=1)
        assert result.solution == inline.solution
        assert result.trajectory == inline.trajectory
