"""BrokenProcessPool recovery: rebuild, requeue, degrade to in-process."""

from repro.search import ParallelSolveEngine, seeded_restarts
from repro.testing import FaultPlan, FaultSpec, faulty_spec

from .conftest import CONFIG


def break_plan(*coords):
    return FaultPlan(
        entries=tuple(
            FaultSpec(worker=w, attempt=a, kind="break_pool")
            for w, a in coords
        )
    )


def faulted_portfolio(specs, plan):
    return tuple(
        faulty_spec(index, spec, plan) for index, spec in enumerate(specs)
    )


class TestBrokenPoolRecovery:
    def test_break_rebuild_requeue_then_inline_success(
        self, problem, start_method
    ):
        """The full degradation ladder ends in the clean run's answer.

        The fault is keyed on (worker 1, attempt 0) and a requeue keeps
        the attempt number (requeued workers are innocent bystanders, not
        failures), so the sequence is forced: the first pool breaks, the
        rebuilt pool replays attempt 0 and breaks too, the engine falls
        back to in-process execution where the fault degrades to an
        exception, and the retry ladder finally runs attempt 1 clean.
        """
        specs = seeded_restarts("local", 3, CONFIG)
        clean = ParallelSolveEngine(
            jobs=2, start_method=start_method
        ).solve(problem, specs)

        plan = break_plan((1, 0))
        result = ParallelSolveEngine(
            jobs=2, start_method=start_method, retries=1
        ).solve(problem, faulted_portfolio(specs, plan))

        assert result.portfolio.pool_rebuilds == 1
        assert result.portfolio.requeues >= 2
        assert all(o.ok for o in result.portfolio.workers)
        assert result.solution.selected == clean.solution.selected
        assert result.solution.objective == clean.solution.objective
        assert result.portfolio.winner_index == clean.portfolio.winner_index

    def test_unretried_break_leaves_a_failed_outcome(
        self, problem, start_method
    ):
        # No retry budget: after the rebuilds are spent the worker fails
        # in the inline fallback (where the fault raises), and the solve
        # still returns the surviving workers' best.
        specs = seeded_restarts("local", 2, CONFIG)
        plan = break_plan((1, 0))
        result = ParallelSolveEngine(
            jobs=2, start_method=start_method
        ).solve(problem, faulted_portfolio(specs, plan))
        outcome = result.portfolio.workers[1]
        assert not outcome.ok
        assert "FaultInjected" in outcome.error
        assert result.portfolio.workers[0].ok

