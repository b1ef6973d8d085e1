"""Worker timeouts: hang → timed_out → retry, in both execution modes."""

import pytest

from repro.search import ParallelSolveEngine, seeded_restarts
from repro.testing import FaultPlan, FaultSpec, faulty_spec

from .conftest import CONFIG


def hang_plan(*coords, seconds):
    return FaultPlan(
        entries=tuple(
            FaultSpec(worker=w, attempt=a, kind="hang", seconds=seconds)
            for w, a in coords
        )
    )


def faulted_portfolio(specs, plan):
    return tuple(
        faulty_spec(index, spec, plan) for index, spec in enumerate(specs)
    )


class TestInlineTimeout:
    def test_overrun_is_recorded_and_retried(self, problem):
        specs = seeded_restarts("local", 2, CONFIG)
        plan = hang_plan((1, 0), seconds=0.3)
        clean = ParallelSolveEngine(jobs=1).solve(problem, specs)
        result = ParallelSolveEngine(
            jobs=1, worker_timeout=0.1, retries=1
        ).solve(problem, faulted_portfolio(specs, plan))
        assert result.portfolio.timeouts == 1
        assert result.portfolio.retries == 1
        outcome = result.portfolio.workers[1]
        assert outcome.ok and outcome.attempts == 2
        assert result.solution.selected == clean.solution.selected
        assert result.solution.objective == clean.solution.objective

    def test_exhausted_timeouts_leave_a_timed_out_outcome(self, problem):
        specs = seeded_restarts("local", 2, CONFIG)
        plan = hang_plan((1, 0), (1, 1), seconds=0.3)
        result = ParallelSolveEngine(
            jobs=1, worker_timeout=0.1, retries=1
        ).solve(problem, faulted_portfolio(specs, plan))
        outcome = result.portfolio.workers[1]
        assert not outcome.ok
        assert outcome.timed_out
        assert "timed out" in outcome.error
        assert result.portfolio.timed_out_workers == 1
        assert result.portfolio.timeouts == 2

    def test_no_timeout_config_never_times_out(self, problem):
        specs = seeded_restarts("local", 1, CONFIG)
        plan = hang_plan((0, 0), seconds=0.05)
        result = ParallelSolveEngine(jobs=1).solve(
            problem, faulted_portfolio(specs, plan)
        )
        assert result.portfolio.workers[0].ok
        assert result.portfolio.timeouts == 0


class TestPoolTimeout:
    def test_hung_future_is_cancelled_and_retried(
        self, problem, start_method
    ):
        specs = seeded_restarts("local", 2, CONFIG)
        # The hang must dwarf the timeout so the future reliably misses
        # the deadline, but stay bounded so the orphaned process exits
        # quickly after the test.
        plan = hang_plan((1, 0), seconds=2.0)
        clean = ParallelSolveEngine(
            jobs=2, start_method=start_method
        ).solve(problem, specs)
        result = ParallelSolveEngine(
            jobs=2, start_method=start_method, worker_timeout=0.3, retries=1
        ).solve(problem, faulted_portfolio(specs, plan))
        assert result.portfolio.timeouts >= 1
        outcome = result.portfolio.workers[1]
        assert outcome.ok and outcome.attempts == 2
        assert result.solution.selected == clean.solution.selected
        assert result.solution.objective == clean.solution.objective

    def test_timeout_without_retries_fails_the_worker(
        self, problem, start_method
    ):
        specs = seeded_restarts("local", 2, CONFIG)
        plan = hang_plan((0, 0), seconds=2.0)
        result = ParallelSolveEngine(
            jobs=2, start_method=start_method, worker_timeout=0.3
        ).solve(problem, faulted_portfolio(specs, plan))
        outcome = result.portfolio.workers[0]
        assert not outcome.ok
        assert outcome.timed_out
        assert result.portfolio.workers[1].ok


class TestAbandonedPool:
    def test_hung_worker_never_blocks_the_solve(self, problem, start_method):
        """A running task that misses its deadline must not be joined.

        ``future.cancel()`` cannot stop an already-executing task, so
        the engine abandons the pool instead of waiting on it: the solve
        has to return in roughly one timeout, not one hang.  (Before the
        fix, the final ``shutdown(wait=True)`` joined the hung process —
        a genuinely hung worker blocked the solve forever.)
        """
        import time

        hang = 4.0
        specs = seeded_restarts("local", 2, CONFIG)
        plan = hang_plan((0, 0), seconds=hang)
        started = time.monotonic()
        result = ParallelSolveEngine(
            jobs=2, start_method=start_method, worker_timeout=0.3
        ).solve(problem, faulted_portfolio(specs, plan))
        elapsed = time.monotonic() - started
        assert elapsed < hang - 1.0
        assert result.portfolio.workers[0].timed_out
        assert result.portfolio.workers[1].ok

    def test_queue_waiters_do_not_burn_retry_budget(
        self, problem, start_method
    ):
        """Workers stuck *behind* hung slots are bystanders, not failures.

        Both pool slots hang, so worker 2 never starts before its
        future's deadline passes.  Its cancel succeeds, which proves the
        clock measured queue wait — it is requeued at the same attempt
        (no timeout recorded, no retry spent), the hostage pool is
        rotated out, and every worker still converges on the clean
        run's answer.
        """
        specs = seeded_restarts("local", 3, CONFIG)
        plan = hang_plan((0, 0), (1, 0), seconds=5.0)
        clean = ParallelSolveEngine(
            jobs=2, start_method=start_method
        ).solve(problem, specs)
        result = ParallelSolveEngine(
            jobs=2, start_method=start_method, worker_timeout=1.0, retries=1
        ).solve(problem, faulted_portfolio(specs, plan))
        assert all(o.ok for o in result.portfolio.workers)
        # Only the two genuinely hung attempts count as timeouts/retries;
        # the bystander rides the requeue path and keeps attempt 0.
        assert result.portfolio.timeouts == 2
        assert result.portfolio.retries == 2
        assert result.portfolio.requeues >= 1
        assert result.portfolio.workers[2].attempts == 1
        # The pool holding the hung tasks was rotated, not reused.
        assert result.portfolio.pool_rebuilds >= 1
        assert result.solution.selected == clean.solution.selected
        assert result.solution.objective == clean.solution.objective


class TestPoolStartUp:
    def test_slow_pool_start_up_is_not_a_timeout(self, problem, monkeypatch):
        """A pool that starts slower than the timeout is not hung.

        Until an attempt has begun in a pool, a missed deadline measures
        the pool starting its processes.  Treating it as queue wait
        requeued the attempt and rotated to a fresh pool that started
        just as slowly, so the solve never returned (``spawn`` start-up
        on a small machine did this).  ``fork`` plus a slow initializer
        reproduces that start-up cost on any machine; a pool count guard
        turns a relapse into a failure instead of a hang.
        """
        import time

        from repro.search import parallel

        initialize = parallel._worker_init

        def slow_init(*args):
            time.sleep(1.0)
            initialize(*args)

        new_pool = ParallelSolveEngine._new_pool
        pools = []

        def guarded_new_pool(engine, *args, **kwargs):
            pools.append(None)
            assert len(pools) <= 2, "pools rotated before any attempt began"
            return new_pool(engine, *args, **kwargs)

        monkeypatch.setattr(parallel, "_worker_init", slow_init)
        monkeypatch.setattr(ParallelSolveEngine, "_new_pool", guarded_new_pool)
        specs = seeded_restarts("local", 2, CONFIG)
        result = ParallelSolveEngine(
            jobs=2, start_method="fork", worker_timeout=0.3, retries=1
        ).solve(problem, specs)
        assert result.portfolio.timeouts == 0
        assert result.portfolio.pool_rebuilds == 0
        assert all(o.ok and o.attempts == 1 for o in result.portfolio.workers)


class TestTimeoutValidation:
    def test_nonpositive_timeout_is_rejected(self):
        from repro.exceptions import SearchError

        with pytest.raises(SearchError, match="worker_timeout"):
            ParallelSolveEngine(worker_timeout=0.0)
