"""Deterministic retry: crash → retry → success, identical winners."""

import pytest

from repro.exceptions import SearchError
from repro.search import ParallelSolveEngine, seeded_restarts
from repro.search.resilience import ATTEMPT_PARAM, respec_for_attempt
from repro.testing import FaultPlan, FaultSpec, faulty_spec

from .conftest import CONFIG


def crash_plan(*coords):
    return FaultPlan(
        entries=tuple(
            FaultSpec(worker=w, attempt=a, kind="crash") for w, a in coords
        )
    )


def faulted_portfolio(specs, plan):
    return tuple(
        faulty_spec(index, spec, plan) for index, spec in enumerate(specs)
    )


class TestRespec:
    def test_attempt_zero_is_identity(self):
        spec = seeded_restarts("tabu", 1, CONFIG)[0]
        assert respec_for_attempt(spec, 0) is spec

    def test_default_retry_keeps_the_seed(self):
        spec = seeded_restarts("tabu", 1, CONFIG)[0]
        again = respec_for_attempt(spec, 2)
        assert again.config == spec.config

    def test_attempt_param_is_rewritten(self):
        spec = seeded_restarts("tabu", 1, CONFIG)[0]
        spec = faulty_spec(0, spec, FaultPlan())
        live = respec_for_attempt(spec, 3)
        assert dict(live.params)[ATTEMPT_PARAM] == 3

    def test_ordinary_attempt_param_is_not_clobbered(self):
        # An optimizer whose constructor legitimately takes a param
        # named "attempt" must keep its value through a retry respec —
        # only the reserved ATTEMPT_PARAM key belongs to the engine.
        from dataclasses import replace

        spec = seeded_restarts("tabu", 1, CONFIG)[0]
        spec = replace(spec, params=(("attempt", 7),))
        live = respec_for_attempt(spec, 3)
        assert dict(live.params)["attempt"] == 7


class TestRetryPolicy:
    def test_rejects_negative_retries(self):
        with pytest.raises(SearchError, match="retries must be >= 0"):
            ParallelSolveEngine(retries=-1)


@pytest.mark.parametrize("jobs", [1, 2])
class TestCrashRetrySuccess:
    def test_faulted_run_matches_the_unfaulted_winner(
        self, problem, start_method, jobs
    ):
        specs = seeded_restarts("local", 3, CONFIG)
        engine_kwargs = dict(jobs=jobs, start_method=start_method)

        clean = ParallelSolveEngine(**engine_kwargs).solve(problem, specs)

        # Crash workers 0 and 2 on their first attempt; the retry re-runs
        # the identical spec, so the recovered portfolio must converge on
        # the clean run's winner, bit for bit.
        plan = crash_plan((0, 0), (2, 0))
        faulted = ParallelSolveEngine(retries=1, **engine_kwargs).solve(
            problem, faulted_portfolio(specs, plan)
        )

        assert (
            faulted.solution.selected == clean.solution.selected
        )
        assert faulted.solution.objective == clean.solution.objective
        assert faulted.portfolio.retries == 2
        assert faulted.portfolio.winner_index == clean.portfolio.winner_index
        attempts = {
            o.index: o.attempts for o in faulted.portfolio.workers
        }
        assert attempts == {0: 2, 1: 1, 2: 2}

    def test_exhausted_retries_leave_a_failed_outcome(
        self, problem, start_method, jobs
    ):
        specs = seeded_restarts("local", 2, CONFIG)
        plan = crash_plan((1, 0), (1, 1))
        result = ParallelSolveEngine(
            jobs=jobs, start_method=start_method, retries=1
        ).solve(problem, faulted_portfolio(specs, plan))
        outcome = result.portfolio.workers[1]
        assert not outcome.ok
        assert outcome.attempts == 2
        assert "FaultInjected" in outcome.error
        assert result.portfolio.failed_workers == 1

    def test_no_retry_policy_keeps_prior_behavior(
        self, problem, start_method, jobs
    ):
        specs = seeded_restarts("local", 2, CONFIG)
        plan = crash_plan((0, 0))
        result = ParallelSolveEngine(
            jobs=jobs, start_method=start_method
        ).solve(problem, faulted_portfolio(specs, plan))
        assert result.portfolio.failed_workers == 1
        assert result.portfolio.retries == 0

    def test_all_workers_dead_after_retries_raises(
        self, problem, start_method, jobs
    ):
        specs = seeded_restarts("local", 1, CONFIG)
        plan = crash_plan((0, 0), (0, 1))
        with pytest.raises(SearchError, match="all 1 portfolio workers"):
            ParallelSolveEngine(
                jobs=jobs, start_method=start_method, retries=1
            ).solve(problem, faulted_portfolio(specs, plan))


class TestRetryTelemetry:
    def test_retry_counters_and_attempts(self, problem):
        from repro.run_context import run_scope
        from repro.telemetry import InMemoryExporter, Telemetry

        exporter = InMemoryExporter()
        telemetry = Telemetry(exporters=[exporter])
        specs = seeded_restarts("local", 2, CONFIG)
        plan = crash_plan((1, 0))
        with run_scope(telemetry=telemetry):
            result = ParallelSolveEngine(jobs=1, retries=1).solve(
                problem, faulted_portfolio(specs, plan)
            )
        attempts = [o.attempts for o in result.portfolio.workers]
        assert attempts == [1, 2]
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["portfolio.retries"] == 1
        assert counters["portfolio.timeouts"] == 0
