"""Deterministic retry: crash → retry → success, identical winners."""

import pytest

from repro.exceptions import SearchError
from repro.search import (
    OptimizerConfig,
    ParallelSolveEngine,
    ResilienceConfig,
    RetryPolicy,
    derive_worker_seed,
    seeded_restarts,
)
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


class TestDeriveWorkerSeed:
    def test_attempt_zero_is_the_base_seed(self):
        assert derive_worker_seed(42, 3, 0) == 42

    def test_pure_function_of_the_coordinates(self):
        assert derive_worker_seed(42, 3, 2) == derive_worker_seed(42, 3, 2)

    def test_distinct_coordinates_give_distinct_seeds(self):
        seeds = {
            derive_worker_seed(base, worker, attempt)
            for base in (0, 1, 7)
            for worker in range(4)
            for attempt in (1, 2, 3)
        }
        assert len(seeds) == 3 * 4 * 3

    def test_seed_fits_numpy_default_rng(self):
        import numpy as np

        seed = derive_worker_seed(2**62, 1000, 7)
        assert 0 <= seed < 2**63
        np.random.default_rng(seed)  # must not raise


class TestRespec:
    def test_attempt_zero_is_identity(self):
        spec = seeded_restarts("tabu", 1, CONFIG)[0]
        assert respec_for_attempt(spec, 0, 0, reseed=True) is spec

    def test_default_retry_keeps_the_seed(self):
        spec = seeded_restarts("tabu", 1, CONFIG)[0]
        again = respec_for_attempt(spec, 0, 2, reseed=False)
        assert again.config.seed == spec.config.seed

    def test_reseed_uses_the_derivation(self):
        spec = seeded_restarts("tabu", 1, CONFIG)[0]
        again = respec_for_attempt(spec, 5, 2, reseed=True)
        assert again.config.seed == derive_worker_seed(CONFIG.seed, 5, 2)

    def test_attempt_param_is_rewritten(self):
        spec = seeded_restarts("tabu", 1, CONFIG)[0]
        spec = faulty_spec(0, spec, FaultPlan())
        live = respec_for_attempt(spec, 0, 3, reseed=False)
        assert dict(live.params)[ATTEMPT_PARAM] == 3

    def test_ordinary_attempt_param_is_not_clobbered(self):
        # An optimizer whose constructor legitimately takes a param
        # named "attempt" must keep its value through a retry respec —
        # only the reserved ATTEMPT_PARAM key belongs to the engine.
        from dataclasses import replace

        spec = seeded_restarts("tabu", 1, CONFIG)[0]
        spec = replace(spec, params=(("attempt", 7),))
        live = respec_for_attempt(spec, 0, 3, reseed=False)
        assert dict(live.params)["attempt"] == 7


class TestRetryPolicy:
    def test_rejects_negative_retries(self):
        with pytest.raises(SearchError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_backoff_clamps_to_the_last_entry(self):
        policy = RetryPolicy(max_retries=5, backoff=(0.1, 0.2))
        assert policy.delay(1) == 0.1
        assert policy.delay(2) == 0.2
        assert policy.delay(5) == 0.2

    def test_empty_backoff_means_no_delay(self):
        assert RetryPolicy(max_retries=2).delay(1) == 0.0


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
        resilience = ResilienceConfig(retry=RetryPolicy(max_retries=1))
        faulted = ParallelSolveEngine(
            resilience=resilience, **engine_kwargs
        ).solve(problem, faulted_portfolio(specs, plan))

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
        resilience = ResilienceConfig(retry=RetryPolicy(max_retries=1))
        result = ParallelSolveEngine(
            jobs=jobs, start_method=start_method, resilience=resilience
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
        resilience = ResilienceConfig(retry=RetryPolicy(max_retries=1))
        with pytest.raises(SearchError, match="all 1 portfolio workers"):
            ParallelSolveEngine(
                jobs=jobs, start_method=start_method, resilience=resilience
            ).solve(problem, faulted_portfolio(specs, plan))


class TestReseededRetry:
    def test_reseeded_faulted_runs_agree_with_each_other(self, problem):
        # Under reseed=True the retried worker runs a *different* search,
        # so the contract is run-to-run reproducibility of the faulted
        # portfolio, not equality with the unfaulted one.
        specs = seeded_restarts("local", 2, CONFIG)
        plan = crash_plan((0, 0))
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_retries=1, reseed=True)
        )

        def run():
            return ParallelSolveEngine(jobs=1, resilience=resilience).solve(
                problem, faulted_portfolio(specs, plan)
            )

        first, second = run(), run()
        assert first.solution.selected == second.solution.selected
        assert first.solution.objective == second.solution.objective
        assert (
            first.portfolio.winner_index == second.portfolio.winner_index
        )


class TestRetryTelemetry:
    def test_retry_span_and_counters(self, problem):
        from repro.run_context import run_scope
        from repro.telemetry import InMemoryExporter, Telemetry

        exporter = InMemoryExporter()
        telemetry = Telemetry(exporters=[exporter])
        specs = seeded_restarts("local", 2, CONFIG)
        plan = crash_plan((1, 0))
        resilience = ResilienceConfig(retry=RetryPolicy(max_retries=1))
        with run_scope(telemetry=telemetry):
            ParallelSolveEngine(jobs=1, resilience=resilience).solve(
                problem, faulted_portfolio(specs, plan)
            )
        names = [span.name for span in exporter.spans]
        assert "portfolio.retry" in names
        retry = next(s for s in exporter.spans if s.name == "portfolio.retry")
        assert retry.attributes["worker"] == 1
        assert retry.attributes["attempt"] == 1
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["portfolio.retries"] == 1
        assert counters["portfolio.timeouts"] == 0
