"""The cooperative stop check must never leak past its installer.

A leaked check is a silent-corruption bug: every subsequent in-process
solve would observe a stale "stop now" signal at its first iteration and
return a barely-searched answer with no error anywhere.  These tests pin
the exception-safety contract of ``run_scope(stop_check=...)``, its
per-thread visibility, and verify the engine's in-process paths
(including the raising ones) leave the caller's context clean.
"""

import threading

import pytest

from repro.exceptions import SearchError
from repro.run_context import current_run, run_scope
from repro.search import OptimizerConfig, ParallelSolveEngine, seeded_restarts
from repro.session import Session
from repro.testing import FaultPlan, FaultSpec, faulty_spec

from .test_optimizers import tiny_problem, tiny_universe

CONFIG = OptimizerConfig(max_iterations=8, patience=6, seed=2)


def installed_check():
    return current_run().stop_check


class TestStopCheckScope:
    def test_installs_and_restores(self):
        assert installed_check() is None
        check = lambda: False  # noqa: E731
        with run_scope(stop_check=check):
            assert installed_check() is check
        assert installed_check() is None

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with run_scope(stop_check=lambda: False):
                raise RuntimeError("boom")
        assert installed_check() is None

    def test_nested_scopes_restore_the_outer_check(self):
        outer = lambda: False  # noqa: E731
        inner = lambda: True  # noqa: E731
        with run_scope(stop_check=outer):
            with run_scope(stop_check=inner):
                assert installed_check() is inner
            assert installed_check() is outer
        assert installed_check() is None

    def test_check_is_invisible_on_other_threads(self):
        seen = []
        check = lambda: True  # noqa: E731
        with run_scope(stop_check=check):
            thread = threading.Thread(
                target=lambda: seen.append(installed_check())
            )
            thread.start()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert installed_check() is check
        assert seen == [None]


class TestEngineLeavesTheGlobalClean:
    def test_inline_solve_with_stop_quality(self):
        problem = tiny_problem()
        engine = ParallelSolveEngine(jobs=1, stop_quality=0.99)
        engine.solve(problem, seeded_restarts("local", 2, CONFIG))
        assert installed_check() is None

    def test_inline_solve_that_raises(self):
        problem = tiny_problem()
        plan = FaultPlan(
            entries=(FaultSpec(worker=0, attempt=0, kind="crash"),)
        )
        specs = tuple(
            faulty_spec(i, s, plan)
            for i, s in enumerate(seeded_restarts("local", 1, CONFIG))
        )
        engine = ParallelSolveEngine(jobs=1, stop_quality=0.99)
        with pytest.raises(SearchError):
            engine.solve(problem, specs)
        assert installed_check() is None

    def test_plain_inline_solve_installs_nothing(self):
        problem = tiny_problem()
        engine = ParallelSolveEngine(jobs=1)
        engine.solve(problem, seeded_restarts("local", 1, CONFIG))
        assert installed_check() is None


class TestEngineKeepsTheCallersCheck:
    """An in-process portfolio stops when its caller's check says so."""

    def stopped_iterations(self, **engine_kwargs):
        with run_scope(stop_check=lambda: True):
            result = ParallelSolveEngine(jobs=1, **engine_kwargs).solve(
                tiny_problem(), seeded_restarts("local", 2, CONFIG)
            )
        return [o.result.stats.iterations for o in result.portfolio.workers]

    def test_inline_portfolio_inherits_the_check(self):
        assert self.stopped_iterations() == [0, 0]

    def test_stop_quality_adds_to_the_check(self):
        # The bound is unreachable, so only the caller's check can stop.
        assert self.stopped_iterations(stop_quality=2.0) == [0, 0]

    def test_session_portfolio_matches_the_sequential_solve(self):
        def session():
            return Session(
                tiny_universe(),
                max_sources=4,
                optimizer_config=OptimizerConfig(max_iterations=20, seed=5),
                record_runs=False,
            )

        with run_scope(stop_check=lambda: True):
            sequential = session().solve()
            portfolio = session().solve(jobs=1)
        assert sequential.result.stats.iterations == 0
        assert portfolio.result.stats.iterations == 0
        assert installed_check() is None
