"""End-to-end instrumentation: a traced solve covers every pipeline layer."""

import pytest

from repro.quality import Objective
from repro.run_context import run_scope
from repro.search import OptimizerConfig, TabuSearch, get_optimizer
from repro.session import Session, render_history
from repro.telemetry import InMemoryExporter, Telemetry


@pytest.fixture
def traced_session(books_workload):
    exporter = InMemoryExporter()
    telemetry = Telemetry(exporters=[exporter])
    session = Session(
        books_workload.universe,
        max_sources=6,
        optimizer_config=OptimizerConfig(max_iterations=8, seed=0),
        telemetry=telemetry,
    )
    session.solve()
    return session, telemetry, exporter


class TestSolveTrace:
    def test_spans_cover_every_layer(self, traced_session):
        _, _, exporter = traced_session
        names = exporter.span_names()
        assert "session.solve" in names
        assert "search.solve" in names
        assert "search.iteration" in names
        assert "match.evaluate" in names
        assert "objective.evaluate" in names
        assert "quality.compile" in names
        assert any(name.startswith("qef.") for name in names)

    def test_spans_nest_session_search_iteration(self, traced_session):
        _, _, exporter = traced_session
        by_index = {span.index: span for span in exporter.spans}
        (session_span,) = exporter.find("session.solve")
        (search_span,) = exporter.find("search.solve")
        assert search_span.parent_index == session_span.index
        for iteration_span in exporter.find("search.iteration"):
            assert iteration_span.parent_index == search_span.index
        for match_span in exporter.find("match.evaluate"):
            parent = by_index[match_span.parent_index]
            # Scalar evaluations nest the match under objective.evaluate;
            # batch-scored neighborhoods nest it under the batch span.
            assert parent.name in (
                "objective.evaluate",
                "objective.batch_evaluate",
            )

    def test_counters_reflect_the_run(self, traced_session):
        session, telemetry, _ = traced_session
        metrics = telemetry.metrics
        stats = session.history[-1].result.stats
        assert metrics.counter_value("search.solves") == 1
        assert metrics.counter_value("search.iterations") == stats.iterations
        assert metrics.counter_value("objective.evaluations") == stats.evaluations
        assert metrics.counter_value("match.memo_misses") > 0
        assert metrics.counter_value("match.clustering.rounds") > 0
        assert metrics.counter_value("sketch.pcsa.merges") > 0

    def test_matrix_build_span_recorded_at_construction(self, traced_session):
        _, _, exporter = traced_session
        (build_span,) = exporter.find("similarity.matrix_build")
        assert build_span.attributes["vocabulary"] > 0

    def test_second_solve_reuses_warm_memos(self, books_workload):
        telemetry = Telemetry(exporters=[InMemoryExporter()])
        session = Session(
            books_workload.universe,
            max_sources=6,
            optimizer_config=OptimizerConfig(max_iterations=8, seed=0),
            telemetry=telemetry,
        )
        first = session.solve().result.stats
        second = session.solve().result.stats
        # Same problem: the delta planner keeps both memos, so the
        # re-solve's evaluations are memo hits whose F1 lookups hit the
        # match memo too — clustering is not redone.
        assert second.match_memo_misses < first.match_memo_misses
        metrics = telemetry.metrics
        assert metrics.counter_value("session.delta.context_reused") > 0
        assert metrics.counter_value("session.delta.memo_dropped") == 0
        assert metrics.counter_value("objective.cache_hits") > 0


class TestMemoStatsThreading:
    def test_search_stats_carry_memo_traffic(self, books_workload):
        from repro.core import Problem, default_weights

        problem = Problem(
            universe=books_workload.universe,
            weights=default_weights([]),
            max_sources=5,
        )
        objective = Objective(problem)
        result = TabuSearch(OptimizerConfig(max_iterations=6, seed=0)).optimize(
            objective
        )
        stats = result.stats
        assert stats.match_memo_misses == objective.match_operator.memo_misses
        assert stats.match_memo_hits == objective.match_operator.memo_hits
        assert stats.match_memo_misses > 0

    def test_render_history_shows_memo_traffic(self, books_workload):
        session = Session(
            books_workload.universe,
            max_sources=6,
            optimizer_config=OptimizerConfig(max_iterations=6, seed=0),
        )
        session.solve()
        session.solve()
        text = render_history(session.history)
        assert "memo" in text
        assert "h/" in text

    @pytest.mark.parametrize("name", ["annealing", "local", "random"])
    def test_every_optimizer_reports_memo_stats(self, books_workload, name):
        from repro.core import Problem, default_weights

        problem = Problem(
            universe=books_workload.universe,
            weights=default_weights([]),
            max_sources=5,
        )
        objective = Objective(problem)
        result = get_optimizer(
            name, OptimizerConfig(max_iterations=4, seed=0)
        ).optimize(objective)
        total = result.stats.match_memo_hits + result.stats.match_memo_misses
        assert total > 0


class TestCacheInstrumentation:
    def test_objective_counts_cache_hits(self, books_workload):
        from repro.core import Problem, default_weights

        problem = Problem(
            universe=books_workload.universe,
            weights=default_weights([]),
            max_sources=5,
        )
        objective = Objective(problem)
        selection = sorted(books_workload.universe.source_ids)[:5]
        objective.evaluate(selection)
        assert objective.cache_hits == 0
        objective.evaluate(selection)
        assert objective.cache_hits == 1

    def test_match_operator_cache_info_includes_traffic(self, books_workload):
        from repro.matching import MatchOperator

        operator = MatchOperator(books_workload.universe, theta=0.65)
        selection = sorted(books_workload.universe.source_ids)[:4]
        operator.match(selection)
        operator.match(selection)
        info = operator.cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1


class TestBenchmarkHelpers:
    def test_solve_tabu_exposes_counters(self, books_workload):
        import sys
        from pathlib import Path

        sys.path.insert(
            0, str(Path(__file__).resolve().parents[2] / "benchmarks")
        )
        try:
            from common import build_problem, last_counters, solve_tabu
        finally:
            sys.path.pop(0)
        problem = build_problem(books_workload, 5)
        result, _ = solve_tabu(problem)
        counters = last_counters()
        assert result.stats.iterations > 0
        assert counters["search.solves"] == 1
        assert counters["objective.evaluations"] > 0


class TestIsolation:
    def test_global_telemetry_restored_after_session_solve(
        self, books_workload
    ):
        from repro.telemetry import NOOP, get_telemetry

        session = Session(
            books_workload.universe,
            max_sources=5,
            optimizer_config=OptimizerConfig(max_iterations=3, seed=0),
            telemetry=Telemetry(exporters=[InMemoryExporter()]),
        )
        session.solve()
        assert get_telemetry() is NOOP

    def test_use_telemetry_scopes_a_plain_solve(self, books_workload):
        exporter = InMemoryExporter()
        with run_scope(telemetry=Telemetry(exporters=[exporter])):
            session = Session(
                books_workload.universe,
                max_sources=5,
                optimizer_config=OptimizerConfig(max_iterations=3, seed=0),
            )
            session.solve()
        assert "search.solve" in exporter.span_names()
