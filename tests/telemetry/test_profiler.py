"""Phase cost attribution: what each pipeline phase cost, read off the tracer.

Phase cost is the tracer's per-name span totals (``span_summary``) plus
the memo counters in its metrics registry.  Both must come home from
pool workers (``absorb`` / ``merge_snapshot``), cover every pipeline
phase of a solve, and never change solve results.
"""

from __future__ import annotations

from repro.run_context import run_scope
from repro.search import OptimizerConfig
from repro.session import Session
from repro.telemetry import InMemoryExporter, Telemetry


def _solve(universe, seed=0, max_iterations=6, **solve_kwargs):
    session = Session(
        universe,
        max_sources=5,
        optimizer_config=OptimizerConfig(
            max_iterations=max_iterations, seed=seed
        ),
        record_runs=False,
    )
    return session.solve(**solve_kwargs)


class TestWorkerFoldBack:
    def test_phase_histograms_merge_across_snapshots(self):
        """Worker phase costs aggregate into the parent through absorb."""
        parent = Telemetry()
        for _ in range(2):
            exporter = InMemoryExporter()
            worker = Telemetry(exporters=[exporter])
            with worker.span("search.solve"):
                worker.metrics.histogram("search.seconds").observe(0.5)
            parent.absorb(exporter.spans, worker.metrics.snapshot())
        assert parent.span_summary()["search.solve"]["count"] == 2
        summary = parent.metrics.histogram_summary("search.seconds")
        assert summary["count"] == 2

    def test_cache_counters_merge_across_snapshots(self):
        parent = Telemetry()
        for hits in (3, 4):
            worker = Telemetry()
            worker.metrics.counter("match.memo_hits").inc(hits)
            worker.metrics.counter("match.memo_misses").inc()
            parent.metrics.merge_snapshot(worker.metrics.snapshot())
        assert parent.metrics.counter_value("match.memo_hits") == 7
        assert parent.metrics.counter_value("match.memo_misses") == 2


class TestPipelineIntegration:
    def test_profiled_solve_records_every_pipeline_phase(
        self, books_workload
    ):
        telemetry = Telemetry()
        with run_scope(telemetry=telemetry):
            _solve(books_workload.universe)
        phases = telemetry.span_summary()
        for phase in (
            "session.solve",
            "quality.compile",
            "match.evaluate",
            "objective.evaluate",
            "search.solve",
        ):
            assert phase in phases, f"missing phase {phase}"
            assert phases[phase]["count"] >= 1
        metrics = telemetry.metrics
        assert metrics.counter_value("match.memo_misses") > 0
        assert metrics.counter_value("objective.cache_hits") > 0

    def test_profiling_never_changes_solve_results(self, books_workload):
        """Seed-for-seed, a traced solve is bit-identical to a bare one."""
        universe = books_workload.universe
        bare = _solve(universe, seed=11, max_iterations=8)
        with run_scope(telemetry=Telemetry()):
            traced = _solve(universe, seed=11, max_iterations=8)
        assert traced.solution.selected == bare.solution.selected
        assert traced.solution.objective == bare.solution.objective
        assert traced.solution.schema == bare.solution.schema
        assert traced.result.trajectory == bare.result.trajectory

    def test_parallel_solve_folds_worker_phases_home(self, books_workload):
        """Each pool worker traces into its own tracer; both fold home."""
        telemetry = Telemetry()
        with run_scope(telemetry=telemetry):
            _solve(books_workload.universe, jobs=2, portfolio="tabu:2")
        phases = telemetry.span_summary()
        # Two workers each ran a search; the merge is parent-side.
        assert phases["search.solve"]["count"] >= 2
        assert phases["portfolio.solve"]["count"] == 1
        assert telemetry.metrics.counter_value("match.memo_misses") > 0
