"""The :class:`PhaseProfiler` cost-attribution layer.

The profiler must be a strict observer: zero-cost no-op by default,
recording into the active telemetry's histograms when enabled (that is
what carries worker phase costs home through ``merge_snapshot``), and
never — under any configuration — changing solve results.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.run_context import run_scope
from repro.search import OptimizerConfig
from repro.session import Session
from repro.telemetry import (
    NOOP_PROFILER,
    PhaseProfiler,
    Telemetry,
    get_profiler,
    phase_profile,
)
from repro.telemetry.profiler import (
    CACHE_METRIC_PREFIX,
    PHASE_METRIC_PREFIX,
    cache_totals,
)


@pytest.fixture
def telemetry():
    """An enabled tracer installed for the duration of one test."""
    telemetry = Telemetry()
    with run_scope(telemetry=telemetry):
        yield telemetry


class TestDefaults:
    def test_default_profiler_is_shared_noop(self):
        assert get_profiler() is NOOP_PROFILER
        assert not get_profiler().enabled

    def test_noop_phase_is_shared_and_inert(self):
        first = NOOP_PROFILER.phase("similarity")
        second = NOOP_PROFILER.phase("search")
        assert first is second
        with first:
            pass
        assert NOOP_PROFILER.cache_analytics() == {}

    def test_set_profiler_none_restores_noop(self):
        profiler = PhaseProfiler()
        with run_scope(profiler=profiler):
            assert get_profiler() is profiler
            with run_scope(profiler=None):
                assert get_profiler() is NOOP_PROFILER

    def test_use_profiler_restores_previous(self):
        with run_scope(profiler=PhaseProfiler()):
            assert get_profiler().enabled
        assert get_profiler() is NOOP_PROFILER


class TestPhaseRecording:
    def test_phase_records_wall_and_cpu_histograms(self, telemetry):
        profiler = PhaseProfiler()
        with profiler, profiler.phase("matching"):
            sum(range(1000))
        snapshot = telemetry.metrics.snapshot()
        histograms = snapshot["histograms"]
        wall = histograms[PHASE_METRIC_PREFIX + "matching.wall_seconds"]
        cpu = histograms[PHASE_METRIC_PREFIX + "matching.cpu_seconds"]
        assert wall["count"] == 1
        assert wall["total"] >= 0.0
        assert cpu["count"] == 1

    def test_nested_phases_both_recorded(self, telemetry):
        profiler = PhaseProfiler()
        with profiler:
            with profiler.phase("search"):
                with profiler.phase("matching"):
                    pass
                with profiler.phase("matching"):
                    pass
        phases = phase_profile(telemetry.metrics.snapshot())
        assert phases["search"]["calls"] == 1
        assert phases["matching"]["calls"] == 2

    def test_close_is_idempotent(self, telemetry):
        hits = {"hits": 3, "misses": 1}
        profiler = PhaseProfiler()
        profiler.add_cache_probe("memo", lambda: hits)
        profiler.start()
        profiler.close()
        profiler.close()
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters[CACHE_METRIC_PREFIX + "memo.hits"] == 3


class TestCacheAnalytics:
    def test_probe_series_and_final_stats(self, telemetry):
        stats = {"hits": 0, "misses": 0}
        profiler = PhaseProfiler(cache_sample_interval=0.0)
        profiler.add_cache_probe("memo", lambda: stats)
        with profiler:
            with profiler.phase("search"):
                stats["misses"] = 4
            with profiler.phase("search"):
                stats["hits"] = 4
            analytics = profiler.cache_analytics()
        memo = analytics["memo"]
        assert memo["final"]["hit_rate"] == pytest.approx(0.5)
        rates = [sample["hit_rate"] for sample in memo["series"]]
        assert rates[0] <= rates[-1]

    def test_duplicate_probe_names_fold_into_one_counter_family(
        self, telemetry
    ):
        profiler = PhaseProfiler()
        profiler.add_cache_probe("memo", lambda: {"hits": 2, "misses": 1})
        profiler.add_cache_probe("memo", lambda: {"hits": 5, "misses": 3})
        profiler.start()
        profiler.close()
        totals = cache_totals(telemetry.metrics.snapshot())
        assert totals["memo"]["hits"] == 7
        assert totals["memo"]["misses"] == 4

    def test_series_stays_bounded(self, telemetry):
        stats = {"hits": 1, "misses": 1}
        profiler = PhaseProfiler(
            cache_sample_interval=0.0, max_cache_samples=8
        )
        profiler.add_cache_probe("memo", lambda: stats)
        profiler.start()
        for _ in range(50):
            profiler.sample_caches(force=True)
        assert len(profiler._cache_series) <= 9

    def test_failing_probe_never_raises(self, telemetry):
        def broken():
            raise RuntimeError("cache went away")

        profiler = PhaseProfiler()
        profiler.add_cache_probe("broken", broken)
        profiler.start()
        profiler.sample_caches(force=True)
        assert profiler.cache_analytics() == {}
        profiler.close()


class TestProbeRegistry:
    def test_probe_registered_during_a_sample_does_not_raise(self, telemetry):
        """A new objective may register while another thread samples.

        Under ``mube serve`` one profiler watches every session; a probe
        registered mid-iteration used to raise "dictionary changed size
        during iteration" out of the sampling phase close.
        """
        profiler = PhaseProfiler()

        def registering():
            profiler.add_cache_probe("late", lambda: {"hits": 1, "misses": 0})
            return {"hits": 0, "misses": 1}

        profiler.add_cache_probe("memo", registering)
        profiler.sample_caches(force=True)
        analytics = profiler.cache_analytics()
        profiler.close()
        assert "memo" in analytics and "late" in analytics
        totals = cache_totals(telemetry.metrics.snapshot())
        assert totals["memo"] == {"hits": 0, "misses": 1}

    def test_probe_does_not_keep_its_owner_alive(self, telemetry):
        class Owner:
            def __init__(self):
                self.stats = {"hits": 2, "misses": 3}

            def cache_info(self):
                return dict(self.stats)

        profiler = PhaseProfiler()
        owner = Owner()
        profiler.add_cache_probe("memo", owner.cache_info)
        profiler.add_cache_probe("memo", lambda: {"hits": 1, "misses": 1})
        profiler.sample_caches(force=True)
        owner.stats = {"hits": 4, "misses": 3}
        with profiler.phase("search"):  # outermost close: sampled again
            pass
        collected = weakref.ref(owner)
        del owner
        gc.collect()
        assert collected() is None
        assert set(profiler.cache_analytics()) == {"memo#2"}
        profiler.close()
        # The collected owner's last sampled stats still count.
        totals = cache_totals(telemetry.metrics.snapshot())
        assert totals["memo"] == {"hits": 5, "misses": 4}


    def test_concurrent_registration_and_sampling(self, telemetry):
        """Threads register and sample at once; no probe is lost."""
        profiler = PhaseProfiler(
            cache_sample_interval=0.0, max_cache_samples=8
        )
        errors: list[BaseException] = []
        threads_n, probes_per_thread = 8, 20

        def work():
            try:
                for _ in range(probes_per_thread):
                    profiler.add_cache_probe(
                        "memo", lambda: {"hits": 1, "misses": 0}
                    )
                    with profiler.phase("matching"):
                        pass
                    profiler.cache_analytics()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        profiler.close()
        totals = cache_totals(telemetry.metrics.snapshot())
        assert totals["memo"]["hits"] == threads_n * probes_per_thread


class TestWorkerFoldBack:
    def test_phase_histograms_merge_across_snapshots(self):
        """Worker phase costs aggregate like counters through merge."""
        parent = Telemetry()
        for _ in range(2):
            worker = Telemetry()
            profiler = PhaseProfiler()
            with run_scope(telemetry=worker), profiler:
                with profiler.phase("search"):
                    pass
            parent.metrics.merge_snapshot(worker.metrics.snapshot())
        phases = phase_profile(parent.metrics.snapshot())
        assert phases["search"]["calls"] == 2

    def test_cache_counters_merge_across_snapshots(self):
        parent = Telemetry()
        for hits in (3, 4):
            worker = Telemetry()
            profiler = PhaseProfiler()
            profiler.add_cache_probe(
                "objective.memo", lambda h=hits: {"hits": h, "misses": 1}
            )
            with run_scope(telemetry=worker), profiler:
                pass
            parent.metrics.merge_snapshot(worker.metrics.snapshot())
        totals = cache_totals(parent.metrics.snapshot())
        assert totals["objective.memo"] == {"hits": 7, "misses": 2}


class TestPipelineIntegration:
    def test_profiled_solve_records_every_pipeline_phase(
        self, books_workload
    ):
        telemetry = Telemetry()
        profiler = PhaseProfiler()
        with run_scope(telemetry=telemetry, profiler=profiler), profiler:
            session = Session(
                books_workload.universe,
                max_sources=5,
                optimizer_config=OptimizerConfig(max_iterations=6, seed=0),
                record_runs=False,
            )
            session.solve()
        phases = phase_profile(telemetry.metrics.snapshot())
        for phase in ("compile", "similarity", "matching", "search"):
            assert phase in phases, f"missing phase {phase}"
            assert phases[phase]["calls"] >= 1
        caches = cache_totals(telemetry.metrics.snapshot())
        assert "objective.memo" in caches
        assert "match.memo" in caches

    def test_profiling_never_changes_solve_results(self, books_workload):
        """Seed-for-seed, a profiled solve is bit-identical to a bare one."""

        def solve():
            session = Session(
                books_workload.universe,
                max_sources=5,
                optimizer_config=OptimizerConfig(
                    max_iterations=8, seed=11
                ),
                record_runs=False,
            )
            return session.solve()

        bare = solve()
        telemetry = Telemetry()
        profiler = PhaseProfiler()
        with run_scope(telemetry=telemetry, profiler=profiler), profiler:
            profiled = solve()
        assert profiled.solution.selected == bare.solution.selected
        assert profiled.solution.objective == bare.solution.objective
        assert profiled.solution.schema == bare.solution.schema
        assert profiled.result.trajectory == bare.result.trajectory

    def test_parallel_solve_folds_worker_phases_home(self, books_workload):
        telemetry = Telemetry()
        profiler = PhaseProfiler()
        with run_scope(telemetry=telemetry, profiler=profiler), profiler:
            session = Session(
                books_workload.universe,
                max_sources=5,
                optimizer_config=OptimizerConfig(max_iterations=6, seed=0),
                record_runs=False,
            )
            session.solve(jobs=2, portfolio="tabu:2")
        phases = phase_profile(telemetry.metrics.snapshot())
        # Two workers each ran a search phase; merge is parent-side.
        assert phases["search"]["calls"] >= 2
        assert phases["merge"]["calls"] == 1
