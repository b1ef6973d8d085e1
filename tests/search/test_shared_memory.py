"""Shared-memory worker context: equivalence, cleanup, and fallback.

The pool transport (:mod:`repro.search.shm`) moves the large read-only
arrays — similarity matrix, stacked sketch words, compiled evaluation
vectors — out of the worker pickle into POSIX shared memory.  That is an
implementation detail the results must never see: a jobs=K solve over
shm segments has to be bit-identical to the jobs=1 inline solve, every
segment has to be gone from ``/dev/shm`` when the solve returns (even
when pools are rotated or broken mid-run), and killing the transport via
``MUBE_SHM=0`` must fall back to plain pickling with the same answer.

``MUBE_TEST_START_METHOD`` pins fork/spawn exactly like the resilience
suite — shm attachment runs in the pool initializer, which is the code
path that differs most between the two start methods.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.quality import Objective
from repro.run_context import run_scope
from repro.search import (
    OptimizerConfig,
    ParallelSolveEngine,
    ResilienceConfig,
    RetryPolicy,
    seeded_restarts,
)
from repro.search.shm import (
    SHM_ENV,
    created_segment_names,
    live_segment_names,
    shm_available,
)
from repro.similarity import NameSimilarityMatrix, default_measure
from repro.telemetry import InMemoryExporter, Telemetry
from repro.testing import FaultPlan, FaultSpec, faulty_spec

from .test_optimizers import tiny_problem

CONFIG = OptimizerConfig(max_iterations=20, patience=14, seed=3)


@pytest.fixture(scope="session")
def start_method():
    """The pinned multiprocessing start method, or None for the default."""
    return os.environ.get("MUBE_TEST_START_METHOD") or None


def solve_setup():
    """(problem, workers, similarity, eval_context) for one solve."""
    problem = tiny_problem()
    similarity = NameSimilarityMatrix.build(
        problem.universe.attribute_names(), default_measure()
    )
    eval_context = Objective(problem, similarity=similarity).context
    workers = seeded_restarts("tabu", 3, CONFIG)
    return problem, workers, similarity, eval_context


def solve(jobs, start_method=None, resilience=None, workers=None):
    """One instrumented solve; returns (result, telemetry)."""
    problem, specs, similarity, eval_context = solve_setup()
    telemetry = Telemetry(exporters=[InMemoryExporter()])
    with run_scope(telemetry=telemetry):
        result = ParallelSolveEngine(
            jobs=jobs, start_method=start_method, resilience=resilience
        ).solve(
            problem,
            workers if workers is not None else specs,
            similarity=similarity,
            eval_context=eval_context,
        )
    telemetry.close()
    return result, telemetry


def assert_no_leaked_segments():
    __tracebackhide__ = True
    leaked = live_segment_names()
    assert leaked == (), f"leaked /dev/shm segments: {leaked}"


needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable"
)


@needs_shm
class TestEquivalenceAndCleanup:
    def test_pooled_shm_solve_matches_inline(self, start_method):
        inline, _ = solve(jobs=1)
        before = len(created_segment_names())
        pooled, telemetry = solve(jobs=2, start_method=start_method)
        assert pooled.solution == inline.solution
        assert pooled.trajectory == inline.trajectory
        metrics = telemetry.metrics
        segments = metrics.counter_value("portfolio.shm_segments")
        assert segments > 0
        assert metrics.counter_value("portfolio.shm_bytes") > 0
        assert metrics.counter_value("portfolio.shm_fallbacks", 0) == 0
        # Exactly the segments this solve created were created, and none
        # survive it.
        assert len(created_segment_names()) == before + segments
        assert_no_leaked_segments()

    def test_segments_cleaned_after_broken_pool_recovery(self, start_method):
        plan = FaultPlan(
            entries=(FaultSpec(worker=1, attempt=0, kind="break_pool"),)
        )
        specs = tuple(
            faulty_spec(index, spec, plan)
            for index, spec in enumerate(seeded_restarts("tabu", 3, CONFIG))
        )
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_retries=1), pool_rebuilds=1
        )
        result, _ = solve(
            jobs=2,
            start_method=start_method,
            resilience=resilience,
            workers=specs,
        )
        assert result.portfolio.pool_rebuilds == 1
        assert all(outcome.ok for outcome in result.portfolio.workers)
        assert_no_leaked_segments()

    def test_segments_cleaned_after_pool_rotation(self, start_method):
        # Both slots hang past the deadline: the hostage pool is rotated
        # out while its hung tasks still hold attachments.  Unlinking is
        # deferred to the end of the solve and must still win — the name
        # disappears immediately, the memory when the stragglers die.
        plan = FaultPlan(
            entries=tuple(
                FaultSpec(worker=w, attempt=0, kind="hang", seconds=5.0)
                for w in (0, 1)
            )
        )
        specs = tuple(
            faulty_spec(index, spec, plan)
            for index, spec in enumerate(seeded_restarts("tabu", 3, CONFIG))
        )
        resilience = ResilienceConfig(
            worker_timeout=1.0, retry=RetryPolicy(max_retries=1)
        )
        result, _ = solve(
            jobs=2,
            start_method=start_method,
            resilience=resilience,
            workers=specs,
        )
        assert result.portfolio.pool_rebuilds >= 1
        assert all(outcome.ok for outcome in result.portfolio.workers)
        assert_no_leaked_segments()


class TestPickleFallback:
    def test_disabled_shm_gives_the_same_answer(self, start_method):
        inline, _ = solve(jobs=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(SHM_ENV, "0")
            pooled, telemetry = solve(jobs=2, start_method=start_method)
        assert pooled.solution == inline.solution
        assert pooled.trajectory == inline.trajectory
        metrics = telemetry.metrics
        assert metrics.counter_value("portfolio.shm_fallbacks") == 1
        assert metrics.counter_value("portfolio.shm_segments", 0) == 0
        assert_no_leaked_segments()

    def test_inline_solve_never_creates_segments(self):
        before = len(created_segment_names())
        result, telemetry = solve(jobs=1)
        assert result.solution is not None
        assert len(created_segment_names()) == before
        # jobs=1 never builds a pool, so neither shm counter moves.
        assert telemetry.metrics.counter_value(
            "portfolio.shm_segments", 0
        ) == 0


class TestMountDirProbe:
    """The leak probe must degrade, not lie, off Linux."""

    def test_no_mount_means_no_live_segments(self, monkeypatch):
        from repro.search import shm as shm_module

        monkeypatch.setattr(shm_module, "shm_mount_dir", lambda: None)
        # Even with segments on the created log, a platform without an
        # inspectable shm mount must report nothing alive instead of
        # claiming every segment ever created leaked.
        assert shm_module.live_segment_names() == ()

    def test_mount_dir_matches_platform(self):
        from repro.search.shm import shm_mount_dir

        probed = shm_mount_dir()
        if os.path.isdir("/dev/shm"):
            assert probed == "/dev/shm"
        else:
            assert probed is None
