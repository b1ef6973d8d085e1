"""Resilience layer overhead: what a fault-free solve pays for safety.

Not a paper figure — this measures the tentpole cost of the resilience
layer (``docs/resilience.md``): per-worker timeouts, retry accounting and
per-outcome atomic checkpoint writes all sit on the portfolio hot path,
and their price when *nothing fails* must stay a rounding error next to
the search itself.  Both paths run the same seeded workers over one
compiled problem, so the answer is identical by construction (asserted
below); only the bookkeeping differs.

The per-test ``extra_info`` records ``plain_seconds``,
``resilient_seconds`` and the resulting ``overhead`` ratio, plus the
checkpoint/resume counters, so ``BENCH_resilience.json`` documents the
cost — and a resumed solve's near-zero re-run time — at the active scale.
"""

from __future__ import annotations

import time

import pytest

from repro.search import OptimizerConfig, ParallelSolveEngine, seeded_restarts

from common import bench_scale, build_problem, cached_workload

SCALE = bench_scale()
WORKERS = 4


def _config(seed: int = 0) -> OptimizerConfig:
    iterations = SCALE.iterations + SCALE.fig5_choose
    return OptimizerConfig(
        max_iterations=iterations,
        patience=iterations,
        sample_size=SCALE.sample_size,
        seed=seed,
    )


def _timed_solve(problem, workers, **recovery):
    engine = ParallelSolveEngine(jobs=1, **recovery)
    started = time.perf_counter()
    result = engine.solve(problem, workers)
    return result, time.perf_counter() - started


def test_fault_free_overhead(benchmark, tmp_path):
    """Timeout + retry + checkpointing armed, nothing failing: the bill."""
    workload = cached_workload(SCALE.fig5_universe_sizes[0])
    problem = build_problem(workload, SCALE.fig5_choose, "none")
    workers = seeded_restarts("tabu", WORKERS, _config())

    plain, plain_seconds = _timed_solve(problem, workers)

    def resilient_round():
        (tmp_path / "bench.ckpt").unlink(missing_ok=True)
        return _timed_solve(
            problem,
            workers,
            worker_timeout=600.0,
            retries=2,
            checkpoint=str(tmp_path / "bench.ckpt"),
        )

    resilient, resilient_seconds = benchmark.pedantic(
        resilient_round, rounds=1, iterations=1
    )

    # The armed-but-idle layer must not change the answer.
    assert resilient.solution == plain.solution
    assert resilient.portfolio.winner_index == plain.portfolio.winner_index
    assert resilient.portfolio.retries == 0
    assert resilient.portfolio.timeouts == 0

    overhead = (
        resilient_seconds / plain_seconds if plain_seconds > 0 else 0.0
    )
    benchmark.group = "resilience: fault-free overhead"
    benchmark.extra_info["universe_size"] = SCALE.fig5_universe_sizes[0]
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["plain_seconds"] = plain_seconds
    benchmark.extra_info["resilient_seconds"] = resilient_seconds
    benchmark.extra_info["overhead"] = overhead


def test_checkpoint_resume_speedup(benchmark, tmp_path):
    """Resuming a finished checkpoint re-runs nothing: restore vs solve."""
    workload = cached_workload(SCALE.fig5_universe_sizes[0])
    problem = build_problem(workload, SCALE.fig5_choose, "none")
    workers = seeded_restarts("tabu", WORKERS, _config())
    path = str(tmp_path / "resume.ckpt")
    cold, cold_seconds = _timed_solve(problem, workers, checkpoint=path)

    def resume_round():
        return _timed_solve(problem, workers, checkpoint=path)

    resumed, resume_seconds = benchmark.pedantic(
        resume_round, rounds=1, iterations=1
    )

    # Restoration re-evaluates stored selections against the
    # deterministic objective, so the resumed run is bit-identical.
    assert resumed.solution == cold.solution
    assert resumed.portfolio.winner_index == cold.portfolio.winner_index
    assert resumed.portfolio.resumed_workers == WORKERS

    speedup = cold_seconds / resume_seconds if resume_seconds > 0 else 0.0
    benchmark.group = "resilience: checkpoint resume"
    benchmark.extra_info["universe_size"] = SCALE.fig5_universe_sizes[0]
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["cold_seconds"] = cold_seconds
    benchmark.extra_info["resume_seconds"] = resume_seconds
    benchmark.extra_info["resume_speedup"] = speedup
    # Restoring is strictly cheaper than searching.
    assert speedup >= 1.0
