"""Incremental re-solve: the delta pipeline against a cold rebuild.

A one-pin edit re-solved through a persistent delta session must return
the same answer as a session rebuilt from scratch, and must cluster far
fewer selections (docs/incremental.md).
"""

from __future__ import annotations

from repro.search import OptimizerConfig
from repro.session import Session

from common import bench_scale, cached_workload

SCALE = bench_scale()


def test_delta_one_pin_resolve_speedup(benchmark):
    """The delta pipeline's flagship path: re-solve after one pin edit.

    One persistent delta session absorbs a pin toggle per round and
    re-solves through the planner's patched state (match memo with the
    pins applied at lookup, reused similarity matrix, evaluation context
    and ``Q(S)`` memo).  The cold
    baseline is what a user without the pipeline does after the same
    edit: rebuild the session state from scratch — similarity matrix,
    compiled context, empty memos — and solve the identical problem.
    Both sides solve with ``warm_start=False`` so the searches are
    trajectory-identical and the solutions must match bit for bit.

    The gate is a count, not a timing: the delta rounds must run fewer
    than half the Match(S) clusterings of the cold rounds.  The pins
    toggle, so every delta round after the second repeats an earlier
    problem and should cluster nothing.  ``delta_speedup`` is reported
    as information only.  CI gates the count via BENCH_incremental.json.

    The optimizer runs at interactive refinement scale (a short solve,
    independent of the benchmark scale knobs): the one-pin re-solve is
    the inner loop of a user steering the session, where state rebuild
    cost is a material fraction of the response time.
    """
    import time

    workload = cached_workload(SCALE.fig6_universe_size)
    config = OptimizerConfig(max_iterations=5, sample_size=6, seed=0)
    ids = sorted(workload.universe.source_ids)
    pins = (ids[0], ids[1])

    delta_session = Session(
        workload.universe,
        max_sources=SCALE.fig5_choose,
        optimizer_config=config,
        record_runs=False,
        delta=True,
    )
    delta_session.solve(warm_start=False)

    def run():
        rounds = 6
        timings = {"delta": 0.0, "cold": 0.0}
        clusterings = {"delta": 0, "cold": 0}
        mismatches = 0
        for round_index in range(rounds):
            pin = pins[round_index % 2]
            unpin = pins[(round_index + 1) % 2]

            delta_session.release_source(unpin)
            delta_session.require_source(pin)
            t0 = time.perf_counter()
            patched = delta_session.solve(warm_start=False)
            timings["delta"] += time.perf_counter() - t0
            clusterings["delta"] += patched.result.stats.match_memo_misses

            t0 = time.perf_counter()
            cold_session = Session(
                workload.universe,
                max_sources=SCALE.fig5_choose,
                optimizer_config=config,
                record_runs=False,
                delta=False,
            )
            cold_session.require_source(pin)
            cold = cold_session.solve(warm_start=False)
            timings["cold"] += time.perf_counter() - t0
            clusterings["cold"] += cold.result.stats.match_memo_misses

            if (
                patched.solution.selected != cold.solution.selected
                or patched.solution.objective != cold.solution.objective
            ):
                mismatches += 1
        return timings, clusterings, mismatches, rounds

    (timings, clusterings, mismatches, rounds) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = timings["cold"] / max(timings["delta"], 1e-9)
    benchmark.group = "incremental: delta re-solve"
    benchmark.extra_info["cold_seconds"] = round(timings["cold"], 4)
    benchmark.extra_info["delta_seconds"] = round(timings["delta"], 4)
    benchmark.extra_info["delta_speedup"] = round(speedup, 2)
    benchmark.extra_info["delta_clusterings"] = clusterings["delta"]
    benchmark.extra_info["cold_clusterings"] = clusterings["cold"]
    benchmark.extra_info["resolve_rounds"] = rounds
    benchmark.extra_info["mismatches"] = mismatches
    print(
        f"[incremental] one-pin re-solve: cold={timings['cold']:.3f}s "
        f"delta={timings['delta']:.3f}s (x{speedup:.1f}), clusterings "
        f"cold={clusterings['cold']} delta={clusterings['delta']} over "
        f"{rounds} rounds"
    )
    assert mismatches == 0
    assert 2 * clusterings["delta"] < clusterings["cold"]
