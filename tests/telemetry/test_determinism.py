"""Instrumentation must never change what the solver computes.

The property: a solve under the no-op tracer and the same solve under a
live tracer with the in-memory exporter produce bit-identical
``Solution``s and identical evaluation counts.  Telemetry only reads
clocks — it touches no RNG and no solver state — so any divergence is an
instrumentation bug.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Problem, default_weights
from repro.quality import Objective
from repro.run_context import run_scope
from repro.search import OptimizerConfig, get_optimizer
from repro.telemetry import InMemoryExporter, Telemetry
from repro.workload import DataConfig, generate_books_universe

UNIVERSE = generate_books_universe(
    n_sources=24, seed=7, data_config=DataConfig.tiny()
).universe


def solve(optimizer_name: str, seed: int, max_sources: int):
    problem = Problem(
        universe=UNIVERSE,
        weights=default_weights([]),
        max_sources=max_sources,
    )
    objective = Objective(problem)
    config = OptimizerConfig(max_iterations=6, seed=seed, sample_size=8)
    result = get_optimizer(optimizer_name, config).optimize(objective)
    return result, objective


@pytest.mark.property
@given(
    optimizer_name=st.sampled_from(["tabu", "annealing", "local", "random"]),
    seed=st.integers(0, 1_000),
    max_sources=st.integers(3, 8),
)
@settings(max_examples=12, deadline=None)
def test_solve_is_identical_with_and_without_telemetry(
    optimizer_name, seed, max_sources
):
    plain_result, plain_objective = solve(optimizer_name, seed, max_sources)

    telemetry = Telemetry(exporters=[InMemoryExporter()])
    with run_scope(telemetry=telemetry):
        traced_result, traced_objective = solve(
            optimizer_name, seed, max_sources
        )

    plain, traced = plain_result.solution, traced_result.solution
    assert plain.selected == traced.selected
    assert plain.objective == traced.objective  # bit-identical float
    assert plain.quality == traced.quality
    assert dict(plain.qef_scores) == dict(traced.qef_scores)
    assert plain.feasible == traced.feasible
    assert plain == traced
    assert plain_result.stats.evaluations == traced_result.stats.evaluations
    assert plain_objective.evaluations == traced_objective.evaluations
    assert plain_result.trajectory == traced_result.trajectory


@pytest.mark.property
@given(seed=st.integers(0, 1_000))
@settings(max_examples=8, deadline=None)
def test_traced_counters_match_plain_evaluation_counts(seed):
    telemetry = Telemetry(exporters=[InMemoryExporter()])
    with run_scope(telemetry=telemetry):
        result, objective = solve("tabu", seed, 5)
    metrics = telemetry.metrics
    assert (
        metrics.counter_value("objective.evaluations")
        == objective.evaluations
    )
    assert (
        metrics.counter_value("match.memo_misses")
        == objective.match_operator.memo_misses
    )
    # counter_value defaults to 0: the hits counter only exists once the
    # memo has been hit.
    assert (
        metrics.counter_value("match.memo_hits")
        == objective.match_operator.memo_hits
    )
    assert result.stats.evaluations == objective.evaluations
