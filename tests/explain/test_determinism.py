"""Explainability must never change what the solver computes.

The property mirrors tests/telemetry/test_determinism.py: a solve with
``explain=True`` (live event log, attribution pass) and the same solve
without it produce bit-identical ``Solution``s.  Events only observe —
any divergence is an instrumentation bug.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Problem, default_weights
from repro.explain import EventLog
from repro.quality import Objective
from repro.run_context import run_scope
from repro.search import OptimizerConfig, get_optimizer
from repro.session import Session
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
def test_solve_is_identical_with_and_without_events(
    optimizer_name, seed, max_sources
):
    plain_result, plain_objective = solve(optimizer_name, seed, max_sources)

    log = EventLog()
    with run_scope(events=log):
        logged_result, logged_objective = solve(
            optimizer_name, seed, max_sources
        )

    plain, logged = plain_result.solution, logged_result.solution
    assert plain.selected == logged.selected
    assert plain.objective == logged.objective  # bit-identical float
    assert plain.quality == logged.quality
    assert dict(plain.qef_scores) == dict(logged.qef_scores)
    assert plain == logged
    assert plain_result.stats.evaluations == logged_result.stats.evaluations
    assert plain_objective.evaluations == logged_objective.evaluations
    assert plain_result.trajectory == logged_result.trajectory
    # The log actually observed the solve.
    assert log.counts().get("quality.scored", 0) == logged_objective.evaluations


@pytest.mark.property
@given(seed=st.integers(0, 1_000))
@settings(max_examples=6, deadline=None)
def test_session_solve_explain_is_bit_identical(seed):
    def run(explain: bool):
        session = Session(
            UNIVERSE,
            max_sources=5,
            optimizer_config=OptimizerConfig(
                max_iterations=5, seed=seed, sample_size=8
            ),
        )
        return session.solve(explain=explain)

    plain = run(explain=False)
    explained = run(explain=True)
    assert plain.solution == explained.solution
    assert (
        plain.result.stats.evaluations == explained.result.stats.evaluations
    )
    assert plain.explanation is None
    assert explained.explanation is not None
    assert explained.explanation.selected == tuple(
        sorted(explained.solution.selected)
    )
