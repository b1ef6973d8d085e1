"""The columnar batch evaluator: equivalence, memo LRU, fallbacks.

The load-bearing guarantee of ``Objective.evaluate_batch`` is that it is a
pure optimization: for any universe and any batch of selections, every
:class:`~repro.core.Solution` field must be *identical* to what the scalar
``evaluate`` produces — not merely close.  The hypothesis property here
exercises that over random universes (uncooperative sources, missing
characteristics, overlapping tuple ranges) and random selections
(including empty and over-budget ones).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CharacteristicSpec, Problem, Universe
from repro.quality import EvalContext, Objective
from repro.run_context import run_scope
from repro.telemetry import InMemoryExporter, Telemetry

from ..conftest import make_source

SCHEMAS = [
    ("title", "author"),
    ("title", "authors"),
    ("book title", "isbn"),
    ("title", "isbn number"),
    ("author", "keywords"),
]

WEIGHTS = {
    "matching": 0.3,
    "cardinality": 0.15,
    "coverage": 0.2,
    "redundancy": 0.15,
    "mttf": 0.2,
}


def build_universe(rng: random.Random, n_sources: int) -> Universe:
    """A universe with overlap, silent sources, and patchy characteristics."""
    sources = []
    for i in range(n_sources):
        tuple_ids = None
        if rng.random() > 0.25:  # else uncooperative: no data, no sketch
            start = rng.randrange(0, 1500)
            count = rng.randrange(1, 400)
            tuple_ids = np.arange(start, start + count)
        characteristics = {}
        # Source 0 always reports mttf so the characteristic QEF exists;
        # other sources are patchy.
        if i == 0 or rng.random() > 0.3:
            characteristics["mttf"] = rng.uniform(1.0, 200.0)
        sources.append(
            make_source(
                i,
                SCHEMAS[i % len(SCHEMAS)],
                tuple_ids=tuple_ids,
                characteristics=characteristics,
            )
        )
    return Universe(sources)


def build_problem(
    universe: Universe, budget: int, aggregator: str = "wsum"
) -> Problem:
    return Problem(
        universe=universe,
        weights=WEIGHTS,
        max_sources=budget,
        characteristic_qefs=(
            CharacteristicSpec("mttf", "mttf", aggregator=aggregator),
        ),
    )


@st.composite
def batch_cases(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_sources = draw(st.integers(2, 12))
    universe = build_universe(rng, n_sources)
    budget = draw(st.integers(1, n_sources))
    aggregator = draw(
        st.sampled_from(["wsum", "mean", "min", "max", "product", "median"])
    )
    n_selections = draw(st.integers(1, 8))
    selections = [
        frozenset(rng.sample(range(n_sources), rng.randrange(0, n_sources + 1)))
        for _ in range(n_selections)
    ]
    return universe, budget, aggregator, selections


class TestBatchScalarEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(case=batch_cases())
    def test_evaluate_batch_equals_evaluate(self, case):
        universe, budget, aggregator, selections = case
        problem = build_problem(universe, budget, aggregator)
        batch_solutions = Objective(problem).evaluate_batch(selections)
        scalar_objective = Objective(problem)
        for selection, batch_solution in zip(selections, batch_solutions):
            scalar_solution = scalar_objective.evaluate(selection)
            assert batch_solution == scalar_solution
            # Belt and braces on the float-carrying fields: the dataclass
            # equality above is exact, but spell the contract out.
            assert batch_solution.objective == scalar_solution.objective
            assert batch_solution.quality == scalar_solution.quality
            assert batch_solution.qef_scores == scalar_solution.qef_scores
            assert batch_solution.feasible == scalar_solution.feasible
            assert (
                batch_solution.infeasibility == scalar_solution.infeasibility
            )

    def test_batch_and_scalar_agree_on_books_workload(self, books_workload):
        problem = Problem(
            universe=books_workload.universe,
            weights=WEIGHTS,
            max_sources=8,
            characteristic_qefs=(CharacteristicSpec("mttf", "mttf"),),
        )
        rng = random.Random(11)
        ids = sorted(problem.universe.source_ids)
        selections = [
            frozenset(rng.sample(ids, rng.randrange(0, 12)))
            for _ in range(64)
        ]
        batch = Objective(problem).evaluate_batch(selections)
        scalar = Objective(problem)
        assert batch == [scalar.evaluate(s) for s in selections]

    def test_unknown_ids_fall_back_to_scalar_semantics(self, books_workload):
        problem = Problem(
            universe=books_workload.universe,
            weights=WEIGHTS,
            max_sources=4,
            characteristic_qefs=(CharacteristicSpec("mttf", "mttf"),),
        )
        objective = Objective(problem)
        weird = frozenset({10_000, 10_001})
        (solution,) = objective.evaluate_batch([weird])
        assert solution == Objective(problem).evaluate(weird)
        assert solution.objective == float("-inf")
        assert not solution.feasible


class TestBatchMemoSemantics:
    def test_duplicates_within_a_batch_count_as_cache_hits(
        self, books_workload
    ):
        problem = build_problem(books_workload.universe, 4)
        objective = Objective(problem)
        selection = frozenset({0, 1, 2})
        solutions = objective.evaluate_batch([selection, selection, selection])
        assert solutions[0] == solutions[1] == solutions[2]
        assert objective.evaluations == 1
        assert objective.cache_hits == 2

    def test_batch_populates_the_memo_for_scalar_calls(self, books_workload):
        problem = build_problem(books_workload.universe, 4)
        objective = Objective(problem)
        selection = frozenset({0, 3})
        objective.evaluate_batch([selection])
        before = objective.evaluations
        objective.evaluate(selection)
        assert objective.evaluations == before
        assert objective.cache_hits == 1


class TestLRUMemo:
    def test_eviction_is_lru_not_clear_all(self, books_workload):
        problem = build_problem(books_workload.universe, 4)
        objective = Objective(problem, cache_size=2)
        a, b, c = frozenset({0}), frozenset({1}), frozenset({2})
        objective.evaluate(a)
        objective.evaluate(b)
        objective.evaluate(a)  # refresh a: b is now least recently used
        objective.evaluate(c)  # evicts b only
        assert objective.cache_evictions == 1
        evaluations = objective.evaluations
        objective.evaluate(a)  # survived the eviction
        assert objective.evaluations == evaluations
        objective.evaluate(b)  # was evicted, must recompute
        assert objective.evaluations == evaluations + 1

    def test_cache_never_exceeds_capacity(self, books_workload):
        problem = build_problem(books_workload.universe, 4)
        objective = Objective(problem, cache_size=5)
        for i in range(20):
            objective.evaluate(frozenset({i % 12, (i * 7) % 12}))
        assert len(objective._cache) <= 5
        assert objective.cache_evictions > 0

    def test_cache_size_one_still_works(self, books_workload):
        problem = build_problem(books_workload.universe, 4)
        objective = Objective(problem, cache_size=1)
        objective.evaluate(frozenset({0}))
        objective.evaluate(frozenset({1}))
        assert len(objective._cache) == 1

    def test_eviction_counter_is_exported(self, books_workload):
        telemetry = Telemetry(exporters=[InMemoryExporter()])
        with run_scope(telemetry=telemetry):
            problem = build_problem(books_workload.universe, 4)
            objective = Objective(problem, cache_size=2)
            for i in range(6):
                objective.evaluate(frozenset({i}))
        assert (
            telemetry.metrics.counter_value("objective.cache_evictions")
            == objective.cache_evictions
            > 0
        )


class TestEvalContext:
    def test_stock_qefs_are_claimed(self, books_workload):
        problem = build_problem(books_workload.universe, 4)
        context = Objective(problem).context
        assert {
            "cardinality",
            "coverage",
            "redundancy",
            "mttf",
        } <= context.vector_names

    def test_exact_data_metrics_stay_scalar(self, books_workload):
        problem = build_problem(books_workload.universe, 4)
        objective = Objective(problem, exact_data_metrics=True)
        assert "coverage" not in objective.context.vector_names
        assert "redundancy" not in objective.context.vector_names
        # ...and the batch path still returns exact-metric solutions.
        selection = frozenset({0, 1})
        (batch,) = objective.evaluate_batch([selection])
        scalar = Objective(problem, exact_data_metrics=True).evaluate(
            selection
        )
        assert batch == scalar

    def test_score_batch_matches_direct_qef_calls(self, books_workload):
        problem = build_problem(books_workload.universe, 6)
        objective = Objective(problem)
        context = objective.context
        rng = random.Random(5)
        ids = sorted(problem.universe.source_ids)
        selections = [
            frozenset(rng.sample(ids, rng.randrange(0, 9))) for _ in range(32)
        ]
        names = ["cardinality", "coverage", "redundancy", "mttf"]
        scored = context.score_batch(selections, names)
        for name in names:
            qef = objective._qefs[name]
            for selection, value in zip(selections, scored[name]):
                assert value == qef(problem.universe.select(selection))


class TestMatchMemoLRU:
    def test_match_operator_evicts_lru(self, books_workload):
        from repro.matching import MatchOperator

        operator = MatchOperator(books_workload.universe, cache_size=2)
        a, b, c = frozenset({0}), frozenset({1}), frozenset({2})
        operator.match(a)
        operator.match(b)
        operator.match(a)
        operator.match(c)  # evicts b (a was refreshed)
        assert operator.cache_info()["evictions"] == 1
        misses = operator.memo_misses
        operator.match(a)
        assert operator.memo_misses == misses
        operator.match(b)
        assert operator.memo_misses == misses + 1
