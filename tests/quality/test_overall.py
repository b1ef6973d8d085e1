"""Tests for the Objective evaluator — Q(S) = Σ w_i F_i(S)."""

import numpy as np
import pytest

from repro.core import (
    CharacteristicSpec,
    GlobalAttribute,
    Problem,
    Universe,
)
from repro.exceptions import WeightError
from repro.quality import INFEASIBLE_PENALTY, MatchingQEF, Objective
from repro.matching import MatchOperator

from ..conftest import make_source


@pytest.fixture
def universe():
    sources = []
    schemas = [
        ("title", "author"),
        ("title", "authors"),
        ("book title", "isbn"),
        ("mileage", "horsepower"),
    ]
    for i, schema in enumerate(schemas):
        sources.append(
            make_source(
                i,
                schema,
                tuple_ids=np.arange(i * 1_000, i * 1_000 + 500),
                characteristics={"mttf": 50.0 + 25.0 * i},
            )
        )
    return Universe(sources)


def problem_for(universe, **kwargs):
    defaults = dict(
        universe=universe,
        weights={
            "matching": 0.4,
            "cardinality": 0.2,
            "coverage": 0.2,
            "redundancy": 0.2,
        },
        max_sources=3,
    )
    defaults.update(kwargs)
    return Problem(**defaults)


class TestEvaluation:
    def test_quality_is_weighted_sum(self, universe):
        problem = problem_for(universe)
        objective = Objective(problem)
        solution = objective.evaluate({0, 1})
        expected = sum(
            problem.weights[name] * value
            for name, value in solution.qef_scores.items()
        )
        assert solution.quality == pytest.approx(expected)
        assert solution.objective == solution.quality
        assert solution.feasible

    def test_matching_score_matches_operator(self, universe):
        problem = problem_for(universe)
        objective = Objective(problem)
        solution = objective.evaluate({0, 1})
        operator = MatchOperator.for_problem(problem)
        assert solution.qef_scores["matching"] == pytest.approx(
            operator.match({0, 1}).quality
        )

    def test_schema_attached_to_solution(self, universe):
        objective = Objective(problem_for(universe))
        solution = objective.evaluate({0, 1})
        assert solution.schema is not None
        assert len(solution.schema) == 2

    def test_zero_weight_qef_skipped(self, universe):
        problem = problem_for(
            universe,
            weights={
                "matching": 0.5,
                "cardinality": 0.5,
                "coverage": 0.0,
                "redundancy": 0.0,
            },
        )
        solution = Objective(problem).evaluate({0, 1})
        assert "coverage" not in solution.qef_scores

    def test_characteristic_qef_wired(self, universe):
        spec = CharacteristicSpec("mttf", "mttf")
        problem = problem_for(
            universe,
            weights={"matching": 0.5, "mttf": 0.5},
            characteristic_qefs=(spec,),
        )
        solution = Objective(problem).evaluate({0, 1})
        assert "mttf" in solution.qef_scores

    def test_custom_qef_wired(self, universe):
        class HalfQEF:
            name = "half"

            def __call__(self, sources):
                return 0.5

        problem = problem_for(
            universe,
            weights={"matching": 0.5, "half": 0.5},
            custom_qefs=(HalfQEF(),),
        )
        solution = Objective(problem).evaluate({0, 1})
        assert solution.qef_scores["half"] == 0.5

    def test_weight_for_unimplemented_qef_rejected(self, universe):
        with pytest.raises(WeightError):
            Problem(
                universe=universe,
                weights={"matching": 0.5, "ghost": 0.5},
                max_sources=3,
            )


class TestFeasibility:
    def test_over_budget_selection_penalized(self, universe):
        objective = Objective(problem_for(universe, max_sources=2))
        solution = objective.evaluate({0, 1, 2})
        assert not solution.feasible
        assert solution.objective == pytest.approx(
            INFEASIBLE_PENALTY * solution.quality
        )

    def test_empty_selection_infeasible(self, universe):
        solution = Objective(problem_for(universe)).evaluate(set())
        assert not solution.feasible

    def test_unknown_source_id_is_bottom(self, universe):
        solution = Objective(problem_for(universe)).evaluate({99})
        assert solution.objective == float("-inf")

    def test_null_match_result_infeasible(self, universe):
        problem = problem_for(
            universe, source_constraints=frozenset({0})
        )
        objective = Objective(problem)
        solution = objective.evaluate({1, 2})
        assert not solution.feasible
        assert solution.qef_scores["matching"] == 0.0

    def test_feasible_always_outranks_equal_infeasible(self, universe):
        feasible = Objective(problem_for(universe)).evaluate({0, 1})
        too_big = Objective(problem_for(universe, max_sources=2)).evaluate(
            {0, 1, 2}
        )
        assert feasible.objective > too_big.objective


class TestCaching:
    def test_cache_returns_equal_solution(self, universe):
        # The memo holds QEF values; each hit re-assembles the Solution.
        objective = Objective(problem_for(universe))
        assert objective.evaluate({0, 1}) == objective.evaluate({1, 0})
        assert objective.evaluations == 1
        assert objective.cache_hits == 1

    def test_distinct_selections_counted(self, universe):
        objective = Objective(problem_for(universe))
        objective.evaluate({0})
        objective.evaluate({1})
        objective.evaluate({0})
        assert objective.evaluations == 2


class TestMatchingQEFStandalone:
    def test_matching_qef_usable_directly(self, universe):
        operator = MatchOperator(universe, theta=0.65)
        qef = MatchingQEF(operator)
        sources = [universe.source(0), universe.source(1)]
        assert qef(sources) == pytest.approx(operator.match({0, 1}).quality)

    def test_low_quality_seed_pulls_mean_down(self, universe):
        # A user GA bridging two totally dissimilar attributes scores 0
        # internally and is exempt from θ (paper §2.5), lowering F1.
        seed = GlobalAttribute(
            [
                universe.source(2).attribute_named("isbn"),
                universe.source(3).attribute_named("mileage"),
            ]
        )
        plain = MatchingQEF(MatchOperator(universe, theta=0.65))
        seeded = MatchingQEF(
            MatchOperator(universe, ga_constraints=(seed,), theta=0.65)
        )
        sources = [universe.source(i) for i in (0, 1, 2, 3)]
        assert seeded(sources) < plain(sources)
