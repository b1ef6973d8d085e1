"""Tests for the interactive session model."""

import pytest

from repro.core import CharacteristicSpec
from repro.exceptions import ConstraintError, ReproError, WeightError
from repro.search import OptimizerConfig
from repro.session import Session

FAST = OptimizerConfig(max_iterations=15, patience=8, seed=0)


@pytest.fixture
def session(theater):
    return Session(
        theater,
        max_sources=5,
        theta=0.5,
        characteristic_qefs=[
            CharacteristicSpec("latency", "latency_ms", higher_is_better=False),
        ],
        optimizer_config=FAST,
    )


class TestSolving:
    def test_solve_records_history(self, session):
        first = session.solve()
        second = session.solve()
        assert [it.index for it in session.history] == [0, 1]
        assert first.solution is session.history[0].solution
        assert second.solution.feasible

    def test_last_solution(self, session):
        assert session.last_solution is None
        session.solve()
        assert session.last_solution is not None

    def test_problem_snapshot_is_independent(self, session):
        problem = session.problem()
        session.set_theta(0.9)
        assert problem.theta == 0.5

    def test_optimizer_override(self, session):
        iteration = session.solve(optimizer="greedy")
        assert iteration.solution.feasible


class TestSourceFeedback:
    def test_require_source_by_name(self, session):
        sid = session.require_source("pbs.org")
        iteration = session.solve()
        assert sid in iteration.solution.selected

    def test_require_source_by_id(self, session):
        session.require_source(3)
        assert 3 in session.problem().source_constraints

    def test_unknown_source_rejected(self, session):
        with pytest.raises(ReproError):
            session.require_source("nosuch.example")
        with pytest.raises(ReproError):
            session.require_source(99)

    def test_release_source(self, session):
        session.require_source(3)
        session.release_source(3)
        assert not session.problem().source_constraints


class TestGAFeedback:
    def test_require_match_with_pairs(self, session):
        ga = session.require_match(
            [("londontheatre.co.uk", "keyword"),
             ("canadiantheatre.com", "search term")]
        )
        assert len(ga) == 2
        iteration = session.solve()
        assert iteration.solution.schema.subsumes_gas([ga])

    def test_bridging_grows_constraint(self, session):
        # Without the constraint, "search term" matches nothing at θ=0.5.
        before = session.solve()
        term = session.universe.source(3).attribute_named("search term")
        assert before.solution.schema.ga_containing(term) is None

        session.require_match(
            [("londontheatre.co.uk", "keyword"),
             ("canadiantheatre.com", "search term")]
        )
        after = session.solve()
        grown = after.solution.schema.ga_containing(term)
        assert grown is not None
        # Other keyword attributes joined through the bridge.
        assert len(grown) > 2

    def test_accept_ga_pins_previous_output(self, session):
        first = session.solve()
        ga = max(first.solution.schema, key=len)
        session.accept_ga(ga)
        second = session.solve()
        assert second.solution.schema.subsumes_gas([ga])

    def test_accept_foreign_ga_rejected(self, session):
        from repro.core import AttributeRef, GlobalAttribute

        bogus = GlobalAttribute([AttributeRef(0, 7, "ghost")])
        with pytest.raises(Exception):
            session.accept_ga(bogus)

    def test_drop_ga_constraint(self, session):
        ga = session.require_match(
            [("londontheatre.co.uk", "keyword"), ("pa.msu.edu", "keyword")]
        )
        session.drop_ga_constraint(ga)
        assert not session.ga_constraints
        with pytest.raises(ConstraintError):
            session.drop_ga_constraint(ga)

    def test_clear_constraints(self, session):
        session.require_source(2)
        session.require_match(
            [("londontheatre.co.uk", "keyword"), ("pa.msu.edu", "keyword")]
        )
        session.clear_constraints()
        problem = session.problem()
        assert not problem.source_constraints
        assert not problem.ga_constraints


class TestWeightFeedback:
    def test_set_weights_validated(self, session):
        with pytest.raises(WeightError):
            session.set_weights({"matching": 0.9, "coverage": 0.9})

    def test_emphasize_splits_remainder_equally(self, session):
        session.emphasize("cardinality", 0.6)
        weights = session.problem().weights
        assert weights["cardinality"] == pytest.approx(0.6)
        others = [v for k, v in weights.items() if k != "cardinality"]
        assert all(v == pytest.approx(others[0]) for v in others)
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_emphasize_unknown_qef_rejected(self, session):
        with pytest.raises(WeightError):
            session.emphasize("ghost", 0.5)

    def test_add_characteristic_qef(self, session):
        spec = CharacteristicSpec("fee", "fee", higher_is_better=False)
        session.add_characteristic_qef(spec, weight=0.2)
        weights = session.problem().weights
        assert weights["fee"] == pytest.approx(0.2)
        assert sum(weights.values()) == pytest.approx(1.0)
        iteration = session.solve()
        assert "fee" in iteration.solution.qef_scores

    def test_duplicate_qef_name_rejected(self, session):
        spec = CharacteristicSpec("latency", "latency_ms")
        with pytest.raises(WeightError):
            session.add_characteristic_qef(spec, weight=0.2)

    def test_unknown_characteristic_rejected(self, session):
        spec = CharacteristicSpec("uptime", "uptime")
        with pytest.raises(ReproError):
            session.add_characteristic_qef(spec, weight=0.2)


class TestParameterFeedback:
    def test_set_theta_bounds(self, session):
        session.set_theta(0.8)
        assert session.problem().theta == 0.8
        with pytest.raises(ConstraintError):
            session.set_theta(1.2)

    def test_set_beta_bounds(self, session):
        session.set_beta(3)
        assert session.problem().beta == 3
        with pytest.raises(ConstraintError):
            session.set_beta(0)

    def test_set_max_sources_bounds(self, session):
        session.set_max_sources(4)
        assert session.problem().max_sources == 4
        with pytest.raises(ConstraintError):
            session.set_max_sources(50)

    def test_tighter_theta_reduces_or_preserves_ga_count(self, session):
        loose = session.solve()
        session.set_theta(0.95)
        tight = session.solve()
        assert tight.solution.ga_count() <= loose.solution.ga_count()


class TestOperatorCaching:
    def test_weight_only_feedback_reuses_match_operator(self, theater):
        session = Session(
            theater, max_sources=5, theta=0.5, optimizer_config=FAST
        )
        session.solve()
        operator_before = session._operator
        session.emphasize("coverage", 0.5)
        session.solve()
        assert session._operator is operator_before
        # The warm memo makes the second iteration's matching free.
        assert operator_before.cache_info()["entries"] > 0

    def test_theta_change_rebuilds_operator(self, theater):
        session = Session(
            theater, max_sources=5, theta=0.5, optimizer_config=FAST
        )
        session.solve()
        operator_before = session._operator
        session.set_theta(0.8)
        session.solve()
        assert session._operator is not operator_before

    def test_constraint_change_retargets_operator_in_place(self, theater):
        # Pinning a source does not rebuild the operator: the memo holds
        # ungated clusterings and C is applied at lookup
        # (repro.session.delta), and the results must still match a
        # fresh session posed the same problem.
        session = Session(
            theater, max_sources=5, theta=0.5, optimizer_config=FAST
        )
        session.solve()
        operator_before = session._operator
        session.require_source(3)
        constrained = session.solve()
        assert session._operator is operator_before
        assert 3 in operator_before.required_source_ids

        fresh = Session(
            theater, max_sources=5, theta=0.5, optimizer_config=FAST,
            delta=False,
        )
        fresh.solve()
        fresh.require_source(3)
        fresh_constrained = fresh.solve()
        assert (
            constrained.solution.selected
            == fresh_constrained.solution.selected
        )
        assert constrained.solution.quality == pytest.approx(
            fresh_constrained.solution.quality
        )

    def test_cached_operator_results_match_fresh(self, theater):
        cached = Session(
            theater, max_sources=5, theta=0.5, optimizer_config=FAST
        )
        cached.solve()
        cached.emphasize("cardinality", 0.6)
        second = cached.solve()

        fresh = Session(
            theater, max_sources=5, theta=0.5, optimizer_config=FAST
        )
        fresh.solve()
        fresh.emphasize("cardinality", 0.6)
        fresh_second = fresh.solve()
        assert second.solution.selected == fresh_second.solution.selected
        assert second.solution.quality == pytest.approx(
            fresh_second.solution.quality
        )
