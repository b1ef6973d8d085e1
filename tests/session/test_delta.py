"""The delta-solve pipeline: planner, session edits, invalidation matrix.

Three layers of coverage:

* ``TestPlanDelta`` — the pure planner: problem diff → plan, edit kind by
  edit kind.
* ``TestSessionEdits`` — the new session mutators (``add_source`` /
  ``remove_source`` / ``remove_characteristic_qef``) and the
  ``set_weights`` validation, plus the edit journal bookkeeping.
* ``TestInvalidationMatrix`` — the end-to-end contract: for every edit
  kind, exactly the layers the matrix in docs/incremental.md promises to
  keep actually survive, asserted through object identity and the
  ``session.delta.*`` counters as the oracle.
"""

from __future__ import annotations

import pytest

from repro.core import CharacteristicSpec, Problem, Source, Universe
from repro.exceptions import ConstraintError, WeightError
from repro.run_context import run_scope
from repro.search import OptimizerConfig
from repro.session import Session
from repro.session.delta import Edit, EditJournal, plan_delta
from repro.telemetry import Telemetry

FAST = OptimizerConfig(max_iterations=15, patience=8, seed=0)


def make_source(source_id, names, cardinality=100, characteristics=None):
    return Source(
        source_id=source_id,
        name=f"s{source_id}",
        schema=tuple(names),
        cardinality=cardinality,
        characteristics=characteristics or {},
    )


@pytest.fixture
def universe():
    return Universe(
        [
            make_source(0, ["title", "author"], characteristics={"rank": 1.0}),
            make_source(1, ["author", "price"], characteristics={"rank": 2.0}),
            make_source(2, ["title", "price"], characteristics={"rank": 3.0}),
            make_source(3, ["isbn", "title"], characteristics={"rank": 4.0}),
        ]
    )


def session_for(universe, **kwargs):
    kwargs.setdefault("max_sources", 3)
    kwargs.setdefault("optimizer_config", FAST)
    kwargs.setdefault("record_runs", False)
    return Session(universe, **kwargs)


def problem_with(session, **overrides) -> Problem:
    from dataclasses import replace

    return replace(session.problem(), **overrides)


# -- the planner --------------------------------------------------------------


class TestPlanDelta:
    def test_first_solve_is_cold(self, universe):
        session = session_for(universe)
        plan = plan_delta(None, session.problem())
        assert plan.path == "cold"
        assert plan.operator == ("rebuild",)
        assert plan.context == "rebuild"

    def test_unchanged_problem_is_noop(self, universe):
        session = session_for(universe)
        before = session.problem()
        after = session.problem()
        plan = plan_delta(before, after)
        assert plan.path == "noop"
        assert plan.operator == ()
        assert plan.context == "reuse"

    def test_weights_only_reweighs_memo(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.emphasize("cardinality", 0.6)
        plan = plan_delta(before, session.problem())
        # The Q(S) memo is kept and weighed at lookup: nothing to rebuild.
        assert plan.path == "delta"
        assert plan.operator == ()
        assert plan.context == "reuse"

    @pytest.mark.parametrize("edit", ["theta", "beta"])
    def test_shape_change_rebuilds_operator(self, universe, edit):
        session = session_for(universe)
        before = session.problem()
        if edit == "theta":
            session.set_theta(0.9)
        else:
            session.set_beta(3)
        plan = plan_delta(before, session.problem())
        assert plan.operator == ("rebuild",)
        assert plan.context == "reuse"

    def test_source_constraints_retarget(self, universe):
        # C gates match results at lookup: the operator is only re-pointed.
        session = session_for(universe)
        before = session.problem()
        session.require_source(0)
        plan = plan_delta(before, session.problem())
        assert plan.path == "delta"
        assert plan.operator == ()
        assert plan.context == "reuse"

    def test_ga_constraints_rebuild(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.require_match([(0, "author"), (1, "author")])
        plan = plan_delta(before, session.problem())
        assert plan.operator == ("rebuild",)
        assert plan.context == "reuse"

    def test_budget_change_reuses_every_layer(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.set_max_sources(2)
        plan = plan_delta(before, session.problem())
        assert plan.path == "delta"
        assert plan.operator == ()
        assert plan.context == "reuse"

    def test_add_source_patches(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.add_source(make_source(9, ["title", "year"]))
        plan = plan_delta(before, session.problem())
        assert plan.path == "delta"
        assert plan.operator == ("universe",)
        assert plan.context == "patch"
        assert plan.added_source_ids == {9}
        assert plan.removed_source_ids == frozenset()

    def test_remove_source_patches(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.remove_source(3)
        plan = plan_delta(before, session.problem())
        assert plan.operator == ("universe",)
        assert plan.context == "patch"
        assert plan.removed_source_ids == {3}

    def test_release_then_remove_orders_constraints_first(self, universe):
        session = session_for(universe)
        session.require_source(3)
        session.solve()
        before = session.problem()
        session.release_source(3)
        session.remove_source(3)
        plan = plan_delta(before, session.problem())
        assert plan.operator == ("universe",)
        # The session re-points C before the universe, so the released
        # source may leave the universe in the same solve.
        session.solve()
        assert session.last_plan.operator == ("universe",)
        assert session._operator.required_source_ids == frozenset()

    def test_qef_change_patches_context(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.add_characteristic_qef(
            CharacteristicSpec(name="rank", characteristic="rank"), 0.2
        )
        plan = plan_delta(before, session.problem())
        assert plan.operator == ()
        assert plan.context == "patch"

    def test_rebound_source_id_goes_cold(self, universe):
        session = session_for(universe)
        before = session.problem()
        # Remove source 3 and add a *different* source under the same id:
        # identity-keyed row reuse would silently read stale data.
        session.remove_source(3)
        session.add_source(make_source(3, ["publisher"]))
        plan = plan_delta(before, session.problem())
        assert plan.path == "cold"

    def test_edits_ride_along_as_provenance(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.set_theta(0.9)
        edits = session.pending_edits
        plan = plan_delta(before, session.problem(), edits)
        assert plan.edits == edits
        assert [e.kind for e in plan.edits] == ["theta"]

    def test_plan_is_diff_driven_not_journal_driven(self, universe):
        # Mutating state directly (no journal entry) still plans right.
        session = session_for(universe)
        before = session.problem()
        session.theta = 0.9
        plan = plan_delta(before, session.problem(), ())
        assert plan.operator == ("rebuild",)


class TestEditJournal:
    def test_record_and_clear(self):
        journal = EditJournal()
        journal.record("theta", "0.9")
        journal.record("weights")
        assert len(journal) == 2
        assert journal.kinds() == {"theta", "weights"}
        assert [str(e) for e in journal] == ["theta(0.9)", "weights"]
        journal.clear()
        assert len(journal) == 0
        assert journal.edits == ()

    def test_edit_is_frozen_value(self):
        assert Edit("theta", "0.9") == Edit("theta", "0.9")
        with pytest.raises(AttributeError):
            Edit("theta").kind = "beta"


# -- session mutators ---------------------------------------------------------


class TestSessionEdits:
    def test_set_weights_rejects_unknown_qef(self, universe):
        session = session_for(universe)
        with pytest.raises(WeightError, match="unknown QEF"):
            session.set_weights(
                {"matching": 0.5, "cardinality": 0.3, "typo_qef": 0.2}
            )
        # The session is untouched by the failed edit.
        assert "typo_qef" not in session.weights
        assert len(session.pending_edits) == 0

    def test_set_weights_known_names_still_work(self, universe):
        session = session_for(universe)
        session.set_weights(
            {
                "matching": 0.4,
                "cardinality": 0.3,
                "coverage": 0.2,
                "redundancy": 0.1,
            }
        )
        assert session.weights["matching"] == pytest.approx(0.4)
        assert [e.kind for e in session.pending_edits] == ["weights"]

    def test_add_source_rejects_duplicate_id(self, universe):
        session = session_for(universe)
        with pytest.raises(ConstraintError, match="already in the universe"):
            session.add_source(make_source(0, ["title"]))

    def test_add_source_extends_universe_and_journal(self, universe):
        session = session_for(universe)
        session.add_source(make_source(9, ["title", "year"]))
        assert 9 in session.universe.source_ids
        assert [e.kind for e in session.pending_edits] == ["add_source"]

    def test_remove_source_rejects_pinned(self, universe):
        session = session_for(universe)
        session.require_source(0)
        with pytest.raises(ConstraintError, match="pinned"):
            session.remove_source(0)

    def test_remove_source_rejects_ga_referenced(self, universe):
        session = session_for(universe)
        session.require_match([(0, "author"), (1, "author")])
        with pytest.raises(ConstraintError, match="GA constraint"):
            session.remove_source(1)

    def test_remove_source_clamps_budget(self, universe):
        session = session_for(universe, max_sources=4)
        session.remove_source(3)
        assert session.max_sources == 3
        kinds = [e.kind for e in session.pending_edits]
        assert kinds == ["remove_source", "max_sources"]

    def test_remove_last_source_rejected(self):
        session = session_for(
            Universe([make_source(0, ["title"])]), max_sources=1
        )
        with pytest.raises(ConstraintError, match="last source"):
            session.remove_source(0)

    def test_remove_characteristic_qef_inverts_add(self, universe):
        session = session_for(universe)
        before = dict(session.weights)
        spec = CharacteristicSpec(name="rank", characteristic="rank")
        session.add_characteristic_qef(spec, 0.25)
        removed = session.remove_characteristic_qef("rank")
        assert removed == spec
        assert "rank" not in session.weights
        assert session.characteristic_qefs == []
        # Proportional redistribution restores the original weights.
        for name, value in before.items():
            assert session.weights[name] == pytest.approx(value)

    def test_remove_characteristic_qef_rejects_stock(self, universe):
        session = session_for(universe)
        with pytest.raises(WeightError, match="stock QEF"):
            session.remove_characteristic_qef("matching")

    def test_remove_characteristic_qef_rejects_unknown(self, universe):
        session = session_for(universe)
        with pytest.raises(WeightError, match="no characteristic QEF"):
            session.remove_characteristic_qef("rank")

    def test_solve_clears_journal(self, universe):
        session = session_for(universe)
        session.set_theta(0.7)
        assert len(session.pending_edits) == 1
        session.solve()
        assert session.pending_edits == ()


# -- the end-to-end invalidation matrix ---------------------------------------


def counters(telemetry) -> dict[str, int]:
    return telemetry.metrics.snapshot().get("counters", {})


class TestInvalidationMatrix:
    """Per edit kind, exactly the promised cached layers survive.

    Identity assertions pin the *objects* (operator, context, objective);
    the ``session.delta.*`` counters are the cross-checking oracle.
    """

    def run_edit(self, universe, edit):
        telemetry = Telemetry()
        session = session_for(universe)
        with run_scope(telemetry=telemetry):
            session.solve()
            state_before = (
                session._objective,
                session._objective.match_operator,
                session._objective.context,
            )
            edit(session)
            session.solve()
        state_after = (
            session._objective,
            session._objective.match_operator,
            session._objective.context,
        )
        return session, state_before, state_after, counters(telemetry)

    def test_noop_keeps_every_layer(self, universe):
        session, before, after, stats = self.run_edit(
            universe, lambda s: None
        )
        assert before == after  # objective, operator, context all identical
        assert session.last_plan.path == "noop"
        assert stats.get("session.delta.context_reused") == 1
        assert stats.get("session.delta.operator_reused") == 1
        assert "session.delta.memo_dropped" not in stats

    def test_weights_only_keeps_all_but_reweighs_memo(self, universe):
        session, before, after, stats = self.run_edit(
            universe, lambda s: s.emphasize("cardinality", 0.6)
        )
        assert before == after  # the memo is weighed at lookup
        assert session._objective.cache_info()["hits"] > 0
        assert "session.delta.memo_dropped" not in stats
        assert stats.get("session.delta.operator_reused") == 1
        assert stats.get("session.delta.context_reused") == 1
        assert stats.get("session.delta.cold_solves") == 1  # first solve only

    def test_theta_rebuilds_operator_keeps_context(self, universe):
        session, before, after, stats = self.run_edit(
            universe, lambda s: s.set_theta(0.9)
        )
        objective_b, operator_b, context_b = before
        objective_a, operator_a, context_a = after
        assert operator_a is not operator_b
        assert context_a is context_b
        # The Q(S) memo holds no F1, so it survives a new operator.
        assert objective_a is objective_b
        assert objective_a.match_operator is operator_a
        assert stats.get("session.delta.operator_rebuilt") == 1
        assert stats.get("session.delta.context_reused") == 1
        assert "session.delta.memo_dropped" not in stats

    def test_constraint_retargets_operator_in_place(self, universe):
        session, before, after, stats = self.run_edit(
            universe, lambda s: s.require_source(0)
        )
        objective_b, operator_b, context_b = before
        objective_a, operator_a, context_a = after
        # Same objects: C is re-pointed and applied at lookup.
        assert operator_a is operator_b
        assert 0 in operator_a.required_source_ids
        assert context_a is context_b
        assert objective_a is objective_b
        assert stats.get("session.delta.operator_reused") == 1
        assert "session.delta.operator_rebuilt" not in stats
        assert "session.delta.memo_dropped" not in stats

    def test_budget_keeps_memo_operator_and_context(self, universe):
        session, before, after, stats = self.run_edit(
            universe, lambda s: s.set_max_sources(2)
        )
        assert before == after  # budget reasons are derived at lookup
        assert stats.get("session.delta.operator_reused") == 1
        assert "session.delta.memo_dropped" not in stats

    def test_add_source_patches_context_extends_similarity(self, universe):
        def edit(s):
            s.add_source(make_source(9, ["title", "brand_new_name"]))

        session, before, after, stats = self.run_edit(universe, edit)
        objective_b, operator_b, context_b = before
        objective_a, operator_a, context_a = after
        assert operator_a is operator_b  # memo survives adds wholesale
        assert context_a is not context_b  # row-spliced recompile
        assert stats.get("session.delta.context_patched") == 1
        assert stats.get("session.delta.similarity_extended") == 1
        assert stats.get("session.delta.similarity_rows_added", 0) >= 1
        assert stats.get("session.delta.operator_universe_patched") == 1
        assert "brand_new_name" in session._matrix

    def test_remove_source_prunes_memo_patches_context(self, universe):
        session, before, after, stats = self.run_edit(
            universe, lambda s: s.remove_source(3)
        )
        objective_b, operator_b, context_b = before
        objective_a, operator_a, context_a = after
        assert operator_a is operator_b
        assert context_a is not context_b
        assert stats.get("session.delta.context_patched") == 1
        assert stats.get("session.delta.match_memo_dropped", 0) > 0
        # Removal never grows the vocabulary.
        assert "session.delta.similarity_extended" not in stats

    def test_qef_edit_patches_context_keeps_operator(self, universe):
        def edit(s):
            s.add_characteristic_qef(
                CharacteristicSpec(name="rank", characteristic="rank"), 0.2
            )

        session, before, after, stats = self.run_edit(universe, edit)
        objective_b, operator_b, context_b = before
        objective_a, operator_a, context_a = after
        assert operator_a is operator_b
        assert context_a is not context_b
        assert stats.get("session.delta.operator_reused") == 1
        assert stats.get("session.delta.context_patched") == 1

    def test_remove_qef_also_patches(self, universe):
        def edit(s):
            s.remove_characteristic_qef("rank")

        telemetry = Telemetry()
        session = session_for(universe)
        session.add_characteristic_qef(
            CharacteristicSpec(name="rank", characteristic="rank"), 0.2
        )
        with run_scope(telemetry=telemetry):
            session.solve()
            operator_before = session._objective.match_operator
            edit(session)
            session.solve()
        stats = counters(telemetry)
        assert session._objective.match_operator is operator_before
        assert stats.get("session.delta.context_patched") == 1

    def test_delta_false_goes_cold_every_solve(self, universe):
        telemetry = Telemetry()
        session = session_for(universe, delta=False)
        with run_scope(telemetry=telemetry):
            session.solve()
            session.solve()
        stats = counters(telemetry)
        assert stats.get("session.delta.cold_solves") == 2


# -- round trips: an undone edit re-scores nothing ----------------------------


class TestRoundTrips:
    """Edit, solve, undo, solve: the last solve is the first one again.

    Each memo is keyed on what its value depends on, so the entries
    scored by the first solve still serve the last.  ``warm_start=False``
    makes the last search retrace the first one exactly.
    """

    @pytest.fixture(scope="class")
    def books(self):
        from repro.workload import generate_books_universe

        return generate_books_universe(n_sources=40, seed=3).universe

    def round_trip(self, books, edit, undo):
        session = session_for(
            books,
            max_sources=5,
            optimizer_config=OptimizerConfig(max_iterations=6, seed=1),
        )
        first = session.solve(warm_start=False).solution
        edit(session)
        session.solve(warm_start=False)
        undo(session)
        telemetry = Telemetry()
        with run_scope(telemetry=telemetry):
            last = session.solve(warm_start=False)
        assert last.solution == first
        stats = counters(telemetry)
        # SearchStats counts this run's Q(S) misses, not the memo's life.
        assert last.result.stats.evaluations == stats.get(
            "objective.evaluations", 0
        )
        return (
            stats.get("match.memo_misses", 0),
            stats.get("objective.evaluations", 0),
        )

    def test_pin_release_rescores_nothing(self, books):
        pin = min(books.source_ids)
        match_misses, qs_misses = self.round_trip(
            books,
            lambda s: s.require_source(pin),
            lambda s: s.release_source(pin),
        )
        assert (match_misses, qs_misses) == (0, 0)

    def test_budget_round_trip_rescores_no_qefs(self, books):
        _, qs_misses = self.round_trip(
            books,
            lambda s: s.set_max_sources(4),
            lambda s: s.set_max_sources(5),
        )
        assert qs_misses == 0

    def test_theta_round_trip_reclusters_but_rescores_no_qefs(self, books):
        match_misses, qs_misses = self.round_trip(
            books, lambda s: s.set_theta(0.8), lambda s: s.set_theta(0.65)
        )
        assert match_misses > 0  # a θ edit builds a fresh operator
        assert qs_misses == 0
