"""The decision-event log: ring buffer, scoping, and pipeline emission."""

import pytest

from repro.core import Problem, default_weights
from repro.explain import (
    NOOP_EVENTS,
    EventLog,
    NoopEventLog,
    PairMerged,
    SeedPlanted,
    get_event_log,
)
from repro.explain.events import ClusterEliminated
from repro.matching import MatchOperator
from repro.quality import Objective
from repro.run_context import run_scope
from repro.search import OptimizerConfig, TabuSearch
from repro.telemetry import InMemoryExporter


def _event(i: int) -> SeedPlanted:
    return SeedPlanted(seed_index=i, members=((0, i, f"a{i}"),))


class TestEventLog:
    def test_records_in_emission_order(self):
        log = EventLog()
        for i in range(5):
            log.emit(_event(i))
        assert [e.seed_index for e in log.events()] == [0, 1, 2, 3, 4]
        assert len(log) == 5
        assert log.dropped == 0

    def test_ring_buffer_drops_oldest_and_counts(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.emit(_event(i))
        assert [e.seed_index for e in log.events()] == [7, 8, 9]
        assert log.dropped == 7

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_kind_and_prefix_filters(self):
        log = EventLog()
        log.emit(_event(0))
        log.emit(ClusterEliminated(round=1, members=((0, 0, "a"),)))
        assert len(log.events(kind="match.seed")) == 1
        assert len(log.events(prefix="match.")) == 2
        assert log.events(prefix="search.") == []
        assert log.counts() == {"match.eliminate": 1, "match.seed": 1}

    def test_clear_keeps_drop_counter(self):
        log = EventLog(capacity=2)
        for i in range(4):
            log.emit(_event(i))
        log.clear()
        assert len(log) == 0
        assert log.dropped == 2

    def test_exporter_receives_event_records(self):
        exporter = InMemoryExporter()
        log = EventLog(exporters=[exporter])
        log.emit(_event(3))
        assert len(exporter.events) == 1
        record = exporter.events[0].to_dict()
        assert record["type"] == "event"
        assert record["kind"] == "match.seed"
        assert record["seed_index"] == 3

    def test_exporter_without_event_hook_is_skipped(self):
        class SpansOnly:
            pass

        log = EventLog(exporters=[SpansOnly()])
        log.emit(_event(0))  # must not raise
        assert len(log) == 1


class TestRuntime:
    def test_default_is_the_shared_noop(self):
        assert get_event_log() is NOOP_EVENTS
        assert not NOOP_EVENTS.enabled
        assert isinstance(NOOP_EVENTS, NoopEventLog)

    def test_noop_discards_everything(self):
        NOOP_EVENTS.emit(_event(0))
        assert NOOP_EVENTS.events() == []
        assert NOOP_EVENTS.counts() == {}
        assert len(NOOP_EVENTS) == 0

    def test_use_event_log_scopes_and_restores(self):
        log = EventLog()
        with run_scope(events=log) as installed:
            assert installed.events is log
            assert get_event_log() is log
        assert get_event_log() is NOOP_EVENTS

    def test_use_event_log_restores_on_error(self):
        log = EventLog()
        with pytest.raises(RuntimeError):
            with run_scope(events=log):
                raise RuntimeError("boom")
        assert get_event_log() is NOOP_EVENTS

    def test_set_event_log_none_restores_noop(self):
        log = EventLog()
        with run_scope(events=log):
            assert get_event_log() is log
            with run_scope(events=None):
                assert get_event_log() is NOOP_EVENTS


class TestPipelineEmission:
    def test_match_emits_algorithm1_events(self, books_workload):
        operator = MatchOperator(books_workload.universe, theta=0.65)
        selection = sorted(books_workload.universe.source_ids)[:6]
        log = EventLog()
        with run_scope(events=log):
            result = operator.match(selection)
        counts = log.counts()
        assert counts.get("match.merge", 0) > 0
        assert counts.get("match.eliminate", 0) > 0
        # Every merge carries a justifying pair at or above θ.
        for event in log.events(kind="match.merge"):
            assert isinstance(event, PairMerged)
            assert event.similarity >= 0.65
            assert event.pair_a in event.left
            assert event.pair_b in event.right
        assert result is not None

    def test_memoized_match_emits_nothing(self, books_workload):
        operator = MatchOperator(books_workload.universe, theta=0.65)
        selection = sorted(books_workload.universe.source_ids)[:6]
        operator.match(selection)  # warm the memo outside the log
        log = EventLog()
        with run_scope(events=log):
            operator.match(selection)
        assert len(log) == 0

    def test_solve_emits_search_and_quality_events(self, books_workload):
        problem = Problem(
            universe=books_workload.universe,
            weights=default_weights([]),
            max_sources=5,
        )
        log = EventLog()
        with run_scope(events=log):
            objective = Objective(problem)
            TabuSearch(
                OptimizerConfig(max_iterations=6, seed=0)
            ).optimize(objective)
        counts = log.counts()
        assert counts.get("search.accept", 0) > 0
        assert counts.get("search.new_best", 0) >= 1
        assert counts.get("quality.scored", 0) == objective.evaluations
        for event in log.events(kind="quality.scored"):
            total = sum(
                event.weights[name] * score
                for name, score in event.scores.items()
            )
            assert total == pytest.approx(event.quality, abs=1e-9)

    def test_disabled_solve_emits_nothing(self, books_workload):
        problem = Problem(
            universe=books_workload.universe,
            weights=default_weights([]),
            max_sources=5,
        )
        objective = Objective(problem)
        TabuSearch(OptimizerConfig(max_iterations=4, seed=0)).optimize(
            objective
        )
        assert get_event_log() is NOOP_EVENTS
        assert len(NOOP_EVENTS) == 0
