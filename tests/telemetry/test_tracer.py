"""Tests for the span tracer and the run-context current telemetry."""

import threading
import tracemalloc

import pytest

from repro.run_context import run_scope
from repro.telemetry import (
    NOOP,
    InMemoryExporter,
    NoopTelemetry,
    Telemetry,
    get_telemetry,
)
from repro.telemetry import tracer as tracer_module


def traced():
    exporter = InMemoryExporter()
    return Telemetry(exporters=[exporter]), exporter


class TestSpans:
    def test_span_records_name_and_attributes(self):
        telemetry, exporter = traced()
        with telemetry.span("unit.work", size=3):
            pass
        (record,) = exporter.spans
        assert record.name == "unit.work"
        assert record.attributes == {"size": 3}
        assert record.duration >= 0.0

    def test_nesting_sets_parent_and_depth(self):
        telemetry, exporter = traced()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        inner, outer = exporter.spans  # children close first
        assert outer.name == "outer"
        assert outer.parent_index is None and outer.depth == 0
        assert inner.parent_index == outer.index and inner.depth == 1

    def test_sibling_spans_share_parent(self):
        telemetry, exporter = traced()
        with telemetry.span("root"):
            with telemetry.span("a"):
                pass
            with telemetry.span("b"):
                pass
        by_name = {s.name: s for s in exporter.spans}
        root = by_name["root"]
        assert by_name["a"].parent_index == root.index
        assert by_name["b"].parent_index == root.index

    def test_set_attaches_attributes_mid_span(self):
        telemetry, exporter = traced()
        with telemetry.span("work") as span:
            span.set(result="ok")
        assert exporter.spans[0].attributes == {"result": "ok"}

    def test_span_summary_aggregates_by_name(self):
        telemetry, _ = traced()
        for _ in range(3):
            with telemetry.span("repeat"):
                pass
        summary = telemetry.span_summary()
        assert summary["repeat"]["count"] == 3
        assert summary["repeat"]["total_seconds"] >= 0.0

    def test_span_summary_matches_the_recorded_spans(self):
        telemetry, exporter = traced()
        for _ in range(5):
            with telemetry.span("repeat"):
                with telemetry.span("inner"):
                    pass
        child, child_exporter = traced()
        with child.span("inner"):
            pass
        with telemetry.span("merge"):
            telemetry.absorb(child_exporter.spans)
        summary = telemetry.span_summary()
        assert list(summary) == ["inner", "merge", "repeat"]
        for name, row in summary.items():
            durations = [
                s.duration for s in exporter.spans if s.name == name
            ]
            assert row["count"] == len(durations)
            assert row["total_seconds"] == pytest.approx(sum(durations))
            assert row["mean_seconds"] == pytest.approx(
                sum(durations) / len(durations)
            )

    def test_span_summary_state_does_not_grow_with_spans(self):
        telemetry = Telemetry()

        def retained_after(spans: int) -> int:
            for _ in range(spans):
                with telemetry.span("repeat"):
                    pass
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, tracer_module.__file__)]
            )
            return sum(stat.size for stat in snapshot.statistics("filename"))

        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            baseline = retained_after(100)
            grown = retained_after(5000)
        finally:
            if started:
                tracemalloc.stop()
        assert telemetry.span_summary()["repeat"]["count"] == 5100
        # Storing every duration would retain >100 kB for 5000 spans.
        assert grown - baseline < 4096

    def test_threads_keep_separate_span_stacks(self):
        telemetry, exporter = traced()
        a_open = threading.Barrier(2, timeout=10.0)
        b_open = threading.Barrier(2, timeout=10.0)
        errors: list[BaseException] = []

        def run(body):
            try:
                body()
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        def thread_a():
            with telemetry.span("a"):
                a_open.wait()
                b_open.wait()

        def thread_b():
            a_open.wait()
            with telemetry.span("b"):
                b_open.wait()

        threads = [
            threading.Thread(target=run, args=(body,))
            for body in (thread_a, thread_b)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert not errors, errors
        by_name = {s.name: s for s in exporter.spans}
        assert by_name["a"].parent_index is None
        assert by_name["b"].parent_index is None
        assert by_name["b"].depth == 0
        assert by_name["a"].index != by_name["b"].index

    def test_start_times_are_relative_to_epoch(self):
        telemetry, exporter = traced()
        with telemetry.span("first"):
            pass
        assert 0.0 <= exporter.spans[0].start < 60.0

    def test_to_dict_is_json_shaped(self):
        telemetry, exporter = traced()
        with telemetry.span("x", k="v"):
            pass
        payload = exporter.spans[0].to_dict()
        assert payload["type"] == "span"
        assert payload["name"] == "x"
        assert payload["attributes"] == {"k": "v"}


class TestNoop:
    def test_noop_is_disabled_and_silent(self):
        assert NOOP.enabled is False
        with NOOP.span("anything", a=1) as span:
            span.set(b=2)
        NOOP.metrics.counter("c").inc()
        NOOP.metrics.gauge("g").set(1.0)
        NOOP.metrics.histogram("h").observe(2.0)
        assert NOOP.metrics.snapshot()["counters"] == {}
        assert NOOP.span_summary() == {}
        NOOP.close()  # must not raise

    def test_noop_is_reused(self):
        assert isinstance(NoopTelemetry(), NoopTelemetry)
        assert NOOP.span("a") is NOOP.span("b")


class TestRuntime:
    def test_default_is_noop(self):
        assert get_telemetry() is NOOP

    def test_use_telemetry_installs_and_restores(self):
        telemetry = Telemetry()
        with run_scope(telemetry=telemetry):
            assert get_telemetry() is telemetry
        assert get_telemetry() is NOOP

    def test_use_telemetry_restores_on_error(self):
        telemetry = Telemetry()
        try:
            with run_scope(telemetry=telemetry):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert get_telemetry() is NOOP

    def test_set_telemetry_none_restores_noop(self):
        with run_scope(telemetry=Telemetry()):
            with run_scope(telemetry=None):
                assert get_telemetry() is NOOP

    def test_nested_use_telemetry(self):
        outer, inner = Telemetry(), Telemetry()
        with run_scope(telemetry=outer):
            with run_scope(telemetry=inner):
                assert get_telemetry() is inner
            assert get_telemetry() is outer
