"""Span-based tracing for the solve pipeline.

A :class:`Telemetry` instance owns one stack of open spans per thread, a
:class:`~repro.telemetry.metrics.MetricsRegistry`, and a list of exporters.
Spans nest naturally through ``with`` blocks::

    with telemetry.span("session.solve", iteration=0):
        with telemetry.span("search.solve", optimizer="tabu"):
            ...

Each span is exported when it closes (children therefore appear before
their parents in the export stream; ``parent_index`` reconstructs the
tree).  Durations come from ``time.perf_counter`` and are reported
relative to the tracer's epoch so traces are readable without epoch
arithmetic.

:data:`NOOP` is the default telemetry (what :func:`get_telemetry`
returns outside a scope): its spans and metrics discard everything, and
its per-call overhead is a couple of trivial method calls, so library
code instruments unconditionally.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..run_context import current_run
from .metrics import MetricsRegistry, NoopMetrics


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished span.

    Attributes
    ----------
    name:
        Dot-separated span name (see docs/observability.md for the
        taxonomy).
    index:
        Creation order, unique within one tracer.
    parent_index:
        Index of the enclosing span, or None for a root span.
    depth:
        Nesting depth (0 for roots).
    start, end:
        Seconds since the tracer's epoch.
    attributes:
        Key/value annotations supplied at span creation.
    """

    name: str
    index: int
    parent_index: int | None
    depth: int
    start: float
    end: float
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock seconds the span was open."""
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict form (used by the JSON-lines exporter)."""
        return {
            "type": "span",
            "name": self.name,
            "index": self.index,
            "parent": self.parent_index,
            "depth": self.depth,
            "start": round(self.start, 9),
            "duration": round(self.duration, 9),
            "attributes": self.attributes,
        }


class _Span:
    """An open span; created by :meth:`Telemetry.span`, closed by ``with``."""

    __slots__ = ("_telemetry", "name", "attributes", "index", "parent_index",
                 "depth", "_start")

    def __init__(self, telemetry: "Telemetry", name: str,
                 attributes: dict[str, Any]):
        self._telemetry = telemetry
        self.name = name
        self.attributes = attributes
        self.index = 0
        self.parent_index: int | None = None
        self.depth = 0
        self._start = 0.0

    def set(self, **attributes: Any) -> None:
        """Attach attributes discovered while the span is open."""
        self.attributes.update(attributes)

    def __enter__(self) -> "_Span":
        self._telemetry._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._telemetry._close(self)


class _NoopSpan:
    """Shared do-nothing span for disabled telemetry."""

    __slots__ = ()

    def set(self, **attributes: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class Telemetry:
    """A live tracer: spans, metrics and exporters for one run or session."""

    enabled = True

    def __init__(self, exporters: tuple | list = ()):
        self.exporters = list(exporters)
        self.metrics = MetricsRegistry()
        self._epoch = time.perf_counter()
        # Open spans nest per thread: concurrent requests sharing one
        # service tracer must not parent their spans under each other.
        self._local = threading.local()
        self._indexes = itertools.count()
        # Span name -> (count, total seconds); the summary needs no more.
        self._span_totals: dict[str, tuple[int, float]] = {}
        self._totals_lock = threading.Lock()

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> _Span:
        """A context manager recording one named, attributed span."""
        return _Span(self, name, attributes)

    def _stack(self) -> list[_Span]:
        """The calling thread's open spans, innermost last."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, span: _Span) -> None:
        span.index = next(self._indexes)
        stack = self._stack()
        if stack:
            parent = stack[-1]
            span.parent_index = parent.index
            span.depth = parent.depth + 1
        stack.append(span)
        span._start = time.perf_counter() - self._epoch

    def _close(self, span: _Span) -> None:
        end = time.perf_counter() - self._epoch
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - misuse guard (out-of-order close)
            stack[:] = [s for s in stack if s is not span]
        record = SpanRecord(
            name=span.name,
            index=span.index,
            parent_index=span.parent_index,
            depth=span.depth,
            start=span._start,
            end=end,
            attributes=span.attributes,
        )
        self._add_total(record)
        for exporter in self.exporters:
            exporter.export_span(record)

    def _add_total(self, record: SpanRecord) -> None:
        with self._totals_lock:
            count, total = self._span_totals.get(record.name, (0, 0.0))
            self._span_totals[record.name] = (
                count + 1, total + record.duration
            )

    def now(self) -> float:
        """Seconds since this tracer's epoch.

        The timestamp scale all of this tracer's span records use; the
        parallel engine samples it when workers launch so absorbed worker
        spans line up with the parent timeline.
        """
        return time.perf_counter() - self._epoch

    def absorb(
        self,
        spans: "list[SpanRecord] | tuple[SpanRecord, ...]",
        metrics_snapshot: dict[str, Any] | None = None,
        offset: float = 0.0,
    ) -> None:
        """Fold a finished child tracer's spans and metrics into this one.

        Worker processes trace into their own :class:`Telemetry` (own
        epoch, own index space); this re-indexes their records into the
        parent's space and re-exports them, so ``--trace`` files and
        ``trace-report`` see one coherent tree.  Child root spans attach
        under the span currently open on this tracer (the engine calls
        this inside its ``portfolio.solve`` span); child-internal parent
        links are preserved.  ``offset`` shifts the child's epoch-relative
        timestamps onto this tracer's timeline.
        """
        if not spans:
            if metrics_snapshot:
                self.metrics.merge_snapshot(metrics_snapshot)
            return
        stack = self._stack()
        parent_index = stack[-1].index if stack else None
        base_depth = stack[-1].depth + 1 if stack else 0
        # Two passes: assign new indexes in the child's creation order
        # first, so records can be re-emitted in their original
        # completion order (children before parents, the exporter
        # contract) with every parent link already resolvable.
        index_map: dict[int, int] = {}
        for record in sorted(spans, key=lambda r: r.index):
            index_map[record.index] = next(self._indexes)
        for record in spans:
            mapped_parent = (
                index_map[record.parent_index]
                if record.parent_index in index_map
                else parent_index
            )
            merged = SpanRecord(
                name=record.name,
                index=index_map[record.index],
                parent_index=mapped_parent,
                depth=record.depth + base_depth,
                start=record.start + offset,
                end=record.end + offset,
                attributes=dict(record.attributes),
            )
            self._add_total(merged)
            for exporter in self.exporters:
                exporter.export_span(merged)
        if metrics_snapshot:
            self.metrics.merge_snapshot(metrics_snapshot)

    # -- lifecycle -----------------------------------------------------------

    def span_summary(self) -> dict[str, dict[str, float]]:
        """Per-name span aggregates: count and total/mean seconds."""
        with self._totals_lock:
            totals = dict(self._span_totals)
        return {
            name: {
                "count": count,
                "total_seconds": total,
                "mean_seconds": total / count,
            }
            for name, (count, total) in sorted(totals.items())
        }

    def close(self) -> None:
        """Flush the metrics snapshot to every exporter and close them."""
        snapshot = self.metrics.snapshot()
        for exporter in self.exporters:
            exporter.export_metrics(snapshot)
            exporter.close(self)

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        spans = sum(count for count, _ in self._span_totals.values())
        return (
            f"Telemetry(spans={spans}, exporters={len(self.exporters)})"
        )


class NoopTelemetry:
    """The default tracer: every operation is a constant-time no-op."""

    enabled = False
    metrics = NoopMetrics()
    exporters: list = []

    __slots__ = ()

    def span(self, name: str, **attributes: Any) -> _NoopSpan:
        return _NOOP_SPAN

    def now(self) -> float:
        return 0.0

    def absorb(self, spans, metrics_snapshot=None, offset: float = 0.0) -> None:
        pass

    def span_summary(self) -> dict[str, dict[str, float]]:
        return {}

    def close(self) -> None:
        pass

    def __enter__(self) -> "NoopTelemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __repr__(self) -> str:
        return "NoopTelemetry()"


#: Shared no-op instance, what :func:`get_telemetry` returns by default.
NOOP = NoopTelemetry()


def get_telemetry() -> Telemetry | NoopTelemetry:
    """The active tracer (the shared no-op outside a telemetry scope).

    Library code asks for it at call time, so instrumentation needs no
    parameter threading through the layers between ``Session.solve``
    and a PCSA union; install one with
    :func:`~repro.run_context.run_scope`.
    """
    telemetry = current_run().telemetry
    return NOOP if telemetry is None else telemetry
