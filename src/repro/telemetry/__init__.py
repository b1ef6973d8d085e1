"""Telemetry: spans, metrics and exporters for the solve pipeline.

The measurement substrate for every perf/scaling change: a span-based
tracer (:class:`Telemetry`), a metrics registry (counters, gauges,
histograms), and pluggable exporters.  The default is a true no-op
(:data:`NOOP`) whose overhead is negligible, so every layer of the
pipeline instruments unconditionally; a live tracer is installed for a
block with :func:`~repro.run_context.run_scope`.  See
docs/observability.md for the span taxonomy and exporter formats.
"""

from .chrome_trace import spans_to_chrome, trace_to_chrome, write_chrome_trace
from .exporters import (
    Exporter,
    InMemoryExporter,
    JsonLinesExporter,
    StderrSummaryExporter,
    render_summary,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, NoopMetrics
from .trace_report import (
    Trace,
    TraceSpan,
    load_trace,
    render_span_tree,
    render_time_table,
    render_trace_report,
    time_by_name,
)
from .tracer import (
    NOOP,
    NoopTelemetry,
    SpanRecord,
    Telemetry,
    get_telemetry,
)

__all__ = [
    "Counter",
    "Exporter",
    "Gauge",
    "Histogram",
    "InMemoryExporter",
    "JsonLinesExporter",
    "MetricsRegistry",
    "NOOP",
    "NoopMetrics",
    "NoopTelemetry",
    "SpanRecord",
    "StderrSummaryExporter",
    "Telemetry",
    "Trace",
    "TraceSpan",
    "get_telemetry",
    "load_trace",
    "render_span_tree",
    "render_summary",
    "render_time_table",
    "render_trace_report",
    "spans_to_chrome",
    "time_by_name",
    "trace_to_chrome",
    "write_chrome_trace",
]
