"""The run observatory: a durable log of every solve.

* **registry** (:mod:`.registry`) — every solve appends a durable
  :class:`RunRecord` line to ``.mube/runs.jsonl``, listed by
  ``mube runs`` and rendered by ``mube runs show`` (:mod:`.render`).

A solve's worker lifecycle is read off its result
(:class:`~repro.search.parallel.PortfolioStats`), the ``portfolio.*``
counters and the tracer's spans, all of which the record captures.  The
observatory only ever observes: recording a run must not change what a
solve returns.
"""

from .registry import (
    DEFAULT_RUNS_PATH,
    RUNS_PATH_ENV,
    RunRecord,
    RunRegistry,
    build_run_record,
    default_registry,
    new_run_id,
)
from .render import render_run_record, render_runs_table

__all__ = [
    "DEFAULT_RUNS_PATH",
    "RUNS_PATH_ENV",
    "RunRecord",
    "RunRegistry",
    "build_run_record",
    "default_registry",
    "new_run_id",
    "render_run_record",
    "render_runs_table",
]
