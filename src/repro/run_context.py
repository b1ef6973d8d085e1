"""The ambient run context: what a solve reads without parameter threading.

Library code deep inside a solve (a PCSA union, an Algorithm 1 merge, an
optimizer iteration) asks for the active tracer, decision log and
cooperative stop check at call time.  All three live in one immutable
:class:`RunContext` held in one :class:`~contextvars.ContextVar`,
installed for a block with :func:`run_scope`::

    telemetry = Telemetry(exporters=[InMemoryExporter()])
    with run_scope(telemetry=telemetry):
        session.solve()
    telemetry.close()

The one concurrency rule: the context belongs to the thread (or asyncio
task) running the code.  A new thread starts with the empty context, so
two solves on two threads never see each other's tracer, event log or
stop signal, and nothing a scope installs outlives it.

This module is a leaf (it imports nothing from the package): every field
defaults to ``None``, and each reader maps ``None`` to its own module's
no-op — :func:`~repro.telemetry.get_telemetry` and
:func:`~repro.explain.get_event_log`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True, slots=True)
class RunContext:
    """The ambient state of one run; ``None`` fields mean "disabled".

    Attributes
    ----------
    telemetry:
        The active :class:`~repro.telemetry.Telemetry`.
    events:
        The active :class:`~repro.explain.EventLog`.
    stop_check:
        Cooperative stop signal, consulted by every
        :meth:`~repro.search.base.RunClock.expired` call — iteration
        granularity, so losing it costs runtime, never correctness.
    """

    telemetry: Any = None
    events: Any = None
    stop_check: Callable[[], bool] | None = None


_RUN: ContextVar[RunContext] = ContextVar("repro_run", default=RunContext())

#: The calling thread's (or task's) :class:`RunContext`; the empty one
#: outside every :func:`run_scope`.
current_run: Callable[[], RunContext] = _RUN.get


@contextmanager
def run_scope(**fields: Any) -> Iterator[RunContext]:
    """Install a context for a ``with`` block, overriding ``fields``.

    Unnamed fields are inherited from the enclosing context; pass
    ``None`` to disable one.  The previous context is restored however
    the block ends.
    """
    run = replace(_RUN.get(), **fields)
    token = _RUN.set(run)
    try:
        yield run
    finally:
        _RUN.reset(token)


__all__ = ["RunContext", "current_run", "run_scope"]
