"""The live heartbeat channel between portfolio workers and the engine.

A portfolio solve used to be a black box while it ran: per-worker
progress only existed *after* a worker finished, timed out or crashed.
This module gives workers a voice mid-search.  A
:class:`HeartbeatEmitter` is installed as the run context's
``progress_hook`` (:mod:`repro.run_context` — the sibling of the
cooperative ``stop_check``) for the duration of one worker attempt;
every candidate batch the optimizer scores ticks the
emitter, which throttles on wall-clock and pushes a small frozen
:class:`Heartbeat` record into a sink.

Two sinks exist:

* in-process (``jobs=1`` and the degraded inline fallback), the sink is
  :meth:`~repro.telemetry.observatory.status.RunStatus.record_heartbeat`
  directly;
* in pool mode, the sink is :func:`queue_sink` over a **bounded**
  ``multiprocessing`` queue shipped to workers through the pool
  initializer, which the engine drains on a parent-side thread.

Heartbeats are **advisory and lossy by contract**: the queue is bounded
and :func:`offer` drops the oldest record rather than ever blocking the
worker; a full, broken or closed channel is silently ignored.  Emission
observes the optimizer's already-computed candidate scores and touches
no RNG, so a solve with heartbeats on is bit-identical to the same solve
with them off (held by tests/observability/).
"""

from __future__ import annotations

import math
import queue as queue_module
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

#: Capacity of the worker→engine heartbeat queue.  Small on purpose:
#: heartbeats describe *now*, so under backpressure the oldest record is
#: the right one to lose.
HEARTBEAT_QUEUE_SIZE = 512

#: Default minimum seconds between two heartbeats from one worker.
DEFAULT_HEARTBEAT_INTERVAL = 0.05


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """One worker's mid-search pulse.

    ``iteration`` counts scored candidate batches (one per optimizer
    iteration for every neighborhood-based optimizer);
    ``best_objective``/``feasible`` are the best ``(objective,
    feasible)`` pair the worker has *observed* so far this attempt;
    ``elapsed_seconds`` is wall-clock since the attempt started inside
    the worker.  ``final`` marks the last heartbeat of an attempt,
    emitted as the progress hook uninstalls.
    """

    worker: int
    attempt: int
    iteration: int
    best_objective: float
    feasible: bool
    elapsed_seconds: float
    final: bool = False

    def to_dict(self) -> dict:
        """JSON-safe dict form (used by tests and offline tooling)."""
        return {
            "worker": self.worker,
            "attempt": self.attempt,
            "iteration": self.iteration,
            "best_objective": self.best_objective,
            "feasible": self.feasible,
            "elapsed_seconds": self.elapsed_seconds,
            "final": self.final,
        }


def offer(channel, heartbeat: Heartbeat) -> bool:
    """Push a heartbeat without ever blocking: drop-oldest under pressure.

    Returns True iff the record landed.  Every failure mode of a
    multiprocessing queue — full, empty-on-evict, closed mid-shutdown —
    is swallowed, because losing a heartbeat must only ever cost
    visibility, never correctness or liveness of the worker.
    """
    try:
        channel.put_nowait(heartbeat)
        return True
    except queue_module.Full:
        pass
    except Exception:  # noqa: BLE001 - advisory channel, see docstring
        return False
    try:
        channel.get_nowait()
    except Exception:  # noqa: BLE001 - racing the drainer is fine
        pass
    try:
        channel.put_nowait(heartbeat)
        return True
    except Exception:  # noqa: BLE001 - still full/closed: drop this one
        return False


def queue_sink(channel) -> Callable[[Heartbeat], None]:
    """A sink that offers each heartbeat to a bounded queue."""

    def sink(heartbeat: Heartbeat) -> None:
        offer(channel, heartbeat)

    return sink


class HeartbeatEmitter:
    """Progress hook for one worker attempt: fold batches, emit throttled.

    Installed as ``run_scope(progress_hook=...)`` around
    :func:`~repro.search.parallel._execute_spec`.  Called with each
    scored candidate batch, it tracks the running ``(objective,
    feasible)`` best and the batch count, and emits at most one
    heartbeat per ``interval`` seconds (plus a final one from
    :meth:`close`).  Sink errors are swallowed — the emitter exists to
    observe the search, never to perturb it.
    """

    __slots__ = (
        "sink",
        "worker",
        "attempt",
        "interval",
        "iteration",
        "best_objective",
        "feasible",
        "emitted",
        "_started",
        "_last_emit",
    )

    def __init__(
        self,
        sink: Callable[[Heartbeat], None],
        worker: int,
        attempt: int = 0,
        interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    ):
        self.sink = sink
        self.worker = worker
        self.attempt = attempt
        self.interval = interval
        self.iteration = 0
        self.best_objective = -math.inf
        self.feasible = False
        self.emitted = 0
        self._started = time.perf_counter()
        self._last_emit = -math.inf

    def __call__(self, solutions: Sequence) -> None:
        """The progress-hook entrypoint: one scored batch observed."""
        self.iteration += 1
        for solution in solutions:
            if (solution.objective, solution.feasible) > (
                self.best_objective,
                self.feasible,
            ):
                self.best_objective = solution.objective
                self.feasible = solution.feasible
        now = time.perf_counter()
        if now - self._last_emit >= self.interval:
            self._last_emit = now
            self._emit(final=False)

    def close(self) -> None:
        """Emit the attempt's final heartbeat (best-effort)."""
        self._emit(final=True)

    def _emit(self, final: bool) -> None:
        heartbeat = Heartbeat(
            worker=self.worker,
            attempt=self.attempt,
            iteration=self.iteration,
            best_objective=self.best_objective,
            feasible=self.feasible,
            elapsed_seconds=time.perf_counter() - self._started,
            final=final,
        )
        try:
            self.sink(heartbeat)
            self.emitted += 1
        except Exception:  # noqa: BLE001 - advisory channel
            pass

    def __repr__(self) -> str:
        return (
            f"HeartbeatEmitter(worker={self.worker}, "
            f"attempt={self.attempt}, emitted={self.emitted})"
        )


__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "HEARTBEAT_QUEUE_SIZE",
    "Heartbeat",
    "HeartbeatEmitter",
    "offer",
    "queue_sink",
]
