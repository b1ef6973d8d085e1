"""The decision-event log: *why* the solver did what it did.

Telemetry (``repro.telemetry``) answers "where did the time go"; this
module answers "which decisions produced this answer".  The solve
pipeline emits small frozen dataclass events at each decision point —
Algorithm 1's seeds, merges, deferrals and eliminations
(:mod:`repro.matching.greedy`), the tabu optimizer's accepted / rejected
/ aspiration moves (:mod:`repro.search.tabu`), and each uncached
``Q(S)`` scoring with its per-QEF breakdown
(:mod:`repro.quality.overall`).

The design mirrors telemetry exactly:

* the default (:data:`NOOP_EVENTS`) discards everything in a couple of
  trivial calls, so library code can emit unconditionally — every
  emission site guards with ``log.enabled`` so the disabled cost is one
  run-context read and one attribute check;
* a live :class:`EventLog` is installed for a block with
  ``run_scope(events=log)`` (:mod:`repro.run_context`), so it only
  hears the thread that installed it;
* events are kept in a *ring buffer* (oldest dropped first), so a long
  solve with millions of move evaluations stays bounded in memory while
  the decisions that shaped the *final* answer survive;
* events can additionally ride the telemetry exporter plumbing: any
  exporter with an ``export_event`` hook (see
  :class:`repro.telemetry.exporters.Exporter`) receives each event as a
  ``{"type": "event", ...}`` record.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Any, ClassVar

from ..run_context import current_run

#: Compact attribute identity carried by events: ``(source_id, index,
#: name)``.  The ``(source_id, index)`` prefix is the stable key used to
#: map events onto final GAs; the name rides along for display.
AttrKey = tuple[int, int, str]


def attr_key(attr) -> AttrKey:
    """The :data:`AttrKey` of an :class:`~repro.core.AttributeRef`."""
    return (attr.source_id, attr.index, attr.name)


def cluster_members(cluster) -> tuple[AttrKey, ...]:
    """Member keys of a matching cluster, sorted for stable output."""
    return tuple(
        sorted(attr_key(a) for a in cluster.attrs)
    )


class DecisionEvent:
    """Base class for all decision events.

    Subclasses are frozen dataclasses with a ``kind`` class attribute
    following a dot-separated taxonomy (``match.*``, ``search.*``,
    ``quality.*`` — see docs/explainability.md).
    """

    __slots__ = ()

    kind: ClassVar[str] = "event"

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict form (the exporter record format)."""
        payload: dict[str, Any] = {"type": "event", "kind": self.kind}
        for field in fields(self):  # type: ignore[arg-type]
            value = getattr(self, field.name)
            if isinstance(value, frozenset):
                value = sorted(value)
            payload[field.name] = value
        return payload


# -- Algorithm 1 (greedy constrained clustering) ----------------------------


@dataclass(frozen=True, slots=True)
class SeedPlanted(DecisionEvent):
    """A user GA constraint became a ``keep`` cluster (Algorithm 1, line 3).

    ``seed_index`` numbers the coalesced seeds in their deterministic
    order — the same order :func:`repro.matching.operator.coalesce_ga_constraints`
    returns, so it lines up with ``GAProvenance.seeded_by``.
    """

    kind: ClassVar[str] = "match.seed"

    seed_index: int
    members: tuple[AttrKey, ...]


@dataclass(frozen=True, slots=True)
class PairMerged(DecisionEvent):
    """Two clusters merged: the decisive event that grows a GA.

    ``similarity`` is the winning cluster-pair similarity popped from
    the priority queue; ``pair_a``/``pair_b`` are the two member
    attributes that realize it under single linkage (the max-similarity
    pair, i.e. the pair that *justifies* the merge per the F1
    definition).  ``seeded`` marks merges where either side carries a
    user constraint — the paper's bridging effect.
    """

    kind: ClassVar[str] = "match.merge"

    round: int
    similarity: float
    left: tuple[AttrKey, ...]
    right: tuple[AttrKey, ...]
    pair_a: AttrKey
    pair_b: AttrKey
    seeded: bool


@dataclass(frozen=True, slots=True)
class MergeDeferred(DecisionEvent):
    """A popped pair lost its partner to an earlier merge this round.

    The surviving side becomes a *merge candidate*: it is kept alive for
    the next round instead of being eliminated (Algorithm 1's deferral).
    """

    kind: ClassVar[str] = "match.defer"

    round: int
    similarity: float
    members: tuple[AttrKey, ...]


@dataclass(frozen=True, slots=True)
class ClusterEliminated(DecisionEvent):
    """A cluster was frozen into the output (Algorithm 1's elimination).

    Under single linkage its similarity to every other cluster is below
    θ and can never rise again.
    """

    kind: ClassVar[str] = "match.eliminate"

    round: int
    members: tuple[AttrKey, ...]


# -- tabu search ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MoveAccepted(DecisionEvent):
    """The optimizer committed a move (possibly worsening — that is tabu's
    point).  ``aspiration`` marks moves that overrode the tabu list by
    beating the best solution seen so far."""

    kind: ClassVar[str] = "search.accept"

    iteration: int
    move: str
    added: int | None
    dropped: int | None
    objective: float
    improving: bool
    aspiration: bool


@dataclass(frozen=True, slots=True)
class MoveTabuRejected(DecisionEvent):
    """A candidate move was discarded because a touched source is tabu
    and the move would not beat the incumbent best (no aspiration)."""

    kind: ClassVar[str] = "search.tabu_reject"

    iteration: int
    move: str
    added: int | None
    dropped: int | None
    objective: float


@dataclass(frozen=True, slots=True)
class NewBest(DecisionEvent):
    """The search found a new incumbent best solution."""

    kind: ClassVar[str] = "search.new_best"

    iteration: int
    objective: float
    quality: float
    selected: tuple[int, ...]


# -- quality evaluation ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SelectionScored(DecisionEvent):
    """One uncached ``Q(S)`` evaluation with its full decomposition.

    ``scores`` are the raw per-QEF values ``F_i(S)``; ``weights`` the
    weights actually applied; ``quality`` is ``Σ w_i F_i`` and
    ``objective`` the (possibly feasibility-discounted) value the
    optimizer saw.  ``reasons`` is non-empty exactly when the selection
    is infeasible.
    """

    kind: ClassVar[str] = "quality.scored"

    selected: tuple[int, ...]
    scores: dict[str, float]
    weights: dict[str, float]
    quality: float
    objective: float
    feasible: bool
    reasons: tuple[str, ...]


# -- the log -----------------------------------------------------------------


class EventLog:
    """A live, ring-buffered decision-event log.

    Parameters
    ----------
    capacity:
        Maximum events retained; older events are dropped first (the
        count of drops is kept in :attr:`dropped`).
    exporters:
        Objects with an ``export_event(event)`` hook — typically the
        same exporters a :class:`~repro.telemetry.Telemetry` holds, so
        events interleave with spans in a ``--trace`` file.
    """

    enabled = True

    def __init__(self, capacity: int = 65_536, exporters: list | tuple = ()):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.exporters = list(exporters)
        self.dropped = 0
        self._events: deque[DecisionEvent] = deque(maxlen=capacity)

    def emit(self, event: DecisionEvent) -> None:
        """Record one event (and forward it to the exporters)."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        for exporter in self.exporters:
            export = getattr(exporter, "export_event", None)
            if export is not None:
                export(event)

    def events(
        self, kind: str | None = None, prefix: str | None = None
    ) -> list[DecisionEvent]:
        """Retained events in emission order, optionally filtered.

        ``kind`` matches exactly; ``prefix`` matches the taxonomy prefix
        (``prefix="match."`` selects all Algorithm-1 events).
        """
        if kind is not None:
            return [e for e in self._events if e.kind == kind]
        if prefix is not None:
            return [e for e in self._events if e.kind.startswith(prefix)]
        return list(self._events)

    def counts(self) -> dict[str, int]:
        """Events per kind (sorted by kind for stable output)."""
        tally: dict[str, int] = {}
        for event in self._events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return dict(sorted(tally.items()))

    def clear(self) -> None:
        """Drop all retained events (the drop counter is kept)."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return (
            f"EventLog(events={len(self._events)}, "
            f"capacity={self.capacity}, dropped={self.dropped})"
        )


class NoopEventLog:
    """The default log: every operation is a constant-time no-op."""

    enabled = False
    capacity = 0
    dropped = 0
    exporters: list = []

    __slots__ = ()

    def emit(self, event: DecisionEvent) -> None:
        pass

    def events(
        self, kind: str | None = None, prefix: str | None = None
    ) -> list[DecisionEvent]:
        return []

    def counts(self) -> dict[str, int]:
        return {}

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NoopEventLog()"


#: Shared no-op instance, what :func:`get_event_log` returns by default.
NOOP_EVENTS = NoopEventLog()


def get_event_log() -> EventLog | NoopEventLog:
    """The active event log (the shared no-op outside an events scope)."""
    log = current_run().events
    return NOOP_EVENTS if log is None else log
