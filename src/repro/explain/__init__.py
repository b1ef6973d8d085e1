"""Solve provenance and explainability.

The counterpart to :mod:`repro.telemetry` (which answers *where did the
time go*): this subsystem answers *why is the answer what it is*.  Three
layers:

* **decision events** (:mod:`repro.explain.events`) — a ring-buffered,
  no-op-by-default log of the decisions the pipeline makes: Algorithm
  1's seeds/merges/deferrals/eliminations, the tabu optimizer's
  accepted/rejected/aspiration moves, and each ``Q(S)`` scoring with
  its per-QEF breakdown;
* **attribution** (:mod:`repro.explain.attribution`) — computed on a
  finished solution: per-GA merge-chain provenance (the max-similarity
  pair that justifies each GA per the F1 definition), leave-one-out
  per-source quality deltas, and the exact per-QEF decomposition of the
  overall quality;
* **renderers** (:mod:`repro.explain.report`) — text, markdown and JSON
  reports; ``mube explain`` and ``mube solve --explain FILE`` on the
  CLI, :meth:`repro.Session.explain` from Python.

See docs/explainability.md for the event taxonomy and a worked
transcript.

.. note::
   The heavy modules (attribution, report) are loaded lazily: the event
   module is imported from hot pipeline code (``matching.greedy`` et
   al.), and an eager import of the attribution engine here would close
   an import cycle back into ``repro.matching``.
"""

from .events import (
    NOOP_EVENTS,
    AttrKey,
    ClusterEliminated,
    DecisionEvent,
    EventLog,
    MergeDeferred,
    MoveAccepted,
    MoveTabuRejected,
    NewBest,
    NoopEventLog,
    PairMerged,
    SeedPlanted,
    SelectionScored,
    get_event_log,
)

_LAZY = {
    "GAProvenance": "attribution",
    "QEFContribution": "attribution",
    "SolutionExplanation": "attribution",
    "SourceAttribution": "attribution",
    "change_notes": "attribution",
    "explain_solution": "attribution",
    "render_explanation_json": "report",
    "render_explanation_markdown": "report",
    "render_explanation_text": "report",
}

__all__ = [
    "AttrKey",
    "ClusterEliminated",
    "DecisionEvent",
    "EventLog",
    "GAProvenance",
    "MergeDeferred",
    "MoveAccepted",
    "MoveTabuRejected",
    "NewBest",
    "NOOP_EVENTS",
    "NoopEventLog",
    "PairMerged",
    "QEFContribution",
    "SeedPlanted",
    "SelectionScored",
    "SolutionExplanation",
    "SourceAttribution",
    "change_notes",
    "explain_solution",
    "get_event_log",
    "render_explanation_json",
    "render_explanation_markdown",
    "render_explanation_text",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
