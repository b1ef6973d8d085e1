"""Resilience layer for the portfolio engine: timeouts, retry, checkpoints.

The parallel engine made worker failure *survivable* — a crashed
worker becomes a :class:`~repro.search.parallel.WorkerOutcome` with an
error instead of sinking the solve.  This module makes failure
*recoverable*, under one hard constraint: every recovery action must keep
the portfolio a pure function of its inputs.  Concretely:

* **Deterministic retry.**  A failed or timed-out worker is re-run up to
  the engine's ``retries`` extra times, immediately and with the
  *identical* spec (same optimizer, same seed), so a transient fault — a
  killed process, a hung machine — costs wall-clock but cannot change
  the answer: the retried portfolio's winner is the winner an unfaulted
  run would have produced.

* **Checkpoint/resume.**  The engine snapshots best-so-far state after
  every worker outcome as an atomic JSON file (write to ``.tmp``, then
  ``os.replace``), recording each worker's status, selection, stats and
  trajectory.  Resuming re-evaluates completed workers' stored selections
  against the (deterministic) objective instead of re-running their
  searches, so a resumed solve reproduces the killed run's finished work
  bit-identically and only spends compute on the workers the crash
  interrupted.  A fingerprint of the problem guards against resuming
  against a different universe, weights, or constraints.

The engine-side mechanics (future timeouts, ``BrokenProcessPool``
rebuild, requeueing) live in :mod:`repro.search.parallel`; this module
owns the *data contracts* so they can be tested and documented on their
own.  See docs/resilience.md for semantics and the fault-injection
cookbook.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from ..exceptions import SearchError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core import Problem
    from .parallel import WorkerSpec

#: Checkpoint schema version; bumped on incompatible layout changes.
CHECKPOINT_VERSION = 1

#: Reserved spec-param key the engine rewrites to the current attempt
#: number on every retry.  Deliberately collision-proof: a real
#: optimizer constructor param named ``attempt`` must never be clobbered
#: by the retry machinery, so the contract uses a dunder name no
#: ordinary optimizer would claim.
ATTEMPT_PARAM = "__attempt__"


def respec_for_attempt(spec: "WorkerSpec", attempt: int) -> "WorkerSpec":
    """The spec to actually run for a worker's ``attempt``-th try.

    A retry re-runs the identical search: same optimizer, same config,
    same seed.  The one rewrite is any constructor param keyed on the
    reserved :data:`ATTEMPT_PARAM` name, set to ``attempt`` — the
    installation contract the fault-injection harness
    (:mod:`repro.testing.faults`) uses to key faults on
    ``(worker_index, attempt)`` without the engine knowing about faults.
    Ordinary params — including one a real optimizer happens to call
    ``attempt`` — pass through untouched.
    """
    if attempt <= 0:
        return spec
    params = tuple(
        (key, attempt if key == ATTEMPT_PARAM else value)
        for key, value in spec.params
    )
    return replace(spec, params=params)


# -- problem fingerprint ------------------------------------------------------


def problem_fingerprint(problem: "Problem") -> str:
    """A stable digest of everything a checkpoint must match to resume.

    Covers the universe's ids and schemas, the weights, constraints,
    budget, θ, β and the characteristic QEFs — the full input of the
    optimization.  Two problems with the same fingerprint evaluate any
    selection identically, which is what makes restoring a checkpointed
    selection bit-identical.
    """
    universe = problem.universe
    payload = {
        "sources": [
            (source.source_id, tuple(source.schema), source.cardinality)
            for source in sorted(universe, key=lambda s: s.source_id)
        ],
        "weights": sorted(problem.weights.items()),
        "source_constraints": sorted(problem.source_constraints),
        "ga_constraints": sorted(
            tuple(sorted(ga.names())) for ga in problem.ga_constraints
        ),
        "max_sources": problem.max_sources,
        "theta": problem.theta,
        "beta": problem.beta,
        "characteristic_qefs": [
            (
                spec.name,
                spec.characteristic,
                spec.aggregator,
                spec.higher_is_better,
            )
            for spec in problem.characteristic_qefs
        ],
    }
    digest = hashlib.sha256(repr(payload).encode("utf-8"))
    return digest.hexdigest()[:16]


# -- checkpoint data model ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class WorkerProgress:
    """One worker's recorded state inside a checkpoint.

    ``status`` is one of ``"ok"``, ``"failed"``, ``"timed_out"`` or
    ``"pending"``.  Completed workers carry enough to be restored without
    re-running the search: the selection (re-evaluated on resume — the
    objective is deterministic, so this reproduces the full solution),
    the run stats, and the trajectory.
    """

    index: int
    optimizer: str
    seed: int
    label: str
    status: str = "pending"
    attempts: int = 0
    error: str | None = None
    selection: tuple[int, ...] | None = None
    stats: dict | None = None
    trajectory: tuple[float, ...] = ()

    @property
    def finished(self) -> bool:
        """True iff this worker needs no further work on resume."""
        return self.status in ("ok", "failed", "timed_out")

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "optimizer": self.optimizer,
            "seed": self.seed,
            "label": self.label,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "selection": (
                list(self.selection) if self.selection is not None else None
            ),
            "stats": self.stats,
            "trajectory": list(self.trajectory),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkerProgress":
        selection = data.get("selection")
        return cls(
            index=data["index"],
            optimizer=data["optimizer"],
            seed=data["seed"],
            label=data["label"],
            status=data["status"],
            attempts=data.get("attempts", 0),
            error=data.get("error"),
            selection=tuple(selection) if selection is not None else None,
            stats=data.get("stats"),
            trajectory=tuple(data.get("trajectory", ())),
        )


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """An atomic snapshot of a portfolio solve in flight.

    ``best_selection`` is the deterministic-merge winner over the
    finished workers at write time — the anytime answer that survives a
    crash.  ``workers`` records every worker's progress so resume knows
    exactly what is left to do.
    """

    fingerprint: str
    workers: tuple[WorkerProgress, ...]
    best_selection: tuple[int, ...] | None = None
    best_objective: float | None = None
    best_quality: float | None = None
    version: int = CHECKPOINT_VERSION

    @property
    def completed(self) -> int:
        """Workers that need no further work on resume."""
        return sum(1 for worker in self.workers if worker.finished)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "best": {
                "selection": (
                    list(self.best_selection)
                    if self.best_selection is not None
                    else None
                ),
                "objective": self.best_objective,
                "quality": self.best_quality,
            },
            "completed": self.completed,
            "total": len(self.workers),
            "workers": [worker.to_dict() for worker in self.workers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Checkpoint":
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise SearchError(
                f"unsupported checkpoint version {version!r} "
                f"(this build writes version {CHECKPOINT_VERSION})"
            )
        best = data.get("best") or {}
        selection = best.get("selection")
        return cls(
            fingerprint=data["fingerprint"],
            workers=tuple(
                WorkerProgress.from_dict(entry)
                for entry in data.get("workers", ())
            ),
            best_selection=(
                tuple(selection) if selection is not None else None
            ),
            best_objective=best.get("objective"),
            best_quality=best.get("quality"),
        )


def write_checkpoint(path: str | Path, checkpoint: Checkpoint) -> None:
    """Atomically persist a checkpoint (write ``.tmp``, then rename).

    ``os.replace`` is atomic on POSIX and Windows, so a reader — or a
    resume after a kill mid-write — only ever sees the previous complete
    snapshot or the new complete snapshot, never a torn file.
    """
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as stream:
        json.dump(checkpoint.to_dict(), stream, indent=1)
        stream.write("\n")
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> Checkpoint | None:
    """Read a checkpoint, or None when the file does not exist.

    Raises
    ------
    SearchError
        If the file exists but is not a readable checkpoint — a corrupt
        snapshot must be surfaced, not silently restarted from scratch.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        with open(path, encoding="utf-8") as stream:
            data = json.load(stream)
    except (OSError, json.JSONDecodeError) as exc:
        raise SearchError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        return Checkpoint.from_dict(data)
    except (KeyError, TypeError) as exc:
        raise SearchError(
            f"malformed checkpoint {path}: missing field {exc}"
        ) from exc


__all__ = [
    "ATTEMPT_PARAM",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "WorkerProgress",
    "load_checkpoint",
    "problem_fingerprint",
    "respec_for_attempt",
    "write_checkpoint",
]
