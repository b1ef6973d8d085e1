"""The durable run registry: every solve leaves a JSON-lines record.

``Session.solve`` (and therefore ``mube solve``) appends one record per
solve to ``.mube/runs.jsonl`` — the config fingerprint, the portfolio
and its seeds, per-worker outcomes/attempts/timings, the final quality,
a telemetry counter snapshot, and the checkpoint/resume linkage.  The
registry is what survives the process: ``mube runs`` lists it,
``mube runs show <id>`` renders one record, and the ROADMAP's future
solve service will poll it as its job store (submit → poll → fetch).

Appends are atomic at line granularity: each record is serialized to one
``\\n``-terminated line and written with a single ``write`` call on a
file opened in append mode, so concurrent writers (two sessions sharing
a registry) interleave whole records, never torn ones.  Malformed lines
— a crash mid-write on an exotic filesystem, a hand-edited file — are
skipped on load and counted, not fatal: the registry is an append-only
log, and one bad entry must not hide the rest.

The default location is ``.mube/runs.jsonl`` under the current
directory; ``MUBE_RUNS_PATH`` overrides it, and setting it to the empty
string disables recording process-wide.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Environment override for the registry path ("" disables recording).
RUNS_PATH_ENV = "MUBE_RUNS_PATH"

#: Default registry location, relative to the working directory.
DEFAULT_RUNS_PATH = os.path.join(".mube", "runs.jsonl")

#: Run-record schema version; bumped on incompatible layout changes.
RUN_RECORD_VERSION = 1


def new_run_id() -> str:
    """A unique, sortable run id: UTC timestamp plus random suffix."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One solve, durably described.

    ``workers`` holds one dict per portfolio worker — ``index``,
    ``label``, ``optimizer``, ``seed``, ``status`` (``ok`` / ``failed``
    / ``timed_out``), ``attempts``, ``resumed``, ``error``, and for
    successful workers ``objective``/``quality``/``iterations``/
    ``elapsed_seconds``.  A sequential (non-portfolio) solve records a
    single pseudo-worker so every record has the same shape.
    ``counters`` is the telemetry counter snapshot at record time (empty
    under the no-op tracer) — ``mube runs show`` folds the
    ``portfolio.*`` counters back out of it.
    """

    run_id: str
    started_at: float
    command: str
    fingerprint: str
    optimizer: str
    jobs: int
    quality: float
    objective: float
    feasible: bool
    selection: tuple[int, ...]
    iterations: int
    evaluations: int
    elapsed_seconds: float
    workers: tuple[dict, ...] = ()
    seeds: tuple[int, ...] = ()
    winner_index: int = 0
    early_stopped: bool = False
    retries: int = 0
    timeouts: int = 0
    requeues: int = 0
    pool_rebuilds: int = 0
    resumed_workers: int = 0
    checkpoint: str | None = None
    counters: dict = field(default_factory=dict)
    status: str = "ok"
    version: int = RUN_RECORD_VERSION

    def to_dict(self) -> dict:
        data = asdict(self)
        data["selection"] = list(self.selection)
        data["seeds"] = list(self.seeds)
        data["workers"] = [dict(worker) for worker in self.workers]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["selection"] = tuple(kwargs.get("selection", ()))
        kwargs["seeds"] = tuple(kwargs.get("seeds", ()))
        kwargs["workers"] = tuple(
            dict(w) for w in kwargs.get("workers", ())
        )
        return cls(**kwargs)

    def portfolio_counters(self) -> dict[str, int]:
        """The ``portfolio.*`` counter fold-back from the snapshot."""
        return {
            name: value
            for name, value in sorted(self.counters.items())
            if name.startswith("portfolio.")
        }


def build_run_record(
    result,
    fingerprint: str,
    command: str = "session.solve",
    jobs: int = 1,
    optimizer: str = "",
    checkpoint: str | None = None,
    counters: dict | None = None,
    run_id: str | None = None,
    started_at: float | None = None,
    seed: int = 0,
) -> RunRecord:
    """Distill a :class:`~repro.search.base.SearchResult` into a record.

    ``result.portfolio`` (when present) supplies the per-worker outcome
    table and the resilience counters; a plain sequential result is
    recorded as a one-worker portfolio.  Duck-typed on the result's
    fields so the registry needs no import of the search layer.
    """
    solution = result.solution
    stats = result.stats
    portfolio = getattr(result, "portfolio", None)
    if portfolio is not None:
        workers = tuple(
            _worker_entry(outcome) for outcome in portfolio.workers
        )
        seeds = tuple(outcome.seed for outcome in portfolio.workers)
        winner = portfolio.winner_index
        jobs = portfolio.jobs
        extra = dict(
            early_stopped=portfolio.early_stopped,
            retries=portfolio.retries,
            timeouts=portfolio.timeouts,
            requeues=portfolio.requeues,
            pool_rebuilds=portfolio.pool_rebuilds,
            resumed_workers=portfolio.resumed_workers,
            elapsed_seconds=float(portfolio.elapsed_seconds),
        )
    else:
        workers = (
            {
                "index": 0,
                "label": optimizer or "sequential",
                "optimizer": optimizer,
                "seed": seed,
                "status": "ok",
                "attempts": 1,
                "resumed": False,
                "error": None,
                "objective": float(solution.objective),
                "quality": float(solution.quality),
                "iterations": int(stats.iterations),
                "elapsed_seconds": float(stats.elapsed_seconds),
            },
        )
        seeds = (seed,)
        winner = 0
        extra = dict(elapsed_seconds=float(stats.elapsed_seconds))
    return RunRecord(
        run_id=run_id or new_run_id(),
        started_at=started_at if started_at is not None else time.time(),
        command=command,
        fingerprint=fingerprint,
        optimizer=optimizer,
        jobs=jobs,
        quality=float(solution.quality),
        objective=float(solution.objective),
        feasible=bool(solution.feasible),
        selection=tuple(int(s) for s in sorted(solution.selected)),
        iterations=int(stats.iterations),
        evaluations=int(stats.evaluations),
        workers=workers,
        seeds=seeds,
        winner_index=winner,
        checkpoint=checkpoint,
        counters=dict(counters or {}),
        **extra,
    )


def _worker_entry(outcome) -> dict:
    """One portfolio worker outcome as a JSON-safe registry entry."""
    entry = {
        "index": outcome.index,
        "label": outcome.label,
        "optimizer": outcome.optimizer,
        "seed": outcome.seed,
        "status": (
            "ok"
            if outcome.ok
            else ("timed_out" if outcome.timed_out else "failed")
        ),
        "attempts": outcome.attempts,
        "resumed": outcome.resumed,
        "error": outcome.error,
    }
    if outcome.ok:
        entry.update(
            objective=float(outcome.result.solution.objective),
            quality=float(outcome.result.solution.quality),
            iterations=int(outcome.result.stats.iterations),
            elapsed_seconds=float(outcome.result.stats.elapsed_seconds),
        )
    return entry


class RunRegistry:
    """An append-only JSON-lines store of :class:`RunRecord` values."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.skipped_lines = 0

    def record(self, record: RunRecord) -> None:
        """Append one record as a single atomic line write."""
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_dict(), default=str) + "\n"
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(line)

    def load(
        self,
        limit: int | None = None,
        status: str | None = None,
        command: str | None = None,
    ) -> list[RunRecord]:
        """Read records, oldest first, with optional filters.

        ``limit`` keeps only the *newest* N records after filtering;
        ``status`` matches exactly, ``command`` as a substring.
        Malformed lines are skipped (counted in ``skipped_lines``).
        """
        self.skipped_lines = 0
        records: list[RunRecord] = []
        if not self.path.exists():
            return records
        with open(self.path, encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = RunRecord.from_dict(json.loads(line))
                except (json.JSONDecodeError, TypeError, KeyError):
                    self.skipped_lines += 1
                    continue
                if status is not None and record.status != status:
                    continue
                if command is not None and command not in record.command:
                    continue
                records.append(record)
        if limit is not None and limit >= 0:
            records = records[-limit:] if limit else []
        return records

    def find(self, run_id: str) -> RunRecord | None:
        """The record whose id equals or uniquely starts with ``run_id``.

        On several prefix matches the newest wins — ids embed their
        timestamp, so "the latest run that looks like this" is the
        useful answer at a prompt.
        """
        matches = [
            record
            for record in self.load()
            if record.run_id == run_id or record.run_id.startswith(run_id)
        ]
        return matches[-1] if matches else None

    def __repr__(self) -> str:
        return f"RunRegistry({str(self.path)!r})"


def default_registry() -> RunRegistry | None:
    """The process-default registry, or None when recording is disabled.

    Honours :data:`RUNS_PATH_ENV`; an empty value disables recording
    (useful for batch experiments that should not grow a registry).
    """
    path = os.environ.get(RUNS_PATH_ENV, DEFAULT_RUNS_PATH)
    if not path:
        return None
    return RunRegistry(path)


__all__ = [
    "DEFAULT_RUNS_PATH",
    "RUNS_PATH_ENV",
    "RUN_RECORD_VERSION",
    "RunRecord",
    "RunRegistry",
    "build_run_record",
    "default_registry",
    "new_run_id",
]
