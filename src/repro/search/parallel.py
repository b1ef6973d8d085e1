"""Multi-process portfolio search over a shared compiled universe.

µBE's interactive loop lives or dies on re-solve latency, and after the
columnar batch core every solve still occupies one CPU core.  This module
turns the single-threaded optimizers into a *portfolio*: K workers —
seeded restarts of one strategy, heterogeneous strategies, or any mix —
run concurrently across a :class:`~concurrent.futures.ProcessPoolExecutor`
and the engine deterministically merges their results.

Design points:

* **One context, one transport.**  The :class:`Problem` (universe,
  sketches, constraints), the prebuilt dense
  :class:`~repro.similarity.matrix.NameSimilarityMatrix` and, on delta
  re-solves, the session's compiled
  :class:`~repro.quality.compiled.EvalContext` form one
  :class:`WorkerContext` handed to every pool process through the
  initializer.  Under ``fork`` the workers inherit it copy-on-write;
  under ``spawn`` it is pickled once per pool generation (the first
  pool, each rotation and each broken-pool rebuild), which the explicit
  ``__getstate__`` hooks on `Universe` and friends keep lean.  The
  `Objective` and match operator are rebuilt *inside* the worker, per
  run, so results never depend on which process a task landed in.

* **Deterministic merge.**  Workers are merged in *submission* order, the
  winner chosen by ``(objective, feasible)`` with ties broken by the
  canonical selection key (the sorted source-id tuple) and then the lower
  worker index — never by completion order, so a loaded machine returns
  the same answer as an idle one.

* **jobs=1 ≡ sequential.**  With one job the engine runs every worker in
  this process, seed for seed through the very same
  :meth:`~repro.search.base.Optimizer.optimize` path a plain solve uses,
  so single-job portfolio output is bit-identical to today's sequential
  solves (tests/search/test_parallel_determinism.py holds this line).

* **Early stop is advisory.**  A worker whose solution reaches
  ``stop_quality`` sets a shared event; siblings observe it at their next
  ``clock.expired()`` check (the run context's ``stop_check``, see
  :mod:`repro.run_context`).  Losing the signal only costs runtime,
  never correctness.  In-process workers also keep the caller's own
  stop check.

* **Failure is survivable — and recoverable.**  A crashing worker is
  logged into its :class:`WorkerOutcome` and counted in
  :attr:`PortfolioStats.failed_workers`; the solve returns the best
  surviving result.  Three engine arguments go further:
  ``worker_timeout`` cancels hung workers (``timed_out`` outcomes),
  ``retries`` re-runs failed and timed-out workers with their identical
  spec, and ``checkpoint`` writes best-so-far state atomically after
  every worker outcome, so a killed solve resumes instead of
  restarting.  A broken process pool is rebuilt once with its
  unfinished workers requeued, degrading to in-process execution if the
  rebuilt pool breaks too.  Only a portfolio with zero survivors raises
  :class:`~repro.exceptions.SearchError`, with per-worker reasons.

* **Telemetry folds back.**  Each worker traces into its own in-memory
  tracer and returns ``(spans, metrics snapshot)``; the parent re-indexes
  the spans under its open ``portfolio.solve`` span and merges the
  counters, so ``--trace`` and ``mube trace-report`` see the whole run.
  Recovery actions add the ``portfolio.retries`` /
  ``portfolio.timeouts`` / ``portfolio.requeues`` /
  ``portfolio.pool_rebuilds`` / ``portfolio.checkpoints`` /
  ``portfolio.resumed_workers`` counters (docs/observability.md).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from ..core import Problem
from ..exceptions import SearchError
from ..quality.overall import Objective
from ..run_context import current_run, run_scope
from ..similarity.matrix import NameSimilarityMatrix
from ..telemetry import (
    NOOP,
    InMemoryExporter,
    Telemetry,
    get_telemetry,
)
from .base import OptimizerConfig, SearchResult, SearchStats
from .resilience import (
    Checkpoint,
    WorkerProgress,
    load_checkpoint,
    problem_fingerprint,
    respec_for_attempt,
    write_checkpoint,
)


@dataclass(frozen=True, slots=True)
class WorkerSpec:
    """One worker's marching orders: which optimizer, how, from where.

    Everything here is plain picklable data — the worker process rebuilds
    the optimizer via :meth:`~repro.search.base.Optimizer.run_from_config`
    from the registry name, the config and the extra constructor
    ``params`` (an item tuple so the spec stays hashable).  The optimizer
    name may also be a ``"module.path:ClassName"`` reference to an
    :class:`~repro.search.base.Optimizer` subclass outside the registry —
    resolved inside the worker process, so it works under ``spawn`` too;
    the fault-injection harness (:mod:`repro.testing.faults`) rides this.
    """

    optimizer: str
    config: OptimizerConfig
    params: tuple[tuple[str, object], ...] = ()
    label: str = ""

    @property
    def seed(self) -> int:
        """The worker's RNG seed (from its config)."""
        return self.config.seed

    def describe(self) -> str:
        """Human-readable identity for logs and reports."""
        return self.label or f"{self.optimizer}(seed={self.seed})"


@dataclass(frozen=True, slots=True)
class WorkerOutcome:
    """What one portfolio worker produced: a result or a failure reason.

    ``attempts`` counts every try this run spent on the worker (1 when
    nothing went wrong); ``timed_out`` marks workers whose last attempt
    exceeded the per-worker wall-clock budget; ``resumed`` marks outcomes
    restored from a checkpoint instead of being recomputed.
    """

    index: int
    label: str
    optimizer: str
    seed: int
    result: SearchResult | None = None
    error: str | None = None
    timed_out: bool = False
    attempts: int = 1
    resumed: bool = False

    @property
    def ok(self) -> bool:
        """True iff the worker completed and returned a result."""
        return self.result is not None


@dataclass(frozen=True, slots=True)
class PortfolioStats:
    """Aggregate statistics over one portfolio solve.

    Attached to the winning :class:`~repro.search.base.SearchResult` as
    its ``portfolio`` field, so callers that ignore parallelism see a
    plain result and callers that care can drill into every worker.
    The resilience counters (``retries`` … ``resumed_workers``) stay 0
    on runs with no worker timeout, retries or checkpoint.
    """

    jobs: int
    workers: tuple[WorkerOutcome, ...]
    winner_index: int
    elapsed_seconds: float
    early_stopped: bool
    retries: int = 0
    timeouts: int = 0
    requeues: int = 0
    pool_rebuilds: int = 0
    resumed_workers: int = 0

    @property
    def failed_workers(self) -> int:
        """How many workers crashed instead of returning a result."""
        return sum(1 for outcome in self.workers if not outcome.ok)

    @property
    def succeeded_workers(self) -> int:
        """How many workers returned a result."""
        return sum(1 for outcome in self.workers if outcome.ok)

    @property
    def timed_out_workers(self) -> int:
        """How many workers' final attempt exceeded the wall-clock budget."""
        return sum(1 for outcome in self.workers if outcome.timed_out)

    @property
    def total_iterations(self) -> int:
        """Optimizer iterations summed over the surviving workers."""
        return sum(o.result.stats.iterations for o in self.workers if o.ok)

    @property
    def total_evaluations(self) -> int:
        """Objective evaluations summed over the surviving workers."""
        return sum(o.result.stats.evaluations for o in self.workers if o.ok)

    @property
    def winner(self) -> WorkerOutcome:
        """The outcome whose result the engine returned."""
        for outcome in self.workers:
            if outcome.index == self.winner_index:
                return outcome
        raise SearchError(
            f"winner index {self.winner_index} not among the outcomes"
        )


class WorkerContext:
    """The one context every portfolio worker shares.

    Carries the compiled problem, the prebuilt similarity matrix and the
    caller's compiled ``EvalContext`` (each when available), plus the run
    parameters common to all workers.  The :class:`Objective` and its
    match operator are *not* shipped: :meth:`build_objective` rebuilds
    them inside the worker, per run, so results never depend on which
    process a task landed in.
    """

    def __init__(
        self,
        problem: Problem,
        similarity: NameSimilarityMatrix | None = None,
        initial: frozenset[int] | None = None,
        stop_quality: float | None = None,
        collect_telemetry: bool = False,
        eval_context=None,
    ):
        self.problem = problem
        self.similarity = similarity
        self.initial = initial
        self.stop_quality = stop_quality
        self.collect_telemetry = collect_telemetry
        self.eval_context = eval_context

    def build_objective(self) -> Objective:
        """A fresh objective compiled from the shipped problem.

        When the caller attached a pre-compiled
        :class:`~repro.quality.compiled.EvalContext` (the session's delta
        pipeline does, so a patched compile is not redone per worker),
        the objective adopts it instead of compiling cold — bit-identical
        either way, by the context-patching contract.
        """
        return Objective(
            self.problem,
            similarity=self.similarity,
            context=self.eval_context,
        )

    def __repr__(self) -> str:
        return f"WorkerContext({len(self.problem.universe)} sources)"


def export_context(context: WorkerContext) -> tuple[WorkerContext, None]:
    """``(context, None)``: kept for wrappers that read ``result[1]``."""
    return context, None


# -- portfolio construction ---------------------------------------------------


def seeded_restarts(
    optimizer: str,
    count: int,
    base_config: OptimizerConfig | None = None,
) -> tuple[WorkerSpec, ...]:
    """``count`` restarts of one optimizer with consecutive seeds.

    Worker ``i`` gets ``base_config.seed + i``, so a portfolio is an
    explicit, reproducible function of the base seed — and the 0th worker
    runs the exact search a sequential solve with ``base_config`` would.
    """
    if count < 1:
        raise SearchError(f"portfolio needs at least one worker, got {count}")
    config = base_config or OptimizerConfig()
    return tuple(
        WorkerSpec(
            optimizer=optimizer,
            config=replace(config, seed=config.seed + i),
            label=f"{optimizer}[{i}]",
        )
        for i in range(count)
    )


def parse_portfolio(
    spec: str,
    base_config: OptimizerConfig | None = None,
) -> tuple[WorkerSpec, ...]:
    """Parse ``"tabu:4,local:2,annealing:2"`` into worker specs.

    Each comma-separated entry is ``name`` or ``name:count`` (count
    defaults to 1 when the colon is omitted).  Seeds are assigned
    consecutively across the *whole* portfolio — with base seed s, the
    example yields tabu seeds s..s+3, local s+4..s+5, annealing s+6..s+7
    — so the portfolio is reproducible and no two workers duplicate each
    other's search.

    Degenerate specs are rejected with a :class:`SearchError` naming the
    bad segment: empty segments (``"tabu:4,,local:2"``), empty names or
    counts (``":2"``, ``"tabu:"``), non-numeric or non-positive counts,
    and unknown optimizer names.
    """
    from . import OPTIMIZERS

    config = base_config or OptimizerConfig()
    workers: list[WorkerSpec] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            raise SearchError(
                f"empty segment in portfolio {spec!r}; entries are "
                f"'name' or 'name:count', separated by single commas"
            )
        name, colon, count_text = entry.partition(":")
        name = name.strip()
        count_text = count_text.strip()
        if not name:
            raise SearchError(
                f"missing optimizer name in portfolio segment {entry!r}"
            )
        if name not in OPTIMIZERS:
            raise SearchError(
                f"unknown optimizer {name!r} in portfolio {spec!r}; "
                f"available: {', '.join(sorted(OPTIMIZERS))}"
            )
        if colon and not count_text:
            raise SearchError(
                f"missing worker count after ':' in portfolio segment "
                f"{entry!r}"
            )
        try:
            count = int(count_text) if count_text else 1
        except ValueError:
            raise SearchError(
                f"bad worker count {count_text!r} in portfolio entry "
                f"{entry!r}"
            ) from None
        if count < 1:
            raise SearchError(
                f"worker count must be >= 1 in portfolio entry {entry!r}"
            )
        for k in range(count):
            index = len(workers)
            workers.append(
                WorkerSpec(
                    optimizer=name,
                    config=replace(config, seed=config.seed + index),
                    label=f"{name}[{k}]",
                )
            )
    if not workers:
        raise SearchError(f"portfolio {spec!r} contains no workers")
    return tuple(workers)


def resolve_portfolio(
    portfolio: str | Sequence[WorkerSpec] | None,
    jobs: int,
    default_optimizer: str,
    base_config: OptimizerConfig | None = None,
) -> tuple[WorkerSpec, ...]:
    """Normalize the user-facing ``portfolio=`` argument to worker specs.

    ``None`` means "one seeded restart of the default optimizer per job",
    a string goes through :func:`parse_portfolio`, and an explicit spec
    sequence passes through untouched.
    """
    if portfolio is None:
        return seeded_restarts(default_optimizer, max(jobs, 1), base_config)
    if isinstance(portfolio, str):
        return parse_portfolio(portfolio, base_config)
    return tuple(portfolio)


# -- worker-process side ------------------------------------------------------

#: Per-process state installed by :func:`_worker_init`; module globals are
#: the one channel a ``ProcessPoolExecutor`` initializer can fill.
_WORKER_CONTEXT: WorkerContext | None = None
_WORKER_STOP = None
_WORKER_STARTED = None


def _worker_init(context: WorkerContext, stop_event, started=None) -> None:
    """Pool initializer: receive the shared context and the shared signals.

    The shared early-stop event (picklable only through ``initargs``,
    never through the task queue) is what each :func:`_run_worker` task
    installs as its cooperative stop check.  ``started`` is the pool's
    shared execution ledger (see :func:`_run_worker`): one slot per
    portfolio worker, marked the moment an attempt actually begins
    executing, so the parent can tell a hung worker from one that never
    left the queue.  Under ``fork`` the child starts with a copy
    of the forking thread's run context (tracer with open file handles
    included); every task runs under a scope naming all its fields, so
    none of that is visible to the work.
    """
    global _WORKER_CONTEXT, _WORKER_STOP, _WORKER_STARTED
    _WORKER_CONTEXT = context
    _WORKER_STOP = stop_event
    _WORKER_STARTED = started


def _execute_spec(context: WorkerContext, spec: WorkerSpec) -> SearchResult:
    """Rebuild the objective and run one worker's optimizer."""
    from . import resolve_optimizer_class

    cls = resolve_optimizer_class(spec.optimizer)
    return cls.run_from_config(
        context.build_objective(),
        spec.config,
        initial=context.initial,
        **dict(spec.params),
    )


def _hit_quality_bound(result: SearchResult, bound: float | None) -> bool:
    """True iff a result satisfies the early-stop quality bound."""
    return (
        bound is not None
        and result.solution.feasible
        and result.solution.quality >= bound
    )


def _run_worker(index: int, spec: WorkerSpec, attempt: int = 0) -> dict:
    """Pool task: run one spec against the process-shared context.

    Returns a plain dict (cheap to pickle back): the result plus, when
    the parent traces, the worker's finished spans and metrics snapshot.
    Failures are caught and shipped home as strings so one bad worker
    can never poison the pool protocol.  The first act is to mark
    ``(index, attempt)`` as started in the shared ledger — a future can
    sit RUNNING in the executor's call-queue buffer without any process
    touching it, so this mark (not the future's state) is what tells the
    parent a timed-out worker actually consumed its budget.
    """
    context = _WORKER_CONTEXT
    assert context is not None, "worker used before _worker_init ran"
    if _WORKER_STARTED is not None:
        with _WORKER_STARTED.get_lock():
            if _WORKER_STARTED[index] < attempt + 1:
                _WORKER_STARTED[index] = attempt + 1
    exporter = InMemoryExporter()
    telemetry = (
        Telemetry(exporters=[exporter]) if context.collect_telemetry else NOOP
    )
    stop_check = _WORKER_STOP.is_set if _WORKER_STOP is not None else None
    try:
        with run_scope(
            telemetry=telemetry, events=None, stop_check=stop_check
        ):
            result = _execute_spec(context, spec)
    except Exception as exc:  # noqa: BLE001 - shipped home as the outcome
        return {"index": index, "error": f"{type(exc).__name__}: {exc}"}
    payload: dict = {"index": index, "result": result}
    if context.collect_telemetry:
        payload["spans"] = tuple(exporter.spans)
        payload["metrics"] = telemetry.metrics.snapshot()
    if _WORKER_STOP is not None and _hit_quality_bound(
        result, context.stop_quality
    ):
        _WORKER_STOP.set()
    return payload


# -- deterministic merge ------------------------------------------------------


def _selection_key(result: SearchResult) -> tuple[int, ...]:
    """Canonical, order-independent identity of a result's selection."""
    return tuple(sorted(result.solution.selected))


def _beats(challenger: SearchResult, incumbent: SearchResult) -> bool:
    """Deterministic winner order: quality, then canonical selection key.

    Feasible beats infeasible at equal objective; at a full tie the
    lexicographically smallest selection key wins, and the caller keeps
    the earlier worker on identical keys — so the winner is a pure
    function of the worker list, not of scheduling.
    """
    a = (challenger.solution.objective, challenger.solution.feasible)
    b = (incumbent.solution.objective, incumbent.solution.feasible)
    if a != b:
        return a > b
    return _selection_key(challenger) < _selection_key(incumbent)


def select_winner(outcomes: Sequence[WorkerOutcome]) -> WorkerOutcome | None:
    """The winning outcome under the deterministic merge order."""
    winner: WorkerOutcome | None = None
    for outcome in sorted(outcomes, key=lambda o: o.index):
        if outcome.result is None:
            continue
        if winner is None or _beats(outcome.result, winner.result):
            winner = outcome
    return winner


# -- run bookkeeping ----------------------------------------------------------


class _PortfolioRun:
    """Mutable state of one resilient portfolio solve.

    Owns the final per-worker outcomes, the recovery counters, and the
    checkpoint progress map.  The engine's execution strategies feed it
    through :meth:`succeed` and :meth:`fail`; every finished worker
    updates the atomic best-so-far checkpoint when one is configured.
    """

    def __init__(
        self,
        specs: tuple[WorkerSpec, ...],
        context: WorkerContext,
        telemetry,
        retries: int,
        checkpoint: str | None,
        fingerprint: str | None,
    ):
        self.specs = specs
        self.context = context
        self.telemetry = telemetry
        self.max_retries = retries
        self.checkpoint = checkpoint
        self.fingerprint = fingerprint
        self.final: dict[int, WorkerOutcome] = {}
        self.progress: dict[int, WorkerProgress] = {
            index: WorkerProgress(
                index=index,
                optimizer=spec.optimizer,
                seed=spec.seed,
                label=spec.describe(),
            )
            for index, spec in enumerate(specs)
        }
        self.to_run: list[int] = list(range(len(specs)))
        self.retries = 0
        self.timeouts = 0
        self.requeues = 0
        self.pool_rebuilds = 0
        self.resumed_workers = 0
        self.checkpoints_written = 0

    # -- resume ---------------------------------------------------------------

    def restore(self, checkpoint: Checkpoint) -> None:
        """Adopt every finished worker from a checkpoint, re-running none.

        Completed workers' selections are re-evaluated against a fresh
        objective — evaluation is deterministic, so the restored solution
        is bit-identical to the one the killed run computed — and failed
        or timed-out workers are restored as their recorded outcomes.
        Pending workers stay in :attr:`to_run`.
        """
        objective: Objective | None = None
        for entry in checkpoint.workers:
            if not entry.finished:
                continue
            if entry.index >= len(self.specs):
                raise SearchError(
                    f"checkpoint worker {entry.index} does not exist in "
                    f"this portfolio of {len(self.specs)}"
                )
            spec = self.specs[entry.index]
            if entry.optimizer != spec.optimizer or entry.seed != spec.seed:
                raise SearchError(
                    f"checkpoint worker {entry.index} "
                    f"({entry.optimizer}, seed={entry.seed}) does not match "
                    f"this portfolio's spec "
                    f"({spec.optimizer}, seed={spec.seed}); resume needs "
                    f"the same portfolio the checkpoint was written for"
                )
            if entry.status == "ok":
                if objective is None:
                    objective = self.context.build_objective()
                # The top-level version guard cannot vouch for per-worker
                # payloads: a hand-edited snapshot, or one written by a
                # build with different SearchStats fields, must surface
                # as the SearchError contract, not a raw TypeError.
                try:
                    solution = objective.evaluate(frozenset(entry.selection))
                    result = SearchResult(
                        solution=solution,
                        stats=SearchStats(**entry.stats),
                        trajectory=tuple(entry.trajectory),
                    )
                except (TypeError, KeyError, ValueError, IndexError) as exc:
                    raise SearchError(
                        f"malformed checkpoint {self.checkpoint}: cannot "
                        f"restore worker {entry.index} ({exc})"
                    ) from exc
                fields = {"result": result}
            else:
                fields = {
                    "error": entry.error or entry.status,
                    "timed_out": entry.status == "timed_out",
                }
            self.final[entry.index] = self._outcome(
                entry.index, max(entry.attempts, 1), resumed=True, **fields
            )
            self.progress[entry.index] = entry
            self.to_run.remove(entry.index)
            self.resumed_workers += 1

    # -- outcome intake -------------------------------------------------------

    def succeed(self, index: int, attempt: int, result: SearchResult) -> None:
        """Finish a worker whose ``attempt`` returned a result."""
        self._finish(self._outcome(index, attempt + 1, result=result))

    def fail(
        self, index: int, attempt: int, error: str, timed_out: bool = False
    ) -> bool:
        """Count one failed attempt; True iff the worker gets another.

        The one retry decision every execution path shares: while the
        retry budget lasts the caller re-runs the worker at
        ``attempt + 1``, otherwise the worker finishes as failed (or
        timed out).
        """
        if timed_out:
            self.timeouts += 1
        if attempt < self.max_retries:
            self.retries += 1
            return True
        self._finish(
            self._outcome(
                index, attempt + 1, error=error, timed_out=timed_out
            )
        )
        return False

    def _outcome(self, index: int, attempts: int, **fields) -> WorkerOutcome:
        spec = self.specs[index]
        return WorkerOutcome(
            index=index,
            label=spec.describe(),
            optimizer=spec.optimizer,
            seed=spec.seed,
            attempts=attempts,
            **fields,
        )

    def _finish(self, outcome: WorkerOutcome) -> None:
        """Record a worker's final outcome and checkpoint best-so-far."""
        self.final[outcome.index] = outcome
        self.progress[outcome.index] = self._progress_of(outcome)
        self._write_checkpoint()

    def outcomes(self) -> list[WorkerOutcome]:
        """All final outcomes, in worker order."""
        return [self.final[index] for index in sorted(self.final)]

    # -- checkpointing --------------------------------------------------------

    def _progress_of(self, outcome: WorkerOutcome) -> WorkerProgress:
        spec = self.specs[outcome.index]
        base = dict(
            index=outcome.index,
            optimizer=spec.optimizer,
            seed=spec.seed,
            label=spec.describe(),
            attempts=outcome.attempts,
        )
        if outcome.ok:
            stats = outcome.result.stats
            # Plain-int/float coercion keeps the snapshot JSON-safe even
            # when selections or trajectories carry numpy scalars.
            return WorkerProgress(
                status="ok",
                selection=tuple(
                    int(sid)
                    for sid in sorted(outcome.result.solution.selected)
                ),
                stats={
                    "iterations": int(stats.iterations),
                    "evaluations": int(stats.evaluations),
                    "elapsed_seconds": float(stats.elapsed_seconds),
                    "best_found_at": int(stats.best_found_at),
                    "match_memo_hits": int(stats.match_memo_hits),
                    "match_memo_misses": int(stats.match_memo_misses),
                },
                trajectory=tuple(
                    float(value) for value in outcome.result.trajectory
                ),
                **base,
            )
        return WorkerProgress(
            status="timed_out" if outcome.timed_out else "failed",
            error=outcome.error,
            **base,
        )

    def _write_checkpoint(self) -> None:
        path = self.checkpoint
        if path is None:
            return
        best = select_winner(list(self.final.values()))
        checkpoint = Checkpoint(
            fingerprint=self.fingerprint or "",
            workers=tuple(
                self.progress[index] for index in range(len(self.specs))
            ),
            best_selection=(
                tuple(int(s) for s in sorted(best.result.solution.selected))
                if best is not None
                else None
            ),
            best_objective=(
                float(best.result.solution.objective)
                if best is not None
                else None
            ),
            best_quality=(
                float(best.result.solution.quality)
                if best is not None
                else None
            ),
        )
        write_checkpoint(path, checkpoint)
        self.checkpoints_written += 1


# -- the engine ---------------------------------------------------------------

#: How many times a broken process pool is rebuilt before the remaining
#: workers degrade to in-process execution.
POOL_REBUILDS = 1


def validate_portfolio_args(
    jobs: int = 1, worker_timeout: float | None = None, retries: int = 0
) -> None:
    """Raise :class:`SearchError` on a value the engine cannot run."""
    if jobs < 1:
        raise SearchError(f"jobs must be >= 1, got {jobs}")
    if worker_timeout is not None and worker_timeout <= 0:
        raise SearchError(f"worker_timeout must be > 0, got {worker_timeout}")
    if retries < 0:
        raise SearchError(f"retries must be >= 0, got {retries}")


class ParallelSolveEngine:
    """Runs a portfolio of optimizer workers and merges deterministically.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs every worker in this
        process — no pool, no pickling — and is bit-identical to the
        sequential path, so ``jobs`` is a pure throughput knob.
    stop_quality:
        Optional early-stop bound: the first worker whose solution is
        feasible with ``quality >= stop_quality`` signals the others to
        wind down at their next iteration check.
    start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); ``None`` uses the platform default.
    worker_timeout:
        Per-worker wall-clock budget in seconds.  In pool mode a worker
        whose future exceeds it is cancelled and recorded as
        ``timed_out``; in-process (``jobs=1``) the check is post-hoc —
        a worker that *returns* after overrunning the budget is still
        recorded as timed out (and retried), so both modes agree on
        outcomes, but a truly hung in-process worker cannot be
        preempted.  ``None`` disables the timeout.
    retries:
        Extra attempts for a failed or timed-out worker; each re-runs
        the identical spec.
    checkpoint:
        Path for best-so-far snapshots; also the resume source when the
        file already exists.  ``None`` disables checkpointing.
    """

    def __init__(
        self,
        jobs: int = 1,
        stop_quality: float | None = None,
        start_method: str | None = None,
        worker_timeout: float | None = None,
        retries: int = 0,
        checkpoint: str | None = None,
    ):
        validate_portfolio_args(jobs, worker_timeout, retries)
        self.jobs = jobs
        self.stop_quality = stop_quality
        self.start_method = start_method
        self.worker_timeout = worker_timeout
        self.retries = retries
        self.checkpoint = checkpoint

    def solve(
        self,
        problem: Problem,
        workers: Iterable[WorkerSpec],
        similarity: NameSimilarityMatrix | None = None,
        initial: frozenset[int] | None = None,
        eval_context=None,
    ) -> SearchResult:
        """Run the portfolio and return the winner, annotated with stats.

        The returned result is the winning worker's
        :class:`~repro.search.base.SearchResult` with its ``portfolio``
        field set to the run's :class:`PortfolioStats`.  When the
        engine's ``checkpoint`` names a file that already exists, the
        solve *resumes*: finished workers are restored from the snapshot
        (their best solutions bit-identical, no re-search), and only the
        unfinished work actually runs.  Unless the caller passed an
        explicit ``initial`` (which always wins), the best recorded
        selection warm-starts the remaining workers — so the killed
        run's best-so-far is never lost, but the *pending* workers may
        explore differently than the same solve left uninterrupted
        would have (see docs/resilience.md for the exact contract).
        """
        specs = tuple(workers)
        if not specs:
            raise SearchError("portfolio must contain at least one worker")
        from . import resolve_optimizer_class

        for name in sorted({spec.optimizer for spec in specs}):
            resolve_optimizer_class(name)
        telemetry = get_telemetry()
        fingerprint: str | None = None
        resume: Checkpoint | None = None
        if self.checkpoint is not None:
            fingerprint = problem_fingerprint(problem)
            resume = load_checkpoint(self.checkpoint)
            if resume is not None:
                if resume.fingerprint != fingerprint:
                    raise SearchError(
                        f"checkpoint {self.checkpoint} was "
                        f"written for a different problem (fingerprint "
                        f"{resume.fingerprint} != {fingerprint}); refusing "
                        f"to resume — delete the file to start fresh"
                    )
                if len(resume.workers) != len(specs):
                    raise SearchError(
                        f"checkpoint records {len(resume.workers)} workers "
                        f"but this portfolio has {len(specs)}; resume needs "
                        f"the same portfolio the checkpoint was written for"
                    )
                if resume.best_selection is not None and initial is None:
                    # Warm-start pending workers from the snapshot's
                    # best — but an explicit caller `initial` always
                    # wins over the checkpoint's.
                    initial = frozenset(resume.best_selection)
        context = WorkerContext(
            problem=problem,
            similarity=similarity,
            initial=initial,
            stop_quality=self.stop_quality,
            collect_telemetry=telemetry.enabled,
            eval_context=eval_context,
        )
        run = _PortfolioRun(
            specs, context, telemetry, self.retries, self.checkpoint,
            fingerprint,
        )
        started = time.perf_counter()
        with telemetry.span(
            "portfolio.solve", jobs=self.jobs, workers=len(specs)
        ) as span:
            if resume is not None:
                run.restore(resume)
            early_stopped = False
            if run.to_run:
                if self.jobs == 1:
                    early_stopped = self._solve_inline(run)
                else:
                    early_stopped = self._solve_pool(run)
            elapsed = time.perf_counter() - started
            outcomes = run.outcomes()
            winner = select_winner(outcomes)
            if winner is None:
                reasons = "; ".join(
                    f"worker {o.index} ({o.label}): {o.error}"
                    for o in outcomes
                )
                raise SearchError(
                    f"all {len(outcomes)} portfolio workers failed: "
                    f"{reasons}"
                )
            stats = PortfolioStats(
                jobs=self.jobs,
                workers=tuple(sorted(outcomes, key=lambda o: o.index)),
                winner_index=winner.index,
                elapsed_seconds=elapsed,
                early_stopped=early_stopped,
                retries=run.retries,
                timeouts=run.timeouts,
                requeues=run.requeues,
                pool_rebuilds=run.pool_rebuilds,
                resumed_workers=run.resumed_workers,
            )
            span.set(
                winner=winner.index,
                failed=stats.failed_workers,
                early_stopped=early_stopped,
                best_objective=winner.result.solution.objective,
                retries=run.retries,
                timeouts=run.timeouts,
                resumed=run.resumed_workers,
            )
            metrics = telemetry.metrics
            metrics.counter("portfolio.solves").inc()
            metrics.counter("portfolio.workers").inc(len(specs))
            metrics.counter("portfolio.workers_failed").inc(
                stats.failed_workers
            )
            metrics.counter("portfolio.retries").inc(run.retries)
            metrics.counter("portfolio.timeouts").inc(run.timeouts)
            metrics.counter("portfolio.requeues").inc(run.requeues)
            metrics.counter("portfolio.pool_rebuilds").inc(run.pool_rebuilds)
            metrics.counter("portfolio.resumed_workers").inc(
                run.resumed_workers
            )
            metrics.counter("portfolio.checkpoints").inc(
                run.checkpoints_written
            )
            if early_stopped:
                metrics.counter("portfolio.early_stops").inc()
            for outcome in stats.workers:
                if outcome.ok and not outcome.resumed:
                    metrics.histogram("portfolio.worker_seconds").observe(
                        outcome.result.stats.elapsed_seconds
                    )
        return replace(winner.result, portfolio=stats)

    # -- execution strategies -------------------------------------------------

    def _solve_inline(self, run: _PortfolioRun) -> bool:
        """Run every pending worker in this process, in submission order.

        Identical semantics to the pool path — fresh objective per
        worker, same early-stop bound, same retry/timeout accounting —
        minus the process boundary, so ``jobs=1`` results match
        ``jobs=N`` results exactly.  Telemetry needs no folding: workers
        trace straight into the live tracer.
        """
        stop_flag = threading.Event()
        self._run_inline(run, [(index, 0) for index in run.to_run], stop_flag)
        return stop_flag.is_set()

    def _run_inline(
        self,
        run: _PortfolioRun,
        items: Sequence[tuple[int, int]],
        stop_flag,
    ) -> None:
        """Run ``(worker, first attempt)`` items in-process, in order.

        A worker's retries run before the next worker starts.  The
        wall-clock timeout here is post-hoc: without a process boundary
        a running optimizer cannot be preempted, so an attempt that
        *returns* after overrunning the budget is discarded and recorded
        as timed out — keeping inline outcomes consistent with what the
        pool path would have recorded for the same schedule.  Attempts
        keep the caller's stop check; with an early-stop bound they also
        stop on ``stop_flag``, under a run scope that ends with the
        attempt, raised exceptions included.
        """
        enclosing = current_run().stop_check
        stop_check = enclosing
        if self.stop_quality is not None:
            stop_check = (
                stop_flag.is_set
                if enclosing is None
                else lambda: stop_flag.is_set() or enclosing()
            )
        timeout = self.worker_timeout
        for index, attempt in items:
            while True:
                live = respec_for_attempt(run.specs[index], attempt)
                timed_out = False
                started = time.perf_counter()
                try:
                    with run_scope(stop_check=stop_check):
                        result = _execute_spec(run.context, live)
                except SystemExit as exc:
                    error = f"SystemExit: {exc.code}"
                except Exception as exc:  # noqa: BLE001 - per-worker outcome
                    error = f"{type(exc).__name__}: {exc}"
                else:
                    elapsed = time.perf_counter() - started
                    if timeout is None or elapsed <= timeout:
                        if _hit_quality_bound(result, self.stop_quality):
                            stop_flag.set()
                        run.succeed(index, attempt, result)
                        break
                    error = (
                        f"timed out: ran {elapsed:.2f}s against a "
                        f"{timeout}s budget"
                    )
                    timed_out = True
                if not run.fail(index, attempt, error, timed_out):
                    break
                attempt += 1

    def _solve_pool(self, run: _PortfolioRun) -> bool:
        """Fan the workers out across a process pool and gather outcomes.

        Collection is round-based: each round submits every queued
        ``(worker, attempt)``, then collects in submission order with a
        per-worker wall-clock timeout.  Failed and timed-out workers are
        requeued for the next round while their retry budget lasts; a
        worker whose future times out *before it ever started running*
        (pure queue wait) is requeued at the same attempt with no budget
        charged.  A pool left holding a timed-out task that was already
        executing is abandoned — replaced with a fresh pool for later
        rounds and shut down without joining, so a genuinely hung worker
        can delay the solve by at most one timeout, never block it.  A
        :class:`BrokenProcessPool` rebuilds the pool (up to
        :data:`POOL_REBUILDS` times, requeueing everything uncollected);
        if the rebuilt pool breaks too, the remaining workers degrade to
        the in-process path, so a solve survives even a machine that
        cannot keep a process pool alive.
        """
        mp_context = multiprocessing.get_context(self.start_method)
        stop_event = (
            mp_context.Event() if self.stop_quality is not None else None
        )
        launch_offset = run.telemetry.now()
        pending: deque[tuple[int, int]] = deque(
            (index, 0) for index in run.to_run
        )
        rebuilds_left = POOL_REBUILDS
        leftovers: list[tuple[int, int]] = []
        # True while the *live* pool still hosts a timed-out task that
        # was already executing when its future missed the deadline
        # (future.cancel() cannot stop a running task).  Such a pool is
        # never joined — shutdown(wait=True) would block on the hung
        # task, possibly forever — and never reused: its slot is held
        # hostage, which would starve every later round.
        pool_hung = False
        pool, started = self._new_pool(mp_context, run, stop_event)
        try:
            while pending:
                batch = list(pending)
                pending.clear()
                try:
                    futures = [
                        pool.submit(
                            _run_worker,
                            index,
                            respec_for_attempt(run.specs[index], attempt),
                            attempt,
                        )
                        for index, attempt in batch
                    ]
                except (BrokenProcessPool, RuntimeError):
                    # The pool died before this round even launched:
                    # nothing submitted this round can be trusted.
                    broken_at = 0
                else:
                    broken_at, abandoned = self._collect_round(
                        run, batch, futures, pending, launch_offset, started
                    )
                    pool_hung = pool_hung or abandoned
                if broken_at is not None:
                    uncollected = batch[broken_at:]
                    run.requeues += len(uncollected)
                    pool.shutdown(wait=False, cancel_futures=True)
                    if rebuilds_left == 0:
                        leftovers = uncollected + list(pending)
                        pool = None
                        break
                    rebuilds_left -= 1
                    run.pool_rebuilds += 1
                    pending = deque(uncollected) + pending
                    pool, started = self._new_pool(mp_context, run, stop_event)
                    pool_hung = False
                elif pool_hung and pending:
                    # Rotate away from the hostage pool so retries and
                    # requeued bystanders run on fresh processes.  This
                    # is a deliberate replacement, not breakage, so it
                    # does not spend the BrokenProcessPool rebuild
                    # budget — but it is still counted, because an
                    # operator should see every pool the engine paid to
                    # re-create.
                    pool.shutdown(wait=False, cancel_futures=True)
                    run.pool_rebuilds += 1
                    pool, started = self._new_pool(mp_context, run, stop_event)
                    pool_hung = False
        finally:
            if pool is not None:
                pool.shutdown(wait=not pool_hung, cancel_futures=True)
        if leftovers:
            # Degrade gracefully: the pool broke more times than the
            # rebuild budget allows, so its leftovers run in-process.
            # The shared early-stop event keeps working as each
            # attempt's stop check.
            self._run_inline(
                run,
                leftovers,
                stop_event if stop_event is not None else threading.Event(),
            )
        return stop_event.is_set() if stop_event is not None else False

    def _collect_round(
        self,
        run: _PortfolioRun,
        batch: list[tuple[int, int]],
        futures: list,
        pending: deque,
        launch_offset: float,
        started=None,
    ) -> tuple[int | None, bool]:
        """Collect one round of futures in submission order.

        Returns ``(broken_at, abandoned)``: ``broken_at`` is None when
        the whole round was collected, or the batch slot at which a
        :class:`BrokenProcessPool` surfaced (everything from that slot
        on is uncollected and must be requeued); ``abandoned`` is True
        when a timed-out task still occupies the pool — running in one
        of its processes, or parked in its call-queue buffer where a
        cancel can no longer reach it — so the caller must neither join
        nor reuse that pool.
        """
        abandoned = False
        for slot, future in enumerate(futures):
            index, attempt = batch[slot]
            timed_out = False
            try:
                payload = self._await(future, self.worker_timeout, started)
            except FuturesTimeout:
                cancelled = future.cancel()
                if started is not None and started[index] <= attempt:
                    # The attempt never began executing — the clock
                    # measured queue wait (e.g. behind a hung slot), not
                    # this worker's work.  (The shared ledger is the
                    # authority here: the future itself reads RUNNING as
                    # soon as it enters the executor's call-queue
                    # buffer, long before any process touches it.)
                    # Innocent bystanders don't burn retry budget:
                    # requeue at the same attempt, mirroring the
                    # broken-pool policy.  If the cancel failed the task
                    # is still buffered in this pool's call queue and
                    # would eventually run there too — mark the pool
                    # abandoned so the round rotates away from it.
                    run.requeues += 1
                    pending.append((index, attempt))
                    abandoned = abandoned or not cancelled
                    continue
                abandoned = True
                timed_out = True
                error = f"timed out after {self.worker_timeout}s"
            except BrokenProcessPool:
                return slot, abandoned
            except Exception as exc:  # noqa: BLE001 - e.g. pickling errors
                error = f"{type(exc).__name__}: {exc}"
            else:
                error = payload.get("error")
                if error is None:
                    run.telemetry.absorb(
                        payload.get("spans", ()),
                        payload.get("metrics"),
                        offset=launch_offset,
                    )
                    run.succeed(index, attempt, payload["result"])
                    continue
            if run.fail(index, attempt, error, timed_out):
                pending.append((index, attempt + 1))
        return None, abandoned

    @staticmethod
    def _await(future, timeout: float | None, started):
        """``future.result(timeout)``, not counting pool start-up.

        While this pool's ledger is all zero no attempt has begun in it,
        so a missed deadline is the pool still starting its processes
        (slow under ``spawn``), not a hostage slot: keep waiting on the
        same future.  Timing out there would requeue the attempt, rotate
        to a fresh pool that starts up just as slowly, and repeat
        forever.
        """
        while True:
            try:
                return future.result(timeout=timeout)
            except FuturesTimeout:
                if started is None or any(started[:]):
                    raise

    def _new_pool(
        self, mp_context, run: _PortfolioRun, stop_event
    ) -> tuple[ProcessPoolExecutor, "object | None"]:
        """A fresh worker pool plus its shared execution ledger.

        The ledger (one int per portfolio worker, ``attempt + 1`` of the
        highest attempt that actually began executing) is created with
        the pool and shipped through ``initargs``, so it is scoped to
        exactly this pool's processes — a rotated-away pool keeps
        writing to its own ledger, never the replacement's.  Only built
        when a worker timeout is configured; nothing else reads it.
        The context, by contrast, is created once per solve and shared
        across pool generations: it is immutable.
        """
        started = (
            mp_context.Array("i", len(run.specs))
            if self.worker_timeout is not None
            else None
        )
        pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=mp_context,
            initializer=_worker_init,
            initargs=(run.context, stop_event, started),
        )
        return pool, started

    def __repr__(self) -> str:
        return (
            f"ParallelSolveEngine(jobs={self.jobs}, "
            f"stop_quality={self.stop_quality})"
        )


def render_portfolio(stats: PortfolioStats) -> str:
    """A small human-readable table over a portfolio's workers."""
    header = (
        f"portfolio: {len(stats.workers)} workers, jobs={stats.jobs}, "
        f"{stats.elapsed_seconds:.2f}s"
    )
    if stats.early_stopped:
        header += ", early stop"
    recovery = []
    if stats.retries:
        recovery.append(f"retries={stats.retries}")
    if stats.timeouts:
        recovery.append(f"timeouts={stats.timeouts}")
    if stats.pool_rebuilds:
        recovery.append(f"pool rebuilds={stats.pool_rebuilds}")
    if stats.resumed_workers:
        recovery.append(f"resumed={stats.resumed_workers}")
    if recovery:
        header += " (" + ", ".join(recovery) + ")"
    lines = [header]
    for outcome in stats.workers:
        marker = "*" if outcome.index == stats.winner_index else " "
        suffix = ""
        if outcome.attempts > 1:
            suffix += f" [{outcome.attempts} attempts]"
        if outcome.resumed:
            suffix += " [resumed]"
        if outcome.ok:
            solution = outcome.result.solution
            lines.append(
                f" {marker} [{outcome.index}] {outcome.label:<16} "
                f"Q={solution.quality:.4f} "
                f"iters={outcome.result.stats.iterations} "
                f"{outcome.result.stats.elapsed_seconds:.2f}s" + suffix
            )
        else:
            status = "TIMED OUT" if outcome.timed_out else "FAILED"
            lines.append(
                f" {marker} [{outcome.index}] {outcome.label:<16} "
                f"{status}: {outcome.error}" + suffix
            )
    return "\n".join(lines)


__all__ = [
    "ParallelSolveEngine",
    "PortfolioStats",
    "WorkerContext",
    "WorkerOutcome",
    "WorkerSpec",
    "parse_portfolio",
    "render_portfolio",
    "resolve_portfolio",
    "seeded_restarts",
    "select_winner",
]
