"""The iterative user-feedback session (paper §6).

µBE is used as a loop: solve, inspect, adjust, solve again.  The key design
point the paper stresses is that *input constraints have the same structure
as the output schema*, so feedback means editing the previous answer:

* pin a source that must stay (:meth:`Session.require_source`);
* pin a matching the evidence alone cannot justify
  (:meth:`Session.require_match` — the "Matching By Example" bridging
  constraint);
* adopt a GA µBE discovered so later iterations must preserve it
  (:meth:`Session.accept_ga`);
* shift the quality trade-off (:meth:`Session.set_weights`,
  :meth:`Session.emphasize`);
* tighten or loosen θ, β and the source budget.

Every :meth:`Session.solve` snapshot is kept in :attr:`Session.history`.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import wraps

from ..core import (
    AttributeRef,
    CharacteristicSpec,
    GlobalAttribute,
    Problem,
    Solution,
    Source,
    Universe,
    default_weights,
    normalize_weights,
)
from ..exceptions import ConstraintError, ReproError, WeightError
from ..quality.overall import Objective
from ..run_context import run_scope
from ..search import OptimizerConfig, SearchResult, get_optimizer
from ..search.parallel import (
    ParallelSolveEngine,
    resolve_portfolio,
    validate_portfolio_args,
)
from ..similarity.matrix import NameSimilarityMatrix
from ..similarity.measures import SimilarityMeasure, default_measure
from ..telemetry import NoopTelemetry, Telemetry, get_telemetry
from .delta import STOCK_QEFS, DeltaPlan, EditJournal, plan_delta


@dataclass(frozen=True, slots=True)
class Iteration:
    """One solve step: the problem as posed and the result found.

    ``explanation`` is populated when the iteration was solved with
    ``Session.solve(explain=True)``; :meth:`Session.explain` computes
    the same account on demand for any recorded iteration.
    """

    index: int
    problem: Problem
    result: SearchResult
    explanation: object | None = None

    @property
    def solution(self) -> Solution:
        """The best solution of this iteration."""
        return self.result.solution


def _locked(method):
    """Serialize a public mutate/solve method on the session's lock.

    Sessions are used from one thread in the classic interactive loop,
    where the reentrant lock is uncontended and costs one acquire per
    call.  A resident service (``repro.serve``) shares *distinct*
    sessions across request threads; the lock makes each session's
    edit-journal / compiled-state transitions atomic so an edit arriving
    mid-solve cannot be half-absorbed by the running delta plan.  Every
    guarded call also refreshes :attr:`Session.touched_at`, the
    monotonic timestamp TTL eviction reads.
    """

    @wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            self.touched_at = time.monotonic()
            return method(self, *args, **kwargs)

    return wrapper


class Session:
    """An interactive µBE session over a fixed universe.

    Parameters
    ----------
    universe:
        The candidate sources.
    max_sources:
        Initial source budget ``m``.
    weights:
        Initial QEF weights; defaults to the paper's §7.1 values adapted to
        the declared characteristic QEFs.
    theta, beta:
        Matching threshold and minimum GA size.
    characteristic_qefs:
        Source-characteristic QEFs available from the start.
    similarity:
        Attribute similarity measure (default: 3-gram Jaccard).  The
        name-pair matrix is built once and shared across iterations.
    optimizer:
        Registry name of the optimizer to use (default ``"tabu"``).
    optimizer_config:
        Budgets and seed for the optimizer.
    telemetry:
        A :class:`~repro.telemetry.Telemetry` to install for the duration
        of every :meth:`solve` (and the similarity-matrix build).  When
        omitted, whatever tracer the caller's run context holds is used
        — the no-op by default.
    record_runs:
        Append a durable run record to the run registry after every
        :meth:`solve` (the default).  The registry location comes from
        ``run_registry`` or, when omitted, from
        :func:`~repro.telemetry.observatory.registry.default_registry`
        (``.mube/runs.jsonl``, overridable via ``MUBE_RUNS_PATH``; an
        empty ``MUBE_RUNS_PATH`` disables recording too).  Registry
        write failures are swallowed — recording can never break a
        solve.
    run_registry:
        An explicit :class:`~repro.telemetry.observatory.RunRegistry`
        (or anything with a compatible ``record``) to write run records
        to, overriding the default location.
    delta:
        Run each solve through the delta pipeline (the default): an edit
        journal plus an invalidation planner (:mod:`repro.session.delta`)
        decide which compiled layers — similarity matrix, match-operator
        memo, :class:`~repro.quality.compiled.EvalContext`, objective
        memo — survive the edits made since the previous solve, and only
        the invalidated ones are rebuilt.  Every delta path is
        bit-identical to a cold rebuild (property-tested).  ``False``
        rebuilds everything each solve — the cold reference.
    similarity_matrix:
        A pre-built :class:`~repro.similarity.NameSimilarityMatrix` to
        adopt instead of building one over the universe's attribute
        names.  This is how a resident service shares one read-only
        matrix across many sessions over the same universe; the session
        still extends it (copy-on-write — ``extended`` returns a new
        matrix) when later edits add names.  The matrix must have been
        built with a measure equivalent to ``similarity`` or the solves
        will silently score pairs differently from a cold session.
    eval_context:
        A pre-compiled :class:`~repro.quality.compiled.EvalContext` for
        this universe and exactly these ``characteristic_qefs``, adopted
        for the first cold objective build instead of recompiling.  It
        is only used while the session's universe is still the *same
        object* it was constructed with and the characteristic-QEF
        tuple is unchanged — any drift (``add_source`` before the first
        solve, a new QEF) falls back to a cold compile, so a stale
        context can never leak into a solve.
    """

    def __init__(
        self,
        universe: Universe,
        max_sources: int = 10,
        weights: Mapping[str, float] | None = None,
        theta: float = 0.65,
        beta: int = 2,
        characteristic_qefs: Sequence[CharacteristicSpec] = (),
        similarity: SimilarityMeasure | None = None,
        optimizer: str = "tabu",
        optimizer_config: OptimizerConfig | None = None,
        telemetry: Telemetry | NoopTelemetry | None = None,
        record_runs: bool = True,
        run_registry=None,
        delta: bool = True,
        similarity_matrix: NameSimilarityMatrix | None = None,
        eval_context=None,
    ):
        self.universe = universe
        self.max_sources = max_sources
        self.theta = theta
        self.beta = beta
        self.characteristic_qefs: list[CharacteristicSpec] = list(
            characteristic_qefs
        )
        self.weights: dict[str, float] = dict(
            weights
            if weights is not None
            else default_weights(self.characteristic_qefs)
        )
        self.source_constraints: set[int] = set()
        self.ga_constraints: list[GlobalAttribute] = []
        self.optimizer_name = optimizer
        self.optimizer_config = optimizer_config or OptimizerConfig()
        self.telemetry = telemetry
        if run_registry is not None:
            self.run_registry = run_registry
        elif record_runs:
            from ..telemetry.observatory.registry import default_registry

            self.run_registry = default_registry()
        else:
            self.run_registry = None
        self.history: list[Iteration] = []
        self.delta = delta
        # Reentrant so a guarded method may call another guarded method;
        # see _locked.  ``touched_at`` is the TTL bookkeeping a resident
        # service evicts on.
        self._lock = threading.RLock()
        self.touched_at = time.monotonic()
        self._registry_warned = False
        self._measure = similarity or default_measure()
        if similarity_matrix is not None:
            self._matrix = similarity_matrix
        else:
            with run_scope(telemetry=self._telemetry()):
                self._matrix = NameSimilarityMatrix.build(
                    universe.attribute_names(), self._measure
                )
        self._shared_context = eval_context
        self._shared_context_universe = universe if eval_context is not None else None
        self._shared_context_specs = tuple(self.characteristic_qefs)
        self._journal = EditJournal()
        self._last_problem: Problem | None = None
        self._last_plan: DeltaPlan | None = None
        self._objective: Objective | None = None
        self._operator = None

    # -- solving -------------------------------------------------------------

    def problem(self) -> Problem:
        """The optimization problem the next :meth:`solve` will pose."""
        return Problem(
            universe=self.universe,
            weights=dict(self.weights),
            source_constraints=frozenset(self.source_constraints),
            ga_constraints=tuple(self.ga_constraints),
            max_sources=self.max_sources,
            theta=self.theta,
            beta=self.beta,
            characteristic_qefs=tuple(self.characteristic_qefs),
        )

    @_locked
    def solve(
        self,
        optimizer: str | None = None,
        warm_start: bool = True,
        explain: bool = False,
        jobs: int | None = None,
        portfolio: object = None,
        stop_quality: float | None = None,
        checkpoint: str | None = None,
        worker_timeout: float | None = None,
        retries: int = 0,
    ) -> Iteration:
        """Solve the current problem and record the iteration.

        With ``warm_start`` (the default), the search starts from the
        previous iteration's selection when one exists — consecutive
        problems in a feedback loop usually differ by one constraint or a
        reweighting, so the previous answer is close to the new optimum
        and convergence is much faster.  The warm start is repaired to the
        new constraints automatically.

        With ``explain``, the solve runs under a live decision-event log
        and the returned iteration carries a
        :class:`~repro.explain.SolutionExplanation` (GA provenance,
        leave-one-out source deltas, QEF decomposition) in
        ``iteration.explanation``.  The events only observe — the
        solution is bit-identical either way.

        ``jobs``, ``portfolio`` and ``stop_quality`` switch the solve to
        the parallel portfolio engine
        (:class:`~repro.search.parallel.ParallelSolveEngine`).  ``jobs``
        is the process count (``1`` runs the portfolio in-process,
        bit-identical to running each worker sequentially);
        ``portfolio`` is a spec string like ``"tabu:4,local:2"``, a
        sequence of :class:`~repro.search.parallel.WorkerSpec`, or None
        for ``jobs`` seeded restarts of the session optimizer;
        ``stop_quality`` cancels remaining workers once any worker finds
        a feasible solution at or above the bound.  The winning
        iteration's ``result.portfolio`` then carries the
        :class:`~repro.search.parallel.PortfolioStats`.  With ``jobs>1``
        workers run in separate processes, so ``explain`` falls back to
        post-hoc attribution without in-search decision events.

        ``checkpoint``, ``worker_timeout`` and ``retries`` configure the
        engine's resilience layer (docs/resilience.md): ``checkpoint``
        names an atomic best-so-far snapshot file — if it already exists
        (and matches this problem), the solve *resumes* from it instead
        of restarting; ``worker_timeout`` is the per-worker wall-clock
        budget in seconds; ``retries`` re-runs failed or timed-out
        workers deterministically up to that many extra attempts.  Any
        of the three switches the solve onto the portfolio engine.
        ``jobs < 1``, ``retries < 0`` and ``worker_timeout <= 0`` raise
        :class:`~repro.exceptions.SearchError` on every path.

        Each solve first runs the delta pipeline (unless the session was
        built with ``delta=False``): the edits journaled since the last
        solve are classified by :func:`repro.session.delta.plan_delta`
        and only the invalidated compiled layers are rebuilt — see
        docs/incremental.md and the ``session.delta.*`` counters.

        Every solve also appends a durable record to the session's run
        registry (see the ``record_runs`` constructor parameter) —
        inspect it with ``mube runs`` / ``mube runs show``.
        """
        from ..explain.attribution import change_notes, explain_solution
        from ..explain.events import EventLog, NOOP_EVENTS

        validate_portfolio_args(
            1 if jobs is None else jobs, worker_timeout, retries
        )
        use_portfolio = (
            jobs is not None
            or portfolio is not None
            or stop_quality is not None
            or checkpoint is not None
            or worker_timeout is not None
            or retries > 0
        )
        telemetry = self._telemetry()
        # The event log rides the tracer's exporters, so `--trace` files
        # carry decision events as a second record type.
        event_log = (
            EventLog(exporters=tuple(telemetry.exporters))
            if explain
            else NOOP_EVENTS
        )
        with run_scope(telemetry=telemetry, events=event_log), telemetry.span(
            "session.solve",
            iteration=len(self.history),
            constraints=len(self.source_constraints),
            ga_constraints=len(self.ga_constraints),
        ) as span:
            problem = self.problem()
            objective = self._prepare_objective(problem)
            initial = None
            if warm_start and self.history:
                initial = self.history[-1].solution.selected
            if use_portfolio:
                result = self._solve_portfolio(
                    problem,
                    objective,
                    optimizer=optimizer,
                    initial=initial,
                    jobs=jobs,
                    portfolio=portfolio,
                    stop_quality=stop_quality,
                    checkpoint=checkpoint,
                    worker_timeout=worker_timeout,
                    retries=retries,
                )
            else:
                engine = get_optimizer(
                    optimizer or self.optimizer_name, self.optimizer_config
                )
                result = engine.optimize(objective, initial=initial)
            span.set(quality=result.solution.quality)
            self._record_run(
                result,
                problem,
                optimizer=optimizer or self.optimizer_name,
                jobs=(jobs or 1) if use_portfolio else 1,
                checkpoint=checkpoint,
                telemetry=telemetry,
            )
        explanation = None
        if explain:
            explanation = explain_solution(
                problem,
                result.solution,
                objective=objective,
                search_events=tuple(
                    event_log.events(prefix="search.")
                ),
            )
            if self.history:
                from .diff import diff_solutions

                diff = diff_solutions(
                    self.history[-1].solution, result.solution
                )
                explanation = replace(
                    explanation,
                    notes=change_notes(diff, explanation, self.universe),
                )
        iteration = Iteration(
            len(self.history), problem, result, explanation=explanation
        )
        self.history.append(iteration)
        return iteration

    @_locked
    def explain(self, index: int = -1):
        """The provenance account of a recorded iteration.

        Returns a :class:`~repro.explain.SolutionExplanation`: for every
        GA the merge chain and justifying pair that built it, for every
        selected source its leave-one-out quality delta, and the per-QEF
        decomposition of the overall quality.  When the iteration has a
        predecessor, the explanation's ``notes`` link the solution diff
        to the decisions that caused it.  Reuses the iteration's cached
        explanation when the solve ran with ``explain=True``.
        """
        if not self.history:
            raise ReproError("no iterations to explain; call solve() first")
        iteration = self.history[index]
        if iteration.explanation is not None:
            return iteration.explanation

        from ..explain.attribution import change_notes, explain_solution

        with run_scope(telemetry=self._telemetry()):
            explanation = explain_solution(
                iteration.problem,
                iteration.solution,
                similarity=self._matrix,
            )
            position = (
                index if index >= 0 else len(self.history) + index
            )
            if position > 0:
                from .diff import diff_solutions

                diff = diff_solutions(
                    self.history[position - 1].solution,
                    iteration.solution,
                )
                explanation = replace(
                    explanation,
                    notes=change_notes(diff, explanation, self.universe),
                )
        return explanation

    @property
    def last_solution(self) -> Solution | None:
        """The most recent solution, if any iteration has run."""
        if not self.history:
            return None
        return self.history[-1].solution

    def diff_last(self):
        """Diff the last two iterations, or None with fewer than two.

        Returns a :class:`repro.session.diff.SolutionDiff`; render it for
        the user with :func:`repro.session.diff.render_diff`.
        """
        if len(self.history) < 2:
            return None
        from .diff import diff_solutions

        return diff_solutions(
            self.history[-2].solution, self.history[-1].solution
        )

    # -- source feedback -----------------------------------------------------

    @_locked
    def require_source(self, source: int | str) -> int:
        """Pin a source (by id or name) into every future solution."""
        source_id = self._resolve_source(source)
        self.source_constraints.add(source_id)
        self._journal.record("source_constraints", f"require {source_id}")
        return source_id

    @_locked
    def release_source(self, source: int | str) -> None:
        """Remove a previously pinned source constraint."""
        source_id = self._resolve_source(source)
        self.source_constraints.discard(source_id)
        self._journal.record("source_constraints", f"release {source_id}")

    # -- universe feedback ---------------------------------------------------

    @_locked
    def add_source(self, source: Source) -> int:
        """Add a newly discovered source to the universe.

        The similarity vocabulary is extended (new rows only, existing
        name ids stay valid), sketch rows of existing sources are spliced
        into the recompiled evaluation context, and the match memo
        survives wholesale — it is keyed by selection and a clustering
        never reads sources outside it.  The ``Q(S)`` memo is dropped:
        its coverage values divide by universe-wide totals.  See
        docs/incremental.md.
        """
        if source.source_id in self.universe.source_ids:
            raise ConstraintError(
                f"source id {source.source_id} is already in the universe"
            )
        self.universe = Universe((*self.universe, source))
        self._journal.record("add_source", str(source.source_id))
        return source.source_id

    @_locked
    def remove_source(self, source: int | str) -> int:
        """Remove a source (by id or name) from the universe.

        A pinned source or one referenced by a GA constraint must be
        released first.  When the shrunken universe no longer supports
        the current budget, ``max_sources`` is clamped down (journaled as
        its own edit).
        """
        source_id = self._resolve_source(source)
        if source_id in self.source_constraints:
            raise ConstraintError(
                f"source {source_id} is pinned; release_source() it first"
            )
        for ga in self.ga_constraints:
            if any(attr.source_id == source_id for attr in ga):
                raise ConstraintError(
                    f"source {source_id} appears in GA constraint {ga!r}; "
                    "drop_ga_constraint() it first"
                )
        remaining = [s for s in self.universe if s.source_id != source_id]
        if not remaining:
            raise ConstraintError("cannot remove the last source")
        self.universe = Universe(remaining)
        self._journal.record("remove_source", str(source_id))
        if self.max_sources > len(self.universe):
            self.max_sources = len(self.universe)
            self._journal.record(
                "max_sources", f"clamped to {self.max_sources}"
            )
        return source_id

    # -- GA feedback ---------------------------------------------------------

    @_locked
    def require_match(
        self,
        attributes: Iterable[AttributeRef | tuple[int | str, str | int]],
    ) -> GlobalAttribute:
        """Pin a matching: the given attributes must share one GA.

        Attributes may be :class:`AttributeRef` values or
        ``(source, attribute)`` pairs where the source is an id or a name
        and the attribute a name or an index — the ergonomic form for
        interactive use::

            session.require_match([(3, "author"), (17, "written by")])
        """
        refs = [self._resolve_attribute(a) for a in attributes]
        ga = GlobalAttribute(refs)
        self.ga_constraints.append(ga)
        self._journal.record("ga_constraints", "require_match")
        return ga

    @_locked
    def accept_ga(self, ga: GlobalAttribute) -> GlobalAttribute:
        """Adopt a GA from a previous output as a constraint.

        This is the paper's core interaction: the output format *is* the
        constraint format, so accepting an answer pins it for the next
        round.
        """
        for attr in ga:
            self._resolve_attribute(attr)
        self.ga_constraints.append(ga)
        self._journal.record("ga_constraints", "accept")
        return ga

    @_locked
    def drop_ga_constraint(self, ga: GlobalAttribute) -> None:
        """Remove one GA constraint.

        Raises
        ------
        ConstraintError
            If the constraint is not currently set.
        """
        try:
            self.ga_constraints.remove(ga)
        except ValueError:
            raise ConstraintError(f"{ga!r} is not a current constraint") from None
        self._journal.record("ga_constraints", "drop")

    @_locked
    def clear_constraints(self) -> None:
        """Drop all source and GA constraints."""
        if self.source_constraints:
            self._journal.record("source_constraints", "clear")
        if self.ga_constraints:
            self._journal.record("ga_constraints", "clear")
        self.source_constraints.clear()
        self.ga_constraints.clear()

    # -- weight feedback -----------------------------------------------------

    @_locked
    def set_weights(self, weights: Mapping[str, float]) -> None:
        """Replace the full weight assignment (must sum to 1).

        Raises
        ------
        WeightError
            If the weights do not sum to 1, or name a QEF the session
            does not know (same validation as :meth:`emphasize`).
        """
        unknown = set(weights) - self._known_qefs()
        if unknown:
            raise WeightError(f"unknown QEF name(s) {sorted(unknown)}")
        self.weights = normalize_weights(weights)
        self._journal.record("weights", "set_weights")

    @_locked
    def emphasize(self, qef_name: str, weight: float) -> None:
        """Give one QEF the stated weight; split the rest equally.

        This is the paper's Figure-8 protocol ("vary the weight on the
        Card QEF … with the remaining weights all set to equal values").
        """
        if not 0.0 <= weight <= 1.0:
            raise WeightError(f"weight must be in [0, 1], got {weight}")
        others = [name for name in self.weights if name != qef_name]
        if qef_name not in self.weights and qef_name not in self._known_qefs():
            raise WeightError(f"unknown QEF {qef_name!r}")
        share = (1.0 - weight) / len(others) if others else 0.0
        new_weights = {name: share for name in others}
        new_weights[qef_name] = weight
        self.weights = normalize_weights(new_weights)
        self._journal.record("weights", f"emphasize {qef_name}")

    # -- QEF feedback ----------------------------------------------------------

    @_locked
    def add_characteristic_qef(
        self, spec: CharacteristicSpec, weight: float
    ) -> None:
        """Register a new characteristic QEF and give it a weight.

        The other weights are scaled down proportionally to make room.
        """
        if spec.name in self._known_qefs():
            raise WeightError(f"QEF name {spec.name!r} already in use")
        if not 0.0 < weight < 1.0:
            raise WeightError(f"weight must be in (0, 1), got {weight}")
        self.universe.characteristic_range(spec.characteristic)
        self.characteristic_qefs.append(spec)
        scale = 1.0 - weight
        new_weights = {
            name: value * scale for name, value in self.weights.items()
        }
        new_weights[spec.name] = weight
        self.weights = normalize_weights(new_weights)
        self._journal.record("add_qef", spec.name)

    @_locked
    def remove_characteristic_qef(self, name: str) -> CharacteristicSpec:
        """Unregister a characteristic QEF (the inverse of adding one).

        The removed QEF's weight is redistributed over the remaining
        QEFs proportionally to their current weights — the exact inverse
        of the scale-down :meth:`add_characteristic_qef` applied.  Stock
        QEFs (matching, cardinality, coverage, redundancy) cannot be
        removed, only reweighted.

        Raises
        ------
        WeightError
            If the name is a stock QEF, not a registered characteristic
            QEF, or the remaining QEFs carry no weight to renormalize.
        """
        if name in STOCK_QEFS:
            raise WeightError(
                f"{name!r} is a stock QEF; reweight it instead of removing"
            )
        spec = next(
            (s for s in self.characteristic_qefs if s.name == name), None
        )
        if spec is None:
            raise WeightError(f"no characteristic QEF named {name!r}")
        remaining = {
            qef: value for qef, value in self.weights.items() if qef != name
        }
        total = sum(remaining.values())
        if total <= 0.0:
            raise WeightError(
                f"cannot remove {name!r}: the remaining QEFs carry no "
                "weight to renormalize"
            )
        self.characteristic_qefs.remove(spec)
        self.weights = normalize_weights(
            {qef: value / total for qef, value in remaining.items()}
        )
        self._journal.record("remove_qef", name)
        return spec

    # -- parameter feedback ----------------------------------------------------

    @_locked
    def set_theta(self, theta: float) -> None:
        """Change the matching threshold θ."""
        if not 0.0 <= theta <= 1.0:
            raise ConstraintError(f"theta must be in [0, 1], got {theta}")
        self.theta = theta
        self._journal.record("theta", str(theta))

    @_locked
    def set_beta(self, beta: int) -> None:
        """Change the minimum GA size β."""
        if beta < 1:
            raise ConstraintError(f"beta must be >= 1, got {beta}")
        self.beta = beta
        self._journal.record("beta", str(beta))

    @_locked
    def set_max_sources(self, max_sources: int) -> None:
        """Change the source budget m."""
        if not 1 <= max_sources <= len(self.universe):
            raise ConstraintError(
                f"max_sources must be in [1, {len(self.universe)}], "
                f"got {max_sources}"
            )
        self.max_sources = max_sources
        self._journal.record("max_sources", str(max_sources))

    # -- internals ---------------------------------------------------------

    def _telemetry(self) -> Telemetry | NoopTelemetry:
        """The session's own tracer, or the run context's current one."""
        return self.telemetry if self.telemetry is not None else get_telemetry()

    def _solve_portfolio(
        self,
        problem: Problem,
        objective: Objective,
        *,
        optimizer: str | None,
        initial: frozenset[int] | None,
        jobs: int | None,
        portfolio: object,
        stop_quality: float | None,
        checkpoint: str | None = None,
        worker_timeout: float | None = None,
        retries: int = 0,
    ) -> SearchResult:
        """Run one solve through the parallel portfolio engine.

        The pre-built (possibly delta-patched) evaluation context ships
        to the workers with the problem, so each worker's objective skips
        its own cold compile.
        """
        jobs = 1 if jobs is None else jobs
        workers = resolve_portfolio(
            portfolio,
            jobs,
            optimizer or self.optimizer_name,
            self.optimizer_config,
        )
        engine = ParallelSolveEngine(
            jobs=jobs,
            stop_quality=stop_quality,
            worker_timeout=worker_timeout,
            retries=retries,
            checkpoint=checkpoint,
        )
        return engine.solve(
            problem,
            workers,
            similarity=self._matrix,
            initial=initial,
            eval_context=objective.context,
        )

    def _record_run(
        self,
        result: SearchResult,
        problem: Problem,
        *,
        optimizer: str,
        jobs: int,
        checkpoint: str | None,
        telemetry,
    ):
        """Append this solve to the run registry (best-effort).

        Registry I/O failures never break a solve: the registry is
        observability.  But they are no longer silent — each failure
        increments the ``runs.record_failures`` counter, and the first
        one per session raises a :class:`RuntimeWarning` so operators
        can tell recording is broken without grepping counters.  A
        successful append increments the ``runs.recorded`` counter.
        """
        registry = self.run_registry
        if registry is None:
            return None
        from ..search.resilience import problem_fingerprint
        from ..telemetry.observatory.registry import build_run_record

        record = build_run_record(
            result,
            fingerprint=problem_fingerprint(problem),
            command="session.solve",
            jobs=jobs,
            optimizer=optimizer,
            checkpoint=checkpoint,
            counters=telemetry.metrics.snapshot().get("counters", {}),
            seed=self.optimizer_config.seed,
        )
        try:
            registry.record(record)
        except OSError as exc:
            telemetry.metrics.counter("runs.record_failures").inc()
            if not self._registry_warned:
                self._registry_warned = True
                warnings.warn(
                    "run-registry write failed"
                    f" ({exc}); further failures in this session"
                    " will only be counted (runs.record_failures)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return None
        telemetry.metrics.counter("runs.recorded").inc()
        return record

    @property
    def pending_edits(self):
        """The journaled edits the next solve will absorb."""
        return self._journal.edits

    @property
    def last_plan(self) -> DeltaPlan | None:
        """The invalidation plan the most recent solve executed."""
        return self._last_plan

    def _prepare_objective(self, problem: Problem) -> Objective:
        """Build the objective for a solve via the delta pipeline.

        Plans the cheapest bit-identical path from the previous solve's
        compiled state (docs/incremental.md), executes it, commits the
        surviving state and clears the edit journal.  With the session's
        ``delta`` flag off, every solve takes the cold path.
        """
        metrics = get_telemetry().metrics
        edits = self._journal.edits
        metrics.counter("session.delta.solves").inc()
        if edits:
            metrics.counter("session.delta.edits").inc(len(edits))
            for edit in edits:
                metrics.counter(f"session.delta.edit.{edit.kind}").inc()

        # The similarity vocabulary must cover the universe on every
        # path; extension appends rows, so cached clustering state and
        # name ids stay valid, and values match a cold build exactly.
        missing = [
            name
            for name in problem.universe.attribute_names()
            if name not in self._matrix
        ]
        if missing:
            self._matrix = self._matrix.extended(missing, self._measure)
            metrics.counter("session.delta.similarity_extended").inc()
            metrics.counter("session.delta.similarity_rows_added").inc(
                len(missing)
            )
        else:
            metrics.counter("session.delta.similarity_reused").inc()

        previous_problem = self._last_problem if self.delta else None
        plan = plan_delta(previous_problem, problem, edits)
        self._last_plan = plan
        with get_telemetry().span(
            "session.delta.plan",
            path=plan.path,
            plan=plan.describe(),
            edits=len(edits),
        ):
            objective = self._apply_plan(plan, problem, metrics)
        return self._commit(problem, objective)

    def _shared_context_for(self, problem: Problem):
        """The pre-compiled context, iff it still matches this problem.

        A service hands many sessions one ``EvalContext`` compiled over
        the resident universe (see ``eval_context`` in the constructor).
        The context depends only on the universe's sources and the
        characteristic-QEF specs, so it is reusable exactly while both
        are unchanged — checked by object identity for the universe
        (any edit that touches sources builds a *new* Universe) and by
        spec equality for the QEFs.  Any drift returns ``None`` and the
        cold path compiles from scratch, so a stale context can never
        leak into a solve.
        """
        if self._shared_context is None:
            return None
        if self.universe is not self._shared_context_universe:
            return None
        if problem.universe is not self._shared_context_universe:
            return None
        if tuple(problem.characteristic_qefs) != self._shared_context_specs:
            return None
        return self._shared_context

    def _apply_plan(
        self, plan: DeltaPlan, problem: Problem, metrics
    ) -> Objective:
        previous = self._objective
        if plan.path == "cold" or previous is None:
            metrics.counter("session.delta.cold_solves").inc()
            shared = self._shared_context_for(problem)
            if shared is not None:
                metrics.counter("session.delta.context_shared").inc()
            else:
                metrics.counter("session.delta.context_rebuilt").inc()
            return Objective(
                problem,
                similarity=self._matrix,
                match_operator=self._build_operator(problem),
                context=shared,
            )

        # Match operator: rebuild it, or re-point C (applied at lookup, so
        # the memo holds) and, after a universe edit, the universe.
        operator = previous.match_operator
        if plan.operator == ("rebuild",):
            operator = self._build_operator(problem)
            metrics.counter("session.delta.operator_rebuilt").inc()
        else:
            operator.constrain(problem.source_constraints)
            if plan.operator == ("universe",):
                dropped = operator.retarget_universe(
                    problem.universe,
                    self._matrix,
                    removed_ids=plan.removed_source_ids,
                )
                metrics.counter(
                    "session.delta.operator_universe_patched"
                ).inc()
                metrics.counter("session.delta.match_memo_dropped").inc(
                    dropped
                )
            else:
                metrics.counter("session.delta.operator_reused").inc()

        # Objective: its memo holds QEF values, which read only the
        # universe and the QEF set — keep it while the context is reused,
        # weighed at lookup under the new problem.  Otherwise start an
        # empty memo over a row-spliced context.
        if plan.context == "reuse":
            previous.problem = problem
            previous.match_operator = operator
            metrics.counter("session.delta.context_reused").inc()
            return previous
        metrics.counter("session.delta.memo_dropped").inc(
            previous.cache_info()["entries"]
        )
        metrics.counter("session.delta.context_patched").inc()
        return Objective(
            problem,
            similarity=self._matrix,
            match_operator=operator,
            patch_context_from=previous.context,
        )

    def _build_operator(self, problem: Problem):
        from ..matching import MatchOperator

        return MatchOperator.for_problem(problem, similarity=self._matrix)

    def _commit(self, problem: Problem, objective: Objective) -> Objective:
        """Adopt a solve's compiled state as the next delta baseline."""
        self._objective = objective
        self._operator = objective.match_operator
        self._last_problem = problem
        self._journal.clear()
        return objective

    def _known_qefs(self) -> set[str]:
        names = {"matching", "cardinality", "coverage", "redundancy"}
        names.update(spec.name for spec in self.characteristic_qefs)
        return names

    def _resolve_source(self, source: int | str) -> int:
        if isinstance(source, int):
            self.universe.source(source)
            return source
        for candidate in self.universe:
            if candidate.name == source:
                return candidate.source_id
        raise ReproError(f"no source named {source!r} in universe")

    def _resolve_attribute(
        self, attribute: AttributeRef | tuple[int | str, str | int]
    ) -> AttributeRef:
        if isinstance(attribute, AttributeRef):
            resolved = self.universe.resolve_attribute(
                attribute.source_id, attribute.index
            )
            if resolved.name != attribute.name:
                raise ConstraintError(
                    f"attribute {attribute} does not exist in the universe"
                )
            return resolved
        source, attr = attribute
        source_id = self._resolve_source(source)
        return self.universe.resolve_attribute(source_id, attr)
