"""Shared optimizer machinery.

Every optimizer maximizes the objective over selections ``S ⊆ U`` with
``C ⊆ S`` and ``|S| ≤ m``.  The constraints are enforced *structurally* —
move generators never produce a selection that drops a constrained source
or exceeds the budget, which is how the paper's "permanently tabu regions"
are realized — while schema-level feasibility (the matching operator's
NULL result) is handled through the objective's discounted score.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core import Solution, worst_solution
from ..exceptions import SearchError
from ..quality.overall import Objective
from ..run_context import current_run
from ..telemetry import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .parallel import PortfolioStats


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    """Knobs shared by all optimizers.

    Attributes
    ----------
    max_iterations:
        Hard cap on optimizer iterations.
    patience:
        Stop after this many consecutive iterations without improving the
        best solution.
    seed:
        Seed for the optimizer's private RNG; runs are deterministic.
    time_limit:
        Optional wall-clock budget in seconds.
    sample_size:
        How many ADD candidates a neighborhood samples per iteration
        (0 means all of them).
    """

    max_iterations: int = 150
    patience: int = 25
    seed: int = 0
    time_limit: float | None = None
    sample_size: int = 48


@dataclass(frozen=True, slots=True)
class SearchStats:
    """Bookkeeping about one optimizer run.

    ``evaluations`` counts the distinct selections this run scored (its
    ``Q(S)`` memo misses; the memo may outlive one run).
    ``match_memo_hits``/``match_memo_misses`` count this run's traffic on
    the match operator's selection memo — the reason a warm re-solve in a
    feedback loop is faster than the first solve.  They default to 0 for
    optimizers constructed against bare callables in tests.
    """

    iterations: int
    evaluations: int
    elapsed_seconds: float
    best_found_at: int
    match_memo_hits: int = 0
    match_memo_misses: int = 0


@dataclass(frozen=True, slots=True)
class SearchResult:
    """An optimizer's best solution plus run statistics.

    ``portfolio`` is only populated on results returned by the parallel
    engine (:class:`repro.search.parallel.ParallelSolveEngine`): the
    winning worker's result is annotated with the whole portfolio's
    :class:`~repro.search.parallel.PortfolioStats`.
    """

    solution: Solution
    stats: SearchStats
    trajectory: tuple[float, ...] = field(default=())
    portfolio: "PortfolioStats | None" = None

    @property
    def objective(self) -> float:
        """Shortcut to the best solution's objective value."""
        return self.solution.objective


class Optimizer(ABC):
    """Base class for combinatorial optimizers over source subsets."""

    #: Registry name, set by subclasses.
    name: str = "abstract"

    def __init__(self, config: OptimizerConfig | None = None):
        self.config = config or OptimizerConfig()

    def optimize(
        self,
        objective: Objective,
        initial: frozenset[int] | None = None,
    ) -> SearchResult:
        """Run the search and return the best solution found.

        ``initial`` warm-starts the search from a previous iteration's
        selection — the natural mode for µBE's solve/adjust/re-solve loop,
        where consecutive problems differ only by a constraint or a weight
        and the previous answer is an excellent starting point.  Optimizers
        that have no meaningful start state (random, exhaustive) ignore it.

        This is a template method: it opens the ``search.solve`` span,
        delegates to the subclass's :meth:`_optimize`, and folds the run's
        match-memo traffic and run-level counters into the result.
        """
        telemetry = get_telemetry()
        operator = getattr(objective, "match_operator", None)
        evaluations_before = getattr(objective, "evaluations", 0)
        hits_before = getattr(operator, "memo_hits", 0)
        misses_before = getattr(operator, "memo_misses", 0)
        with telemetry.span("search.solve", optimizer=self.name) as span:
            result = self._optimize(objective, initial)
            span.set(
                iterations=result.stats.iterations,
                best_objective=result.solution.objective,
            )
        stats = replace(
            result.stats,
            evaluations=result.stats.evaluations - evaluations_before,
            match_memo_hits=getattr(operator, "memo_hits", 0) - hits_before,
            match_memo_misses=(
                getattr(operator, "memo_misses", 0) - misses_before
            ),
        )
        metrics = telemetry.metrics
        metrics.counter("search.solves").inc()
        metrics.counter("search.iterations").inc(stats.iterations)
        metrics.gauge("search.time_to_best_iteration").set(
            stats.best_found_at
        )
        metrics.histogram("search.solve_seconds").observe(
            stats.elapsed_seconds
        )
        return replace(result, stats=stats)

    @classmethod
    def run_from_config(
        cls,
        objective: Objective,
        config: OptimizerConfig | None = None,
        initial: frozenset[int] | None = None,
        **params: Any,
    ) -> SearchResult:
        """Construct this optimizer from plain data and run it.

        The entrypoint portfolio workers use: everything needed to
        reproduce a run — class, config, extra constructor ``params``,
        warm start — arrives as picklable values, so a worker process can
        rebuild and execute the exact search the parent described.
        Equivalent to ``cls(config, **params).optimize(objective,
        initial=initial)``.
        """
        return cls(config, **params).optimize(objective, initial=initial)

    @abstractmethod
    def _optimize(
        self,
        objective: Objective,
        initial: frozenset[int] | None = None,
    ) -> SearchResult:
        """Subclass hook: the actual search (see :meth:`optimize`)."""

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.config.seed)

    def _score(
        self,
        objective: Objective,
        selections: Sequence[frozenset[int]],
    ) -> list[Solution]:
        """Score a candidate batch, order-preserving.

        The whole list goes through the objective's columnar
        :meth:`~repro.quality.Objective.evaluate_batch` in one call, which
        is bit-identical to scoring each candidate with ``evaluate``.
        """
        return objective.evaluate_batch(selections)

    def _start_selection(
        self,
        objective: Objective,
        initial: frozenset[int] | None,
        rng: np.random.Generator,
    ) -> frozenset[int]:
        """Resolve the starting selection: repaired warm start, or random."""
        if initial is None:
            return random_selection(objective, rng)
        return repair_selection(objective, initial, rng)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.config!r})"


class RunClock:
    """Tracks elapsed time against an optional budget."""

    __slots__ = ("_start", "_limit")

    def __init__(self, time_limit: float | None):
        self._start = time.perf_counter()
        self._limit = time_limit

    def elapsed(self) -> float:
        """Seconds since the run started."""
        return time.perf_counter() - self._start

    def expired(self) -> bool:
        """True iff the time budget is spent or a sibling signalled stop.

        The run context's cooperative stop check
        (:attr:`~repro.run_context.RunContext.stop_check`) is folded in
        here because every optimizer already consults its clock once per
        iteration — portfolio early-stop therefore needs no changes to
        any optimizer's loop.
        """
        check = current_run().stop_check
        if check is not None and check():
            return True
        return self._limit is not None and self.elapsed() >= self._limit


def required_ids(objective: Objective) -> frozenset[int]:
    """Sources every feasible selection must contain (C plus GA-implied)."""
    return objective.problem.effective_source_constraints


def free_ids(objective: Objective) -> tuple[int, ...]:
    """Sources the optimizer may freely add or drop, sorted for determinism."""
    required = required_ids(objective)
    return tuple(
        sid for sid in sorted(objective.universe.source_ids)
        if sid not in required
    )


def random_selection(
    objective: Objective, rng: np.random.Generator
) -> frozenset[int]:
    """A uniformly random selection of exactly ``m`` sources honouring C."""
    selection = set(required_ids(objective))
    pool = free_ids(objective)
    extra = objective.problem.max_sources - len(selection)
    if extra > 0 and pool:
        take = min(extra, len(pool))
        chosen = rng.choice(len(pool), size=take, replace=False)
        selection.update(pool[i] for i in chosen)
    if not selection:
        raise SearchError("cannot build a non-empty initial selection")
    return frozenset(selection)


def repair_selection(
    objective: Objective,
    selection: frozenset[int],
    rng: np.random.Generator,
) -> frozenset[int]:
    """Force a (possibly stale) selection into the constraint region.

    Used to warm-start from a previous iteration whose problem may have had
    different constraints or budget: unknown sources are dropped, the
    constrained sources are forced in, and if the budget overflows, free
    members are evicted at random.  An empty result falls back to a random
    selection.
    """
    required = required_ids(objective)
    budget = objective.problem.max_sources
    repaired = set(selection & objective.universe.source_ids) | set(required)
    over = len(repaired) - budget
    if over > 0:
        evictable = sorted(repaired - required)
        if over > len(evictable):
            raise SearchError(
                f"cannot repair selection: {len(required)} constrained "
                f"source(s) already exceed the budget m={budget}; relax "
                f"the constraints or raise max_sources"
            )
        chosen = rng.choice(len(evictable), size=over, replace=False)
        for index in chosen:
            repaired.discard(evictable[index])
    if not repaired:
        return random_selection(objective, rng)
    return frozenset(repaired)


def best_of(solutions: Sequence[Solution]) -> Solution:
    """The highest-objective solution, preferring feasible ones on ties."""
    best = worst_solution()
    for solution in solutions:
        if (solution.objective, solution.feasible) > (
            best.objective,
            best.feasible,
        ):
            best = solution
    return best
