"""The overall objective ``Q(S) = Σ w_i F_i(S)`` (paper §2.3, §2.5).

:class:`Objective` wires a :class:`~repro.core.Problem` to concrete QEF
implementations and evaluates selections for the optimizers:

* the matching operator (memoized itself) feeds both ``F1`` and the
  feasibility check — the mediated schema must be valid on the
  constrained sources (the paper's NULL result);
* QEFs with zero weight are skipped;
* infeasible selections receive a discounted *objective* below their raw
  quality so metaheuristics can traverse them without ever preferring them
  to a feasible solution (an implementation device, not part of the
  paper's model — see DESIGN.md).

At construction the objective also compiles the universe into an
:class:`~repro.quality.compiled.EvalContext` — columnar numpy state for
the data-dependent and characteristic QEFs — so :meth:`evaluate_batch`
can score a whole neighborhood of candidate selections with a handful of
vectorized kernels instead of one Python QEF walk per candidate.  Both
paths share :meth:`_assemble`, so a batch-scored :class:`Solution` is
bit-identical to the scalar one (property-tested in
``tests/quality/test_batch_eval.py``).

The selection memo is shared by both paths.  It maps a selection to its
QEF values ``F2…Fn`` only — what they depend on is the selected sources
and the universe-wide denominators — and every lookup re-assembles the
:class:`Solution` under the current weights, budget and match operator.
So the memo survives every edit but a change to the universe or the QEF
set.  It uses LRU eviction: when full, the least-recently-used entry is
dropped (counted by the ``objective.cache_evictions`` metric) instead of
flushing the whole memo.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence
from contextlib import nullcontext

from ..core import (
    CARDINALITY,
    COVERAGE,
    MATCHING,
    REDUNDANCY,
    Problem,
    QualityFunction,
    Solution,
)
from ..exceptions import WeightError
from ..explain.events import SelectionScored, get_event_log
from ..matching.operator import MatchOperator
from ..similarity.matrix import NameSimilarityMatrix
from ..similarity.measures import SimilarityMeasure
from ..telemetry import get_telemetry
from .characteristics import CharacteristicQEF
from .compiled import EvalContext
from .data_metrics import CardinalityQEF, CoverageQEF, RedundancyQEF

#: Multiplier applied to the quality of infeasible selections when forming
#: their search objective.  Any value in (0, 1) preserves the invariant
#: that a feasible selection always outranks an infeasible one of equal
#: quality.
INFEASIBLE_PENALTY = 0.25


class Objective:
    """Memoizing evaluator of ``Q(S)`` for one universe and QEF set.

    ``problem`` and ``match_operator`` may be re-pointed at an edited
    problem over the same universe and QEFs (the session's delta
    pipeline does); the memo stays valid because it holds QEF values
    only.
    """

    def __init__(
        self,
        problem: Problem,
        similarity: SimilarityMeasure | NameSimilarityMatrix | None = None,
        cache_size: int = 200_000,
        exact_data_metrics: bool = False,
        match_operator: MatchOperator | None = None,
        context: EvalContext | None = None,
        patch_context_from: EvalContext | None = None,
    ):
        self.problem = problem
        if match_operator is not None:
            # Reuse a pre-built (already warmed) operator.  The caller is
            # responsible for it matching the problem's θ/β/constraints —
            # the session's delta planner rebuilds or re-points it.
            self.match_operator = match_operator
        else:
            self.match_operator = MatchOperator.for_problem(
                problem, similarity=similarity
            )
        self._exact_data_metrics = exact_data_metrics
        self._qefs = self._build_qefs(problem)
        # Compiled columnar state: adopt the caller's prebuilt context
        # verbatim (it must describe this exact problem), patch a previous
        # one for an edited universe/QEF set, or compile cold.  All three
        # yield bit-identical scoring; the delta pipeline
        # (repro.session.delta) picks the cheapest applicable source.
        if context is not None:
            self._context = context
        elif patch_context_from is not None:
            self._context = EvalContext.patched(
                problem, self._qefs, patch_context_from
            )
        else:
            self._context = EvalContext.compile(problem, self._qefs)
        self._cache: OrderedDict[frozenset[int], dict[str, float]] = (
            OrderedDict()
        )
        self._cache_size = cache_size
        self._evaluations = 0
        self._cache_hits = 0
        self._cache_evictions = 0

    @property
    def evaluations(self) -> int:
        """Number of *distinct* selections evaluated so far."""
        return self._evaluations

    @property
    def cache_hits(self) -> int:
        """Number of evaluations served from the selection memo."""
        return self._cache_hits

    @property
    def cache_evictions(self) -> int:
        """Number of memo entries evicted (LRU) since construction."""
        return self._cache_evictions

    def cache_info(self) -> dict[str, int]:
        """``Q(S)`` memo statistics for diagnostics and cache probes.

        ``misses`` equals :attr:`evaluations` — every distinct selection
        scored is exactly one memo miss.
        """
        return {
            "entries": len(self._cache),
            "capacity": self._cache_size,
            "hits": self._cache_hits,
            "misses": self._evaluations,
            "evictions": self._cache_evictions,
        }

    @property
    def context(self) -> EvalContext:
        """The compiled columnar evaluation state for this universe."""
        return self._context

    @property
    def universe(self):
        """The problem's universe (convenience for optimizers)."""
        return self.problem.universe

    def evaluate(self, source_ids: Iterable[int]) -> Solution:
        """Evaluate a selection, returning a :class:`~repro.core.Solution`."""
        telemetry = get_telemetry()
        selection = frozenset(source_ids)
        row = self._cache_lookup(selection)
        if row is not None:
            self._cache_hits += 1
            telemetry.metrics.counter("objective.cache_hits").inc()
            return self._assemble(selection, row)
        telemetry.metrics.counter("objective.evaluations").inc()
        row = {}
        with telemetry.span(
            "objective.evaluate", size=len(selection)
        ) as span:
            solution = self._assemble(selection, row, fresh=True)
            span.set(feasible=solution.feasible)
        self._cache_store(selection, row)
        self._evaluations += 1
        return solution

    def evaluate_batch(
        self, selections: Sequence[Iterable[int]]
    ) -> list[Solution]:
        """Evaluate a batch of selections through the columnar kernels.

        Order-preserving: ``result[i]`` corresponds to ``selections[i]``.
        The memo is consulted first (duplicates within the batch count as
        cache hits, exactly as repeated :meth:`evaluate` calls would);
        the QEF values the rows still lack — every value of an uncached
        selection — are scored together, one kernel call per set of
        missing names: a masked OR-reduction for ``D(S)``, vectorized
        cardinality sums, and the precompiled characteristic matrix.
        Each selection is then assembled by the same code path as the
        scalar evaluator, so every :class:`Solution` field is
        bit-identical to :meth:`evaluate`.
        """
        telemetry = get_telemetry()
        batch = [frozenset(selection) for selection in selections]
        telemetry.metrics.counter("objective.batch_calls").inc()
        telemetry.metrics.counter("objective.batch_candidates").inc(
            len(batch)
        )
        rows: dict[frozenset[int], dict[str, float]] = {}
        fresh: set[frozenset[int]] = set()
        for selection in batch:
            row = rows.get(selection)
            if row is None:
                row = self._cache_lookup(selection)
            if row is None:
                rows[selection] = {}
                fresh.add(selection)
            else:
                # A cached selection, or a duplicate inside the batch: the
                # same accounting as two consecutive evaluate() calls.
                self._cache_hits += 1
                telemetry.metrics.counter("objective.cache_hits").inc()
                rows[selection] = row
        span = (
            telemetry.span(
                "objective.batch_evaluate",
                size=len(batch),
                distinct=len(fresh),
            )
            if fresh
            else nullcontext()
        )
        with span:
            self._score_missing(rows)
            solutions = {}
            for selection, row in rows.items():
                if selection in fresh:
                    telemetry.metrics.counter("objective.evaluations").inc()
                    solutions[selection] = self._assemble(
                        selection, row, fresh=True
                    )
                    self._cache_store(selection, row)
                    self._evaluations += 1
                else:
                    solutions[selection] = self._assemble(selection, row)
        return [solutions[selection] for selection in batch]

    def __call__(self, source_ids: Iterable[int]) -> Solution:
        return self.evaluate(source_ids)

    # -- memo ---------------------------------------------------------------

    def _cache_lookup(
        self, selection: frozenset[int]
    ) -> dict[str, float] | None:
        cached = self._cache.get(selection)
        if cached is not None:
            self._cache.move_to_end(selection)
        return cached

    def _cache_store(
        self, selection: frozenset[int], row: dict[str, float]
    ) -> None:
        if self._cache and len(self._cache) >= self._cache_size:
            metrics = get_telemetry().metrics
            while self._cache and len(self._cache) >= self._cache_size:
                self._cache.popitem(last=False)
                self._cache_evictions += 1
                metrics.counter("objective.cache_evictions").inc()
        self._cache[selection] = row

    # -- internals ----------------------------------------------------------

    def _build_qefs(self, problem: Problem) -> dict[str, QualityFunction]:
        universe = problem.universe
        exact = self._exact_data_metrics
        qefs: dict[str, QualityFunction] = {
            CARDINALITY: CardinalityQEF(universe),
            COVERAGE: CoverageQEF(universe, exact=exact),
            REDUNDANCY: RedundancyQEF(exact=exact),
        }
        for spec in problem.characteristic_qefs:
            qefs[spec.name] = CharacteristicQEF(universe, spec)
        for qef in problem.custom_qefs:
            qefs[qef.name] = qef
        weighted = set(problem.weights) - {MATCHING}
        missing = weighted - set(qefs)
        if missing:
            raise WeightError(
                f"no QEF implementation for weighted name(s) "
                f"{sorted(missing)}"
            )
        return qefs

    def _score_missing(
        self, rows: dict[frozenset[int], dict[str, float]]
    ) -> None:
        """Fill each row's missing weighted QEF values, vectorized.

        Selections lacking the same names are scored in one kernel call.
        Selections with unknown source ids are left to :meth:`_assemble`.
        """
        known_ids = self.problem.universe.source_ids
        names = [
            name
            for name, weight in self.problem.weights.items()
            if name != MATCHING and weight != 0.0
        ]
        groups: dict[tuple[str, ...], list[frozenset[int]]] = {}
        for selection, row in rows.items():
            missing = tuple(name for name in names if name not in row)
            if missing and selection <= known_ids:
                groups.setdefault(missing, []).append(selection)
        for missing, group in groups.items():
            scored = self._context.score_batch(group, list(missing))
            for name, values in scored.items():
                for selection, value in zip(group, values):
                    rows[selection][name] = value

    def _base_reasons(self, selection: frozenset[int]) -> list[str]:
        reasons: list[str] = []
        if not selection:
            reasons.append("empty selection")
        if len(selection) > self.problem.max_sources:
            reasons.append(
                f"{len(selection)} sources exceed the budget m="
                f"{self.problem.max_sources}"
            )
        return reasons

    def _assemble(
        self,
        selection: frozenset[int],
        row: dict[str, float],
        fresh: bool = False,
    ) -> Solution:
        """Build a :class:`Solution` from a selection's memo row.

        ``row`` holds QEF values already scored, by the columnar kernels
        or by an earlier assembly.  A weighted QEF missing from it (the
        row was scored while that QEF had weight 0) is scored by the
        scalar QEF right here and added to the row.  ``F1`` comes from
        :meth:`MatchOperator.match`, the budget and constraint reasons
        from the current problem, so a row stays valid across every edit
        that keeps the universe and the QEF set.  ``fresh`` marks a memo
        miss, the only assembly that is logged as a
        :class:`~repro.explain.events.SelectionScored` event.
        """
        problem = self.problem
        telemetry = get_telemetry()
        reasons = self._base_reasons(selection)
        known_ids = problem.universe.source_ids
        if not selection <= known_ids:
            reasons.append(
                f"unknown source ids {sorted(selection - known_ids)}"
            )
            return Solution(
                selected=selection,
                schema=None,
                objective=float("-inf"),
                quality=0.0,
                feasible=False,
                infeasibility=tuple(reasons),
            )

        match = self.match_operator.match(selection)
        if match.is_null:
            reasons.extend(match.reasons)

        sources = None
        scores: dict[str, float] = {}
        quality = 0.0
        for name, weight in problem.weights.items():
            if name == MATCHING:
                value = match.quality
            elif weight == 0.0:
                continue
            elif name in row:
                value = row[name]
            else:
                if sources is None:
                    sources = problem.universe.select(selection)
                # Span-per-QEF (a "qef.<name>" family) so the summary
                # exporter reports where evaluation time actually goes.
                with telemetry.span("qef." + name, size=len(sources)):
                    value = self._qefs[name](sources)
                row[name] = value
            scores[name] = value
            quality += weight * value

        feasible = not reasons
        objective = quality if feasible else INFEASIBLE_PENALTY * quality
        if fresh:
            if not feasible:
                telemetry.metrics.counter(
                    "objective.infeasible_discounts"
                ).inc()
            log = get_event_log()
            if log.enabled:
                log.emit(
                    SelectionScored(
                        selected=tuple(sorted(selection)),
                        scores=dict(scores),
                        weights={
                            name: problem.weights[name] for name in scores
                        },
                        quality=quality,
                        objective=objective,
                        feasible=feasible,
                        reasons=tuple(reasons),
                    )
                )
        return Solution(
            selected=selection,
            schema=match.schema,
            objective=objective,
            quality=quality,
            qef_scores=scores,
            feasible=feasible,
            infeasibility=tuple(reasons),
        )
