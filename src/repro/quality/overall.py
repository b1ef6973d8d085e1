"""The overall objective ``Q(S) = Σ w_i F_i(S)`` (paper §2.3, §2.5).

:class:`Objective` wires a :class:`~repro.core.Problem` to concrete QEF
implementations and evaluates selections for the optimizers:

* the matching operator is invoked once per selection (memoized) and its
  result feeds both ``F1`` and the feasibility check — the mediated schema
  must be valid on the constrained sources (the paper's NULL result);
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

The selection memo is shared by both paths and uses LRU eviction: when
full, the least-recently-used entry is dropped (counted by the
``objective.cache_evictions`` metric) instead of flushing the whole memo.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence

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
from ..telemetry import get_profiler, get_telemetry
from .characteristics import CharacteristicQEF
from .compiled import EvalContext
from .data_metrics import CardinalityQEF, CoverageQEF, RedundancyQEF

#: Multiplier applied to the quality of infeasible selections when forming
#: their search objective.  Any value in (0, 1) preserves the invariant
#: that a feasible selection always outranks an infeasible one of equal
#: quality.
INFEASIBLE_PENALTY = 0.25


class Objective:
    """Memoizing evaluator of ``Q(S)`` for a fixed problem."""

    def __init__(
        self,
        problem: Problem,
        similarity: SimilarityMeasure | NameSimilarityMatrix | None = None,
        linkage: str = "single",
        prune: bool = True,
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
            # the session layer keys its operator cache on exactly those.
            self.match_operator = match_operator
        else:
            self.match_operator = MatchOperator.for_problem(
                problem, similarity=similarity, linkage=linkage, prune=prune
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
        self._cache: OrderedDict[frozenset[int], Solution] = OrderedDict()
        self._cache_size = cache_size
        self._evaluations = 0
        self._cache_hits = 0
        self._cache_evictions = 0
        get_profiler().add_cache_probe("objective.memo", self.cache_info)

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

    def reweigh(self, problem: Problem) -> dict[str, int]:
        """Re-point at a weights-only edit, carrying the memo across.

        The QEF values of a selection do not depend on the weights — only
        the weighted sum does — and every cached :class:`Solution` already
        carries its per-QEF components in ``qef_scores``.  So a weight
        change re-derives each cached entry by running the same weighting
        loop as :meth:`_assemble` over the cached components: identical
        values folded in the identical ``weights.items()`` order means the
        re-derived quality is bit-identical to a cold re-evaluation.
        Feasibility and its reasons never depend on weights either, so
        they carry over, as does the infeasibility discount.

        Entries missing a component some newly non-zero weight now needs
        (the QEF was skipped at weight 0 when the entry was scored) are
        dropped and re-scored on demand.  The caller must change *only*
        the weights — same universe, constraints, θ/β, budget and QEF
        set; the session's delta planner guarantees this.  Returns
        kept/dropped entry counts.
        """
        weights = problem.weights
        self.problem = problem
        stats = {"kept": 0, "dropped": 0}
        fresh: OrderedDict[frozenset[int], Solution] = OrderedDict()
        for selection, solution in self._cache.items():
            reweighed = self._reweighed(solution, weights)
            if reweighed is None:
                stats["dropped"] += 1
            else:
                fresh[selection] = reweighed
                stats["kept"] += 1
        self._cache = fresh
        metrics = get_telemetry().metrics
        metrics.counter("objective.memo_reweighed").inc(stats["kept"])
        if stats["dropped"]:
            metrics.counter("objective.memo_reweigh_drops").inc(
                stats["dropped"]
            )
        return stats

    @staticmethod
    def _reweighed(solution: Solution, weights) -> Solution | None:
        """``solution`` under new weights, or None when a score is missing."""
        cached = solution.qef_scores
        scores: dict[str, float] = {}
        quality = 0.0
        # Mirror _assemble exactly: MATCHING always participates (even at
        # weight 0), other zero-weight QEFs are skipped.
        for name, weight in weights.items():
            if name != MATCHING and weight == 0.0:
                continue
            if name not in cached:
                return None
            value = cached[name]
            scores[name] = value
            quality += weight * value
        objective = (
            quality if solution.feasible else INFEASIBLE_PENALTY * quality
        )
        return Solution(
            selected=solution.selected,
            schema=solution.schema,
            objective=objective,
            quality=quality,
            qef_scores=scores,
            feasible=solution.feasible,
            infeasibility=solution.infeasibility,
        )

    def evaluate(self, source_ids: Iterable[int]) -> Solution:
        """Evaluate a selection, returning a :class:`~repro.core.Solution`."""
        telemetry = get_telemetry()
        selection = frozenset(source_ids)
        cached = self._cache_lookup(selection)
        if cached is not None:
            self._cache_hits += 1
            telemetry.metrics.counter("objective.cache_hits").inc()
            return cached
        telemetry.metrics.counter("objective.evaluations").inc()
        with telemetry.span(
            "objective.evaluate", size=len(selection)
        ) as span:
            solution = self._evaluate_uncached(selection)
            span.set(feasible=solution.feasible)
        self._cache_store(selection, solution)
        self._evaluations += 1
        return solution

    def evaluate_batch(
        self, selections: Sequence[Iterable[int]]
    ) -> list[Solution]:
        """Evaluate a batch of selections through the columnar kernels.

        Order-preserving: ``result[i]`` corresponds to ``selections[i]``.
        The memo is consulted first (duplicates within the batch count as
        cache hits, exactly as repeated :meth:`evaluate` calls would);
        distinct uncached selections are scored together — one masked
        OR-reduction for ``D(S)``, vectorized cardinality sums, and the
        precompiled characteristic matrix — then assembled per candidate
        by the same code path as the scalar evaluator, so every
        :class:`Solution` field is bit-identical to :meth:`evaluate`.
        """
        telemetry = get_telemetry()
        batch = [frozenset(selection) for selection in selections]
        telemetry.metrics.counter("objective.batch_calls").inc()
        telemetry.metrics.counter("objective.batch_candidates").inc(
            len(batch)
        )
        results: list[Solution | None] = [None] * len(batch)
        pending: dict[frozenset[int], list[int]] = {}
        for position, selection in enumerate(batch):
            cached = self._cache_lookup(selection)
            if cached is not None:
                self._cache_hits += 1
                telemetry.metrics.counter("objective.cache_hits").inc()
                results[position] = cached
            elif selection in pending:
                # A duplicate inside the batch: the first occurrence will
                # populate the memo, so this one is a cache hit — the same
                # accounting as two consecutive evaluate() calls.
                self._cache_hits += 1
                telemetry.metrics.counter("objective.cache_hits").inc()
                pending[selection].append(position)
            else:
                pending[selection] = [position]
        if pending:
            with telemetry.span(
                "objective.batch_evaluate",
                size=len(batch),
                distinct=len(pending),
            ):
                self._evaluate_pending(pending, results, telemetry)
        return results

    def __call__(self, source_ids: Iterable[int]) -> Solution:
        return self.evaluate(source_ids)

    # -- memo ---------------------------------------------------------------

    def _cache_lookup(self, selection: frozenset[int]) -> Solution | None:
        cached = self._cache.get(selection)
        if cached is not None:
            self._cache.move_to_end(selection)
        return cached

    def _cache_store(
        self, selection: frozenset[int], solution: Solution
    ) -> None:
        if self._cache and len(self._cache) >= self._cache_size:
            metrics = get_telemetry().metrics
            while self._cache and len(self._cache) >= self._cache_size:
                self._cache.popitem(last=False)
                self._cache_evictions += 1
                metrics.counter("objective.cache_evictions").inc()
        self._cache[selection] = solution

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

    def _evaluate_pending(
        self,
        pending: dict[frozenset[int], list[int]],
        results: list[Solution | None],
        telemetry,
    ) -> None:
        """Score the distinct uncached selections of one batch."""
        known_ids = self.problem.universe.source_ids
        vectorizable = [
            selection for selection in pending if selection <= known_ids
        ]
        names = [
            name
            for name, weight in self.problem.weights.items()
            if name != MATCHING and weight != 0.0
        ]
        rows: dict[frozenset[int], dict[str, float]] = {}
        if vectorizable:
            scored = self._context.score_batch(vectorizable, names)
            for name, values in scored.items():
                for selection, value in zip(vectorizable, values):
                    rows.setdefault(selection, {})[name] = value
        for selection, positions in pending.items():
            telemetry.metrics.counter("objective.evaluations").inc()
            if selection <= known_ids:
                solution = self._assemble(selection, rows.get(selection, {}))
            else:
                # Unknown source ids: route through the scalar evaluator
                # for its exact early-return Solution.
                telemetry.metrics.counter("objective.batch_fallbacks").inc()
                solution = self._evaluate_uncached(selection)
            self._cache_store(selection, solution)
            self._evaluations += 1
            for position in positions:
                results[position] = solution

    def _evaluate_uncached(self, selection: frozenset[int]) -> Solution:
        unknown = selection - self.problem.universe.source_ids
        if unknown:
            reasons = self._base_reasons(selection)
            reasons.append(f"unknown source ids {sorted(unknown)}")
            return Solution(
                selected=selection,
                schema=None,
                objective=float("-inf"),
                quality=0.0,
                feasible=False,
                infeasibility=tuple(reasons),
            )
        return self._assemble(selection, {})

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
        self, selection: frozenset[int], vector_row: dict[str, float]
    ) -> Solution:
        """Build a :class:`Solution` from (possibly pre-scored) QEF values.

        ``vector_row`` holds QEF values already computed by the columnar
        kernels; anything missing is scored by the scalar QEF right here.
        The scalar evaluator calls this with an empty row, so both paths
        run the identical weighting loop in the identical order.
        """
        problem = self.problem
        telemetry = get_telemetry()
        reasons = self._base_reasons(selection)

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
            elif name in vector_row:
                value = vector_row[name]
            else:
                if sources is None:
                    sources = problem.universe.select(selection)
                # Span-per-QEF (a "qef.<name>" family) so the summary
                # exporter reports where evaluation time actually goes.
                with telemetry.span("qef." + name, size=len(sources)):
                    value = self._qefs[name](sources)
            scores[name] = value
            quality += weight * value

        feasible = not reasons
        if feasible:
            objective = quality
        else:
            objective = INFEASIBLE_PENALTY * quality
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
