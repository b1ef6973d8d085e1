"""The schema matching operator ``Match(S, C, G)`` (paper §3).

``Match`` determines the best matching between the schemas of the sources in
``S``, returning the mediated schema ``M`` and the matching-quality QEF
value ``F1(S)``.  It must honour the user's source constraints ``C`` (the
result must be valid on ``C``) and GA constraints ``G`` (``G ⊑ M``).

:class:`MatchOperator` binds a universe, a similarity matrix and the problem
parameters once, then evaluates arbitrary selections with memoization —
the clustering is a pure function of the selection, so caching it by
source-set is sound and is what makes iterative search affordable.  The
source constraints ``C`` are applied to each memoized clustering at
lookup, so a constraint edit keeps the memo.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..core import (
    GlobalAttribute,
    MediatedSchema,
    Problem,
    Universe,
)
from ..exceptions import ConstraintError
from ..similarity.matrix import NameSimilarityMatrix
from ..similarity.measures import SimilarityMeasure, default_measure
from ..telemetry import get_telemetry
from .cluster import Cluster
from .greedy import greedy_constrained_clustering


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Outcome of one ``Match(S, C, G)`` call.

    Attributes
    ----------
    schema:
        The mediated schema, or None when the constraints are unsatisfiable
        for this selection (the paper's NULL result).
    quality:
        ``F1(S)`` — the mean internal matching quality over the schema's
        GAs (0 for a NULL or empty schema).
    unspanned_source_ids:
        Selected sources that contribute no attribute to any GA.  Only
        constrained sources among these make the result NULL; the rest are
        diagnostic.
    reasons:
        Human-readable explanations when ``schema`` is None.
    """

    schema: MediatedSchema | None
    quality: float
    unspanned_source_ids: frozenset[int] = frozenset()
    reasons: tuple[str, ...] = ()

    @property
    def is_null(self) -> bool:
        """True when Match returned the paper's NULL result."""
        return self.schema is None


class MatchOperator:
    """``Match(S)`` with the constraints and parameters bound at creation."""

    def __init__(
        self,
        universe: Universe,
        source_constraints: Iterable[int] = (),
        ga_constraints: Sequence[GlobalAttribute] = (),
        theta: float = 0.65,
        beta: int = 2,
        similarity: SimilarityMeasure | NameSimilarityMatrix | None = None,
        cache_size: int = 200_000,
    ):
        self.universe = universe
        self.theta = theta
        self.beta = beta
        self.matrix = _resolve_matrix(universe, similarity)
        self.seeds = coalesce_ga_constraints(ga_constraints)
        implied = {
            attr.source_id for seed in self.seeds for attr in seed
        }
        self._implied_ids = frozenset(implied)
        self.constrain(source_constraints)
        self._cache: OrderedDict[frozenset[int], MatchResult] = (
            OrderedDict()
        )
        self._cache_size = cache_size
        self.memo_evictions = 0
        #: Plain-int memo traffic counters; kept independent of telemetry so
        #: SearchStats can report them even under the no-op tracer.
        self.memo_hits = 0
        self.memo_misses = 0
        get_telemetry().metrics.gauge("match.constraint_seeds").set(
            len(self.seeds)
        )

    @classmethod
    def for_problem(
        cls,
        problem: Problem,
        similarity: SimilarityMeasure | NameSimilarityMatrix | None = None,
        **kwargs,
    ) -> "MatchOperator":
        """Build the operator a :class:`~repro.core.Problem` describes."""
        return cls(
            problem.universe,
            source_constraints=problem.source_constraints,
            ga_constraints=problem.ga_constraints,
            theta=problem.theta,
            beta=problem.beta,
            similarity=similarity,
            **kwargs,
        )

    def match(self, source_ids: Iterable[int]) -> MatchResult:
        """Evaluate ``Match(S)`` for the given selection (memoized).

        The memo holds each selection's *ungated* clustering, which
        depends on θ, β, G, the selected sources and the matrix but never
        on ``C``.  The constraints gate it here, at lookup: a selection
        missing a constrained source is NULL before any lookup, and a
        clustering leaving a constrained source unspanned is the θ-NULL
        result.
        """
        telemetry = get_telemetry()
        selection = frozenset(source_ids)
        missing = self.required_source_ids - selection
        if missing:
            return MatchResult(
                None,
                0.0,
                reasons=(
                    f"selection omits constrained source(s) "
                    f"{sorted(missing)}",
                ),
            )
        result = self._cache.get(selection)
        if result is not None:
            self._cache.move_to_end(selection)
            self.memo_hits += 1
            telemetry.metrics.counter("match.memo_hits").inc()
        else:
            self.memo_misses += 1
            telemetry.metrics.counter("match.memo_misses").inc()
            with telemetry.span("match.evaluate", size=len(selection)):
                result = self._cluster(selection)
            while self._cache and len(self._cache) >= self._cache_size:
                # LRU eviction: drop the stalest selection, never the whole
                # memo — a warm solve loop keeps its hot neighborhoods.
                self._cache.popitem(last=False)
                self.memo_evictions += 1
                telemetry.metrics.counter("match.cache_evictions").inc()
            self._cache[selection] = result
        constrained_unspanned = (
            result.unspanned_source_ids & self.required_source_ids
        )
        if constrained_unspanned:
            # M is not valid on C: a constrained source matched nothing.
            return MatchResult(
                None,
                0.0,
                unspanned_source_ids=result.unspanned_source_ids,
                reasons=(
                    "no matching satisfies θ for constrained source(s) "
                    f"{sorted(constrained_unspanned)}",
                ),
            )
        return result

    def ga_quality(self, ga: GlobalAttribute) -> float:
        """``F1({g})`` — internal matching quality of a single GA."""
        return Cluster.from_ga(ga, self.matrix).quality

    def cache_info(self) -> dict[str, int]:
        """Cache statistics for diagnostics."""
        return {
            "entries": len(self._cache),
            "capacity": self._cache_size,
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "evictions": self.memo_evictions,
        }

    # -- delta re-pointing ---------------------------------------------------

    def constrain(self, source_constraints: Iterable[int]) -> None:
        """Re-point the source constraints ``C``, keeping the memo.

        The memo never reads ``C`` — :meth:`match` applies it at lookup.
        """
        self.required_source_ids = (
            frozenset(source_constraints) | self._implied_ids
        )

    def retarget_universe(
        self,
        universe: Universe,
        similarity: SimilarityMeasure | NameSimilarityMatrix | None,
        removed_ids: Iterable[int] = (),
    ) -> int:
        """Re-point the operator at an edited universe, keeping the memo.

        ``Match(S)`` reads only the *selected* sources, so adding a source
        invalidates nothing.  Removing sources drops the entries whose
        selection touches a removed id, so a different source later added
        under that id is never served a stale clustering.  The similarity
        matrix may only *grow* its vocabulary (see
        :meth:`~repro.similarity.NameSimilarityMatrix.extended`).
        Constraints must not reference removed sources — release them
        first.  Returns the number of entries dropped.
        """
        removed = frozenset(removed_ids)
        conflicted = self.required_source_ids & removed
        if conflicted:
            raise ConstraintError(
                f"cannot retarget: removed source(s) {sorted(conflicted)} "
                f"are still constrained"
            )
        self.universe = universe
        self.matrix = _resolve_matrix(universe, similarity)
        stale = [
            selection for selection in self._cache if selection & removed
        ] if removed else []
        for selection in stale:
            del self._cache[selection]
        return len(stale)

    # -- internals ----------------------------------------------------------

    def _cluster(self, selection: frozenset[int]) -> MatchResult:
        """The ungated ``Match(S)``: cluster, keep by β, average quality.

        F1 is the mean of the kept clusters' carried qualities.
        ``math.fsum`` is exactly rounded, so the mean does not depend on
        the order the clusters come out in.
        """
        clusters = greedy_constrained_clustering(
            self._free_attributes(selection),
            self.seeds,
            self.matrix,
            self.theta,
        )
        kept = [
            cluster
            for cluster in clusters
            if cluster.keep or len(cluster) >= self.beta
        ]
        schema = MediatedSchema(cluster.to_ga() for cluster in kept)
        unspanned = schema.unspanned_source_ids(selection)
        quality = math.fsum(c.quality for c in kept) / max(len(kept), 1)
        return MatchResult(schema, quality, unspanned_source_ids=unspanned)

    def _free_attributes(self, selection: frozenset[int]):
        seed_attrs = {attr for seed in self.seeds for attr in seed}
        return [
            attr
            for sid in sorted(selection)
            for attr in self.universe.source(sid).attributes
            if attr not in seed_attrs
        ]


def coalesce_ga_constraints(
    ga_constraints: Sequence[GlobalAttribute],
) -> tuple[GlobalAttribute, ...]:
    """Merge GA constraints that share attributes into disjoint seeds.

    Two constraints sharing an attribute necessarily describe one concept,
    so their union must be a single seed.  If that union is not a valid GA
    (it would take two attributes from one source) the constraints are
    contradictory and a :class:`ConstraintError` is raised.
    """
    groups: list[set] = []
    for ga in ga_constraints:
        attrs = set(ga.attributes)
        touching = [g for g in groups if g & attrs]
        for g in touching:
            attrs |= g
            groups.remove(g)
        groups.append(attrs)
    seeds = []
    for group in groups:
        sources = [a.source_id for a in group]
        if len(set(sources)) != len(sources):
            raise ConstraintError(
                "GA constraints are contradictory: their union would take "
                "two attributes from one source"
            )
        seeds.append(GlobalAttribute(group))
    return tuple(
        sorted(
            seeds,
            key=lambda ga: sorted((a.source_id, a.index) for a in ga),
        )
    )


def _resolve_matrix(
    universe: Universe,
    similarity: SimilarityMeasure | NameSimilarityMatrix | None,
) -> NameSimilarityMatrix:
    if isinstance(similarity, NameSimilarityMatrix):
        return similarity
    measure = similarity if similarity is not None else default_measure()
    return NameSimilarityMatrix.build(universe.attribute_names(), measure)
