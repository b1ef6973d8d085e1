"""The compiled columnar evaluation core behind ``Objective.evaluate_batch``.

The scalar QEFs (:mod:`repro.quality.data_metrics`,
:mod:`repro.quality.characteristics`) walk Python ``Source`` objects per
selection; every tabu iteration repeats that walk dozens of times.
:class:`EvalContext` compiles the universe once — at
:class:`~repro.quality.Objective` construction — into numpy columnar state:

* a sorted source-id vector and its index map;
* a cooperative mask and a cooperative-cardinality vector;
* a stacked PCSA word matrix (:class:`~repro.sketch.StackedSketches`) so
  ``D(S)`` for a whole batch of selections is one masked bitwise-OR
  reduction plus a vectorized estimator;
* a per-source characteristic score matrix: for every characteristic QEF,
  the normalized value and weighting cardinality of each source that
  reports it.

Selections are represented as boolean masks over the id vector.  The
kernels reproduce the scalar QEFs *bit for bit*: every float operation that
could be ordering- or rounding-sensitive (the PCSA transcendental tail, the
redundancy/coverage ratios, aggregator folds) runs per candidate in the
same Python-float arithmetic as the scalar path, while the bulk work — the
signature unions, the lowest-zero means, the cardinality sums (exact
integer arithmetic) — is vectorized.  The property test in
``tests/quality/test_batch_eval.py`` enforces the equivalence.

Vectorization is best-effort per QEF: exact-counting data metrics,
subclassed QEFs and custom QEFs are simply not claimed by
:attr:`EvalContext.vector_names`, and the objective scores them per
candidate exactly as before.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..core import CARDINALITY, COVERAGE, REDUNDANCY, Problem
from ..sketch.stacked import StackedSketches, pcsa_estimate
from ..telemetry import get_telemetry
from .base import clamp_unit
from .characteristics import CharacteristicQEF
from .data_metrics import CardinalityQEF, CoverageQEF, RedundancyQEF


class EvalContext:
    """Columnar state for batch-scoring selections of one universe.

    Build with :meth:`compile`; score with :meth:`score_batch`.  The
    context only claims the QEF names in :attr:`vector_names`; everything
    else stays on the scalar per-candidate path.
    """

    __slots__ = (
        "ids",
        "index_of",
        "coop_mask",
        "cards",
        "stacked",
        "total_cardinality",
        "universe_distinct",
        "characteristics",
        "vector_names",
    )

    def __init__(
        self,
        ids: np.ndarray,
        coop_mask: np.ndarray,
        cards: np.ndarray,
        stacked: StackedSketches | None,
        total_cardinality: int,
        universe_distinct: float,
        characteristics: dict[str, tuple[CharacteristicQEF, list]],
        vector_names: frozenset[str],
    ):
        self.ids = ids
        self.index_of = {int(sid): i for i, sid in enumerate(ids.tolist())}
        self.coop_mask = coop_mask
        self.cards = cards
        self.stacked = stacked
        self.total_cardinality = total_cardinality
        self.universe_distinct = universe_distinct
        self.characteristics = characteristics
        self.vector_names = vector_names

    def __getstate__(self) -> dict:
        """Pickle every slot except the derived id→row index."""
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "index_of"
        }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self.index_of = {
            int(sid): i for i, sid in enumerate(self.ids.tolist())
        }

    @classmethod
    def compile(cls, problem: Problem, qefs: dict) -> "EvalContext":
        """Compile the universe's per-source state for the given QEFs.

        ``qefs`` is the objective's name→QEF mapping; only stock
        :class:`CardinalityQEF` / :class:`CoverageQEF` /
        :class:`RedundancyQEF` (estimated, not exact) and stock
        :class:`CharacteristicQEF` instances are vectorized.
        """
        with get_telemetry().span("quality.compile"):
            return cls._compile(problem, qefs)

    @classmethod
    def patched(
        cls, problem: Problem, qefs: dict, previous: "EvalContext"
    ) -> "EvalContext":
        """Recompile for an edited problem, splicing unchanged sketch rows.

        The expensive part of a compile — reading every source's PCSA
        words into the stacked matrix — is skipped for sources that were
        already rows of ``previous``: their word rows are copied over
        (:meth:`~repro.sketch.StackedSketches.respliced`), and only
        sources added since then contribute fresh sketch reads.  Every
        scalar (cardinality totals, the universe-distinct denominator,
        characteristic normalization) is recomputed from the supplied
        QEFs by the very same code as :meth:`compile`, because a universe
        edit can shift all of them (a new source can extend a
        characteristic's range, changing every normalized value).  The
        result is therefore bit-identical to a cold compile of the same
        problem.

        Callers must ensure that a source id present in both universes
        refers to the *same* source — the session's delta planner falls
        back to a cold compile when an id is rebound.
        """
        with get_telemetry().span("quality.compile"):
            universe = problem.universe
            sources = universe.select(universe.source_ids)
            stacked: StackedSketches | None = None
            if previous.stacked is not None:
                index_of = previous.index_of
                entries: list[int | object | None] = []
                for source in sources:
                    row = index_of.get(source.source_id)
                    if row is not None:
                        entries.append(row)
                    elif source.is_cooperative:
                        entries.append(source.sketch)
                    else:
                        entries.append(None)
                stacked = previous.stacked.respliced(entries)
            return cls._compile(problem, qefs, stacked=stacked)

    @classmethod
    def _compile(
        cls,
        problem: Problem,
        qefs: dict,
        stacked: StackedSketches | None = None,
    ) -> "EvalContext":
        universe = problem.universe
        sources = universe.select(universe.source_ids)
        ids = np.array([s.source_id for s in sources], dtype=np.int64)
        coop_mask = np.array([s.is_cooperative for s in sources], dtype=bool)
        cards = np.array(
            [
                s.cardinality if s.is_cooperative else 0
                for s in sources
            ],
            dtype=np.int64,
        )

        vector_names: set[str] = set()
        total_cardinality = 0
        universe_distinct = 0.0
        cardinality_qef = qefs.get(CARDINALITY)
        if type(cardinality_qef) is CardinalityQEF:
            total_cardinality = cardinality_qef.total
            vector_names.add(CARDINALITY)

        if stacked is None:
            stacked = StackedSketches.from_sketches(
                [s.sketch if s.is_cooperative else None for s in sources]
            )
        if stacked is not None:
            coverage_qef = qefs.get(COVERAGE)
            if type(coverage_qef) is CoverageQEF and not coverage_qef.exact:
                universe_distinct = coverage_qef.universe_distinct
                vector_names.add(COVERAGE)
            redundancy_qef = qefs.get(REDUNDANCY)
            if (
                type(redundancy_qef) is RedundancyQEF
                and not redundancy_qef.exact
            ):
                vector_names.add(REDUNDANCY)

        characteristics: dict[str, tuple[CharacteristicQEF, list]] = {}
        for name, qef in qefs.items():
            if type(qef) is not CharacteristicQEF:
                continue
            key = qef.spec.characteristic
            pairs: list[tuple[float, int] | None] = [
                (
                    (qef.normalized(s.characteristics[key]), s.cardinality or 0)
                    if key in s.characteristics
                    else None
                )
                for s in sources
            ]
            characteristics[name] = (qef, pairs)
            vector_names.add(name)

        return cls(
            ids=ids,
            coop_mask=coop_mask,
            cards=cards,
            stacked=stacked,
            total_cardinality=total_cardinality,
            universe_distinct=universe_distinct,
            characteristics=characteristics,
            vector_names=frozenset(vector_names),
        )

    # -- scoring -------------------------------------------------------------

    def masks(self, selections: Sequence[Iterable[int]]) -> np.ndarray:
        """Boolean selection masks, one row per selection."""
        batch = len(selections)
        masks = np.zeros((batch, len(self.ids)), dtype=bool)
        index_of = self.index_of
        for row, selection in enumerate(selections):
            for sid in selection:
                masks[row, index_of[sid]] = True
        return masks

    def score_batch(
        self,
        selections: Sequence[frozenset[int]],
        names: Iterable[str],
    ) -> dict[str, list[float]]:
        """Score the requested vectorizable QEFs for a batch of selections.

        Returns name → per-candidate values, for ``names ∩ vector_names``
        only; every value is bit-identical to the corresponding scalar QEF
        call on ``universe.select(selection)``.
        """
        wanted = set(names) & self.vector_names
        if not wanted or not selections:
            return {}
        masks = self.masks(selections)
        coop = masks & self.coop_mask
        masked_cards = np.where(coop, self.cards, 0)
        totals = masked_cards.sum(axis=1)

        out: dict[str, list[float]] = {}
        if CARDINALITY in wanted:
            denominator = self.total_cardinality
            if denominator <= 0:
                out[CARDINALITY] = [0.0] * len(selections)
            else:
                out[CARDINALITY] = [
                    clamp_unit(int(total) / denominator) for total in totals
                ]

        if COVERAGE in wanted or REDUNDANCY in wanted:
            counts = coop.sum(axis=1)
            largest = masked_cards.max(axis=1)
            distinct = self._distinct_rows(coop, counts, largest, totals)
            if COVERAGE in wanted:
                denominator = self.universe_distinct
                if denominator <= 0.0:
                    out[COVERAGE] = [0.0] * len(selections)
                else:
                    out[COVERAGE] = [
                        clamp_unit(d / denominator) for d in distinct
                    ]
            if REDUNDANCY in wanted:
                out[REDUNDANCY] = self._redundancy_rows(
                    counts, totals, distinct
                )

        char_names = [n for n in wanted if n in self.characteristics]
        if char_names:
            sorted_rows = [
                np.nonzero(masks[row])[0].tolist()
                for row in range(len(selections))
            ]
            for name in char_names:
                qef, pairs_by_index = self.characteristics[name]
                out[name] = self._characteristic_rows(
                    qef, pairs_by_index, sorted_rows
                )
        return out

    # -- kernels -------------------------------------------------------------

    def _distinct_rows(self, coop, counts, largest, totals) -> list[float]:
        """``D(S)`` per candidate — the scalar ``estimated_distinct``.

        One batched OR-reduction replaces the per-selection sketch list;
        the clamp to [largest single source, cardinality sum] runs in
        Python floats like the scalar path.
        """
        union_words = self.stacked.union_rows(coop)
        means = self.stacked.mean_rho(union_words)
        num_maps = self.stacked.num_maps
        distinct: list[float] = []
        for row in range(len(means)):
            if int(counts[row]) == 0:
                distinct.append(0.0)
                continue
            estimate = pcsa_estimate(float(means[row]), num_maps)
            lower = float(int(largest[row]))
            upper = float(int(totals[row]))
            distinct.append(min(max(estimate, lower), upper))
        return distinct

    @staticmethod
    def _redundancy_rows(counts, totals, distinct) -> list[float]:
        """F4 per candidate, mirroring :class:`RedundancyQEF` exactly."""
        values: list[float] = []
        for row in range(len(counts)):
            n_coop = int(counts[row])
            if n_coop <= 1:
                values.append(1.0)
                continue
            total = int(totals[row])
            if total <= 0:
                values.append(1.0)
                continue
            overlap = (total - distinct[row]) / total
            worst = (n_coop - 1) / n_coop
            values.append(clamp_unit(1.0 - overlap / worst))
        return values

    @staticmethod
    def _characteristic_rows(qef, pairs_by_index, sorted_rows) -> list[float]:
        """A characteristic QEF per candidate, from the precompiled matrix.

        The aggregator folds the same (normalized value, cardinality)
        pairs in the same ascending-id order as the scalar call, so the
        float accumulation is identical.
        """
        aggregate = qef.aggregate
        values: list[float] = []
        for indexes in sorted_rows:
            pairs = [
                pair
                for index in indexes
                if (pair := pairs_by_index[index]) is not None
            ]
            if not pairs:
                values.append(0.0)
            else:
                values.append(clamp_unit(aggregate(pairs)))
        return values

    def nbytes(self) -> int:
        """Approximate size of the compiled columnar state in bytes."""
        total = int(self.ids.nbytes + self.coop_mask.nbytes + self.cards.nbytes)
        if self.stacked is not None:
            total += self.stacked.nbytes()
        return total

    def __repr__(self) -> str:
        return (
            f"EvalContext(sources={len(self.ids)}, "
            f"vector_names={sorted(self.vector_names)})"
        )
