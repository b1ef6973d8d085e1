"""The attribution engine: provenance for a finished solution.

Given a solved :class:`~repro.core.Problem` and its best
:class:`~repro.core.Solution`, :func:`explain_solution` computes three
complementary accounts of *why this answer*:

* **GA provenance** — for every GA in the mediated schema, the
  max-similarity member pair that justifies it (the pair whose
  similarity is the GA's internal quality per the paper's F1
  definition), the constraint seed it grew from (if any), and the full
  merge chain: the :class:`~repro.explain.events.PairMerged` events
  that built it, captured by replaying ``Match(S, C, G)`` on the final
  selection under a live event log;
* **source attribution** — a leave-one-out quality delta per selected
  source: ``ΔQ(s) = Q(S) − Q(S∖{s})``, re-evaluated through the same
  :class:`~repro.quality.overall.Objective` machinery the search used,
  so the deltas are exactly consistent with what a re-solve would see;
* **QEF decomposition** — ``Q(S) = Σ w_i·F_i(S)`` term by term; the
  weighted contributions reproduce the reported overall quality to
  float round-off (the invariant the property tests enforce).

Everything here runs *after* the search, reads solver state without
mutating it, and is deterministic; an explain-enabled solve returns
bit-identical solutions (see tests/explain/test_determinism.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core import GlobalAttribute, Problem, Solution, Universe
from ..matching.operator import MatchOperator
from ..quality.overall import Objective
from ..run_context import run_scope
from ..similarity.matrix import NameSimilarityMatrix
from .events import (
    AttrKey,
    DecisionEvent,
    EventLog,
    PairMerged,
    attr_key,
)


@dataclass(frozen=True, slots=True)
class QEFContribution:
    """One term of the overall quality: ``weighted = weight · score``."""

    name: str
    weight: float
    score: float
    weighted: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "weight": self.weight,
            "score": self.score,
            "weighted": self.weighted,
        }


@dataclass(frozen=True, slots=True)
class GAProvenance:
    """Why one GA exists, and how it was built.

    Attributes
    ----------
    index:
        1-based display number, matching
        :func:`repro.session.report.render_schema` ordering.
    label:
        The GA's display label (most common member name).
    members:
        Member attribute keys ``(source_id, index, name)``, sorted.
    similarity:
        The GA's internal matching quality — the similarity of the
        justifying pair (0 for singletons, which express no matching).
    justifying_pair:
        The max-similarity member pair per the F1 definition, or None
        for singletons.
    seeded_by:
        Index of the coalesced user GA-constraint seed this GA grew
        from, or None for a purely discovered GA.
    merge_chain:
        The :class:`PairMerged` events that built this GA, in merge
        order (both sides of every chained merge are subsets of the
        GA's members).
    """

    index: int
    label: str
    members: tuple[AttrKey, ...]
    similarity: float
    justifying_pair: tuple[AttrKey, AttrKey] | None
    seeded_by: int | None
    merge_chain: tuple[PairMerged, ...]

    @property
    def size(self) -> int:
        """Number of member attributes."""
        return len(self.members)

    @property
    def source_ids(self) -> tuple[int, ...]:
        """Ids of the sources contributing to this GA, sorted."""
        return tuple(sorted({m[0] for m in self.members}))

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "label": self.label,
            "members": [list(m) for m in self.members],
            "size": self.size,
            "similarity": self.similarity,
            "justifying_pair": (
                [list(p) for p in self.justifying_pair]
                if self.justifying_pair is not None
                else None
            ),
            "seeded_by": self.seeded_by,
            "merge_chain": [e.to_dict() for e in self.merge_chain],
        }


@dataclass(frozen=True, slots=True)
class SourceAttribution:
    """What one selected source contributes, by leave-one-out.

    ``quality_delta`` is ``Q(S) − Q(S∖{s})`` — positive when the source
    pulls its weight.  For constrained sources the reduced selection is
    typically infeasible; ``feasible_without`` records that, and the
    delta is still reported against the reduced selection's raw quality.
    """

    source_id: int
    name: str
    constrained: bool
    quality_delta: float
    objective_delta: float
    feasible_without: bool
    ga_count: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "source_id": self.source_id,
            "name": self.name,
            "constrained": self.constrained,
            "quality_delta": self.quality_delta,
            "objective_delta": self.objective_delta,
            "feasible_without": self.feasible_without,
            "ga_count": self.ga_count,
        }


@dataclass(frozen=True, slots=True)
class SolutionExplanation:
    """The complete provenance account of one solution."""

    selected: tuple[int, ...]
    quality: float
    objective: float
    feasible: bool
    qef_contributions: tuple[QEFContribution, ...]
    gas: tuple[GAProvenance, ...]
    sources: tuple[SourceAttribution, ...]
    match_events: tuple[DecisionEvent, ...] = ()
    search_events: tuple[DecisionEvent, ...] = ()
    notes: tuple[str, ...] = field(default=())

    def decomposition_total(self) -> float:
        """``Σ w_i·F_i`` over the contributions (should equal quality)."""
        return sum(c.weighted for c in self.qef_contributions)

    def ga(self, index: int) -> GAProvenance:
        """Provenance of the GA with the given 1-based display index."""
        for prov in self.gas:
            if prov.index == index:
                return prov
        raise KeyError(f"no GA with display index {index}")

    def source(self, source_id: int) -> SourceAttribution:
        """Attribution of one selected source."""
        for attribution in self.sources:
            if attribution.source_id == source_id:
                return attribution
        raise KeyError(f"source {source_id} is not in the selection")

    def event_counts(self) -> dict[str, int]:
        """Captured events per kind (match + search), for summaries."""
        tally: dict[str, int] = {}
        for event in (*self.match_events, *self.search_events):
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return dict(sorted(tally.items()))

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict form (the ``--format json`` payload)."""
        return {
            "selected": list(self.selected),
            "quality": self.quality,
            "objective": self.objective,
            "feasible": self.feasible,
            "decomposition_total": self.decomposition_total(),
            "qef_contributions": [
                c.to_dict() for c in self.qef_contributions
            ],
            "gas": [g.to_dict() for g in self.gas],
            "sources": [s.to_dict() for s in self.sources],
            "event_counts": self.event_counts(),
            "notes": list(self.notes),
        }


def explain_solution(
    problem: Problem,
    solution: Solution,
    objective: Objective | None = None,
    similarity: NameSimilarityMatrix | None = None,
    search_events: tuple[DecisionEvent, ...] = (),
    capacity: int = 65_536,
) -> SolutionExplanation:
    """Compute the full provenance account for a solved problem.

    Parameters
    ----------
    problem, solution:
        The problem as posed and the solution to explain (normally the
        best solution of a finished search).
    objective:
        The objective used by the search, if available — reusing it
        keeps leave-one-out evaluations on the warm memo.  A fresh one
        is built otherwise.
    similarity:
        Pre-built name-pair matrix (avoids rebuilding when the caller —
        e.g. a :class:`~repro.Session` — already has one).
    search_events:
        Decision events captured live during the solve (optional; the
        match events are always obtained by replaying the final match).
    capacity:
        Ring capacity for the replay event log.
    """
    if objective is None:
        objective = Objective(problem, similarity=similarity)
    operator = objective.match_operator
    matrix = operator.matrix

    # Replay Match(S, C, G) on the final selection under a live event
    # log.  A fresh operator guarantees a cold memo, so Algorithm 1
    # actually runs and emits its seed/merge/defer/eliminate events;
    # clustering is deterministic, so the replayed schema is the
    # solution's schema.
    replay_log = EventLog(capacity=capacity)
    replay_operator = MatchOperator.for_problem(problem, similarity=matrix)
    with run_scope(events=replay_log):
        replay_operator.match(solution.selected)
    match_events = tuple(replay_log.events())
    merges = [e for e in match_events if isinstance(e, PairMerged)]

    gas = _ga_provenance(solution, matrix, replay_operator.seeds, merges)
    sources = _source_attribution(problem, solution, objective)
    contributions = _qef_contributions(problem, solution)

    return SolutionExplanation(
        selected=tuple(sorted(solution.selected)),
        quality=solution.quality,
        objective=solution.objective,
        feasible=solution.feasible,
        qef_contributions=contributions,
        gas=gas,
        sources=sources,
        match_events=match_events,
        search_events=tuple(search_events),
    )


def ordered_gas(solution: Solution) -> tuple[GlobalAttribute, ...]:
    """The schema's GAs in display order (render_schema's ordering)."""
    if solution.schema is None:
        return ()
    return tuple(
        sorted(solution.schema, key=lambda ga: (-len(ga), ga.names()))
    )


def change_notes(
    diff,
    explanation: SolutionExplanation,
    universe: Universe,
) -> tuple[str, ...]:
    """Link a :class:`~repro.session.diff.SolutionDiff` to its causes.

    For each GA that grew between two iterations, find in the new GA's
    merge chain the merge that brought the gained attributes and name
    the bridging pair — the "GA 3 grew because constraint seed #2
    bridged title↔booktitle at sim 0.81" sentences.  Source entries and
    exits are annotated with their leave-one-out deltas.
    """
    notes: list[str] = []
    by_members = {prov.members: prov for prov in explanation.gas}

    for old, new in diff.gas_grown:
        prov = by_members.get(tuple(sorted(attr_key(a) for a in new)))
        if prov is None:
            continue
        gained = {attr_key(a) for a in new.attributes - old.attributes}
        bridge = _bridging_merge(prov.merge_chain, gained)
        gained_names = sorted({k[2] for k in gained})
        sentence = (
            f"GA {prov.index} «{prov.label}» grew by "
            f"{{{', '.join(gained_names)}}}"
        )
        if bridge is not None:
            cause = "constraint seed" if bridge.seeded else "merge"
            if bridge.seeded and prov.seeded_by is not None:
                cause = f"constraint seed #{prov.seeded_by + 1}"
            sentence += (
                f" because {cause} bridged {bridge.pair_a[2]}"
                f"↔{bridge.pair_b[2]} at sim {bridge.similarity:.2f}"
            )
        notes.append(sentence)

    for old, new in diff.gas_shrunk:
        prov = by_members.get(tuple(sorted(attr_key(a) for a in new)))
        lost = sorted(a.name for a in old.attributes - new.attributes)
        label = prov.label if prov is not None else new.display_label()
        index = f" {prov.index}" if prov is not None else ""
        notes.append(
            f"GA{index} «{label}» lost {{{', '.join(lost)}}} — its "
            "sources left the selection or no longer reach θ"
        )

    for sid in diff.sources_added:
        try:
            attribution = explanation.source(sid)
        except KeyError:
            continue
        notes.append(
            f"source {attribution.name} entered; removing it now would "
            f"cost ΔQ {attribution.quality_delta:+.4f}"
        )
    for sid in diff.sources_removed:
        notes.append(f"source {universe.source(sid).name} left the selection")
    return tuple(notes)


# -- internals ---------------------------------------------------------------


def _ga_provenance(
    solution: Solution,
    matrix: NameSimilarityMatrix,
    seeds: tuple[GlobalAttribute, ...],
    merges: list[PairMerged],
) -> tuple[GAProvenance, ...]:
    provenance = []
    for number, ga in enumerate(ordered_gas(solution), start=1):
        members = tuple(sorted(attr_key(a) for a in ga))
        member_keys = {m[:2] for m in members}
        chain = tuple(
            e
            for e in merges
            if all(k[:2] in member_keys for k in (*e.left, *e.right))
        )
        seeded_by = next(
            (
                i
                for i, seed in enumerate(seeds)
                if all(attr_key(a)[:2] in member_keys for a in seed)
            ),
            None,
        )
        pair, sim = _justifying_pair(ga, matrix)
        provenance.append(
            GAProvenance(
                index=number,
                label=ga.display_label(),
                members=members,
                similarity=sim,
                justifying_pair=pair,
                seeded_by=seeded_by,
                merge_chain=chain,
            )
        )
    return tuple(provenance)


def _justifying_pair(
    ga: GlobalAttribute, matrix: NameSimilarityMatrix
) -> tuple[tuple[AttrKey, AttrKey] | None, float]:
    """The max-similarity member pair — the F1 justification of the GA."""
    attrs = sorted(ga.attributes, key=lambda a: (a.source_id, a.index))
    if len(attrs) < 2:
        return None, 0.0
    name_ids = matrix.name_ids(a.name for a in attrs)
    block = matrix.block(name_ids, name_ids).copy()
    np.fill_diagonal(block, -np.inf)
    row, col = np.unravel_index(int(np.argmax(block)), block.shape)
    pair = tuple(
        sorted((attr_key(attrs[row]), attr_key(attrs[col])))
    )
    return (pair[0], pair[1]), float(block[row, col])


def _source_attribution(
    problem: Problem, solution: Solution, objective: Objective
) -> tuple[SourceAttribution, ...]:
    constrained = problem.effective_source_constraints
    gas = ordered_gas(solution)
    attributions = []
    for sid in sorted(solution.selected):
        reduced = solution.selected - {sid}
        alternative = objective.evaluate(reduced)
        attributions.append(
            SourceAttribution(
                source_id=sid,
                name=problem.universe.source(sid).name,
                constrained=sid in constrained,
                quality_delta=solution.quality - alternative.quality,
                objective_delta=solution.objective - alternative.objective,
                feasible_without=alternative.feasible,
                ga_count=sum(1 for ga in gas if sid in ga.source_ids),
            )
        )
    return tuple(attributions)


def _qef_contributions(
    problem: Problem, solution: Solution
) -> tuple[QEFContribution, ...]:
    contributions = []
    for name in sorted(solution.qef_scores):
        score = solution.qef_scores[name]
        weight = problem.weights.get(name, 0.0)
        contributions.append(
            QEFContribution(
                name=name,
                weight=weight,
                score=score,
                weighted=weight * score,
            )
        )
    return tuple(contributions)


def _bridging_merge(
    chain: tuple[PairMerged, ...], gained: set[AttrKey]
) -> PairMerged | None:
    """The merge that brought the gained attributes into a grown GA.

    Prefers the merge whose justifying pair crosses the old/new
    boundary (one side gained, one side retained); falls back to any
    merge touching a gained attribute, highest similarity first.
    """
    gained_keys = {k[:2] for k in gained}
    touching = [
        e
        for e in chain
        if any(k[:2] in gained_keys for k in (*e.left, *e.right))
    ]
    if not touching:
        return None
    for event in touching:
        a_gained = event.pair_a[:2] in gained_keys
        b_gained = event.pair_b[:2] in gained_keys
        if a_gained != b_gained:
            return event
    return max(touching, key=lambda e: e.similarity)
