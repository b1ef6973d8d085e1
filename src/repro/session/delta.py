"""Edit-aware invalidation planning for delta re-solves (docs/incremental.md).

µBE is interactive: pin a source, accept a GA, reweight, solve again.  Each
:meth:`~repro.session.Session.solve` therefore poses a problem *close* to
the previous one, and most of the expensive compiled state — the similarity
matrix, the match-operator memo, the columnar
:class:`~repro.quality.compiled.EvalContext`, the objective's selection
memo — is still exactly right.  This module decides which layers those are.

Two pieces:

* :class:`EditJournal` — the session-scoped record of edits made since the
  last solve.  Every mutator on :class:`~repro.session.Session` appends an
  :class:`Edit`; the journal is cleared once a solve has brought the
  compiled state back in sync.  The journal is observability (it feeds the
  ``session.delta.edit.*`` counters and the plan's provenance); it is *not*
  the source of truth for invalidation.
* :func:`plan_delta` — the invalidation planner.  It diffs the previous
  solve's :class:`~repro.core.Problem` against the next one field by field,
  so it stays correct even when state is mutated directly instead of
  through the journaling mutators, and emits a :class:`DeltaPlan` naming,
  per layer, the cheapest *still bit-identical* action: reuse, patch, or
  rebuild.

The invalidation matrix the planner implements (rows are edit kinds, cells
the action per cached layer):

==================  ==========  ================  ===========  ============
edit                similarity  match operator    EvalContext  Q(S) memo
==================  ==========  ================  ===========  ============
weights only        reuse       reuse (memo too)  reuse        keep
θ or β              reuse       rebuild           reuse        keep
source constraints  reuse       reuse (memo too)  reuse        keep
GA constraints      reuse       rebuild           reuse        keep
max_sources         reuse       reuse (memo too)  reuse        keep
add source          extend      keep memo         patch rows   drop
remove source       reuse       prune memo        patch rows   drop
add/remove QEF      reuse       reuse (memo too)  patch        drop
==================  ==========  ================  ===========  ============

No cell rewrites a memo: each memo holds only what its value depends on.
The match memo keeps each selection's *ungated* clustering (θ, β, G, the
selected sources) and applies ``C`` at lookup; the ``Q(S)`` memo keeps
each selection's QEF values ``F2…Fn`` (the selected sources, the universe
and the QEF set) and weighs them, with ``F1`` and the budget, at lookup.

Every cell is justified by a bit-identity argument local to the layer (see
``MatchOperator.match``, ``Objective._assemble``, ``retarget_universe`` and
``EvalContext.patched``) and the whole table
is enforced end to end by the hypothesis property test: random edit
sequences, delta solve ≡ cold solve, seed for seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Problem

#: The QEFs every problem carries; they can be reweighted, never removed.
STOCK_QEFS = frozenset({"matching", "cardinality", "coverage", "redundancy"})

#: Recognized :class:`Edit` kinds, in the order of the invalidation matrix.
EDIT_KINDS = (
    "weights",
    "theta",
    "beta",
    "max_sources",
    "source_constraints",
    "ga_constraints",
    "add_source",
    "remove_source",
    "add_qef",
    "remove_qef",
)


@dataclass(frozen=True, slots=True)
class Edit:
    """One recorded session edit: its kind and a human-readable detail."""

    kind: str
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.kind}({self.detail})" if self.detail else self.kind


class EditJournal:
    """The ordered record of session edits since the last solve."""

    def __init__(self):
        self._edits: list[Edit] = []

    def record(self, kind: str, detail: str = "") -> Edit:
        """Append one edit to the journal."""
        edit = Edit(kind, detail)
        self._edits.append(edit)
        return edit

    @property
    def edits(self) -> tuple[Edit, ...]:
        """The pending edits, oldest first."""
        return tuple(self._edits)

    def kinds(self) -> set[str]:
        """The distinct edit kinds currently pending."""
        return {edit.kind for edit in self._edits}

    def clear(self) -> None:
        """Forget all pending edits (the solve has absorbed them)."""
        self._edits.clear()

    def __len__(self) -> int:
        return len(self._edits)

    def __iter__(self):
        return iter(self._edits)

    def __repr__(self) -> str:
        return f"EditJournal({[str(e) for e in self._edits]})"


@dataclass(frozen=True, slots=True)
class DeltaPlan:
    """What the next solve may reuse, patch, or must rebuild.

    Attributes
    ----------
    path:
        ``"cold"`` (no previous solve, or the universe was swapped out
        from under the session), ``"noop"`` (nothing changed at all) or
        ``"delta"`` (something changed and at least one layer survives).
    context:
        ``"reuse"`` | ``"patch"`` | ``"rebuild"`` for the compiled
        :class:`~repro.quality.compiled.EvalContext`.
        The objective and its ``Q(S)`` memo survive exactly when the
        context is reused.
    operator:
        ``("rebuild",)`` (θ, β or G moved: a new operator, empty memo),
        ``("universe",)`` (re-point at the edited universe, pruning
        removed ids from the memo) or empty (reuse as is).  The source
        constraints are re-pointed on every path but a rebuild.
    added_source_ids / removed_source_ids:
        The universe diff, when any.
    edits:
        The journal entries this plan absorbed (provenance only).
    """

    path: str
    context: str
    operator: tuple[str, ...]
    added_source_ids: frozenset[int] = frozenset()
    removed_source_ids: frozenset[int] = frozenset()
    edits: tuple[Edit, ...] = ()

    def describe(self) -> str:
        """One-line summary for logs and telemetry spans."""
        operator = "+".join(self.operator) if self.operator else "reuse"
        return (
            f"path={self.path} context={self.context} operator={operator}"
        )


def _cold_plan(edits: tuple[Edit, ...]) -> DeltaPlan:
    return DeltaPlan(
        path="cold",
        context="rebuild",
        operator=("rebuild",),
        edits=edits,
    )


def plan_delta(
    previous: Problem | None,
    current: Problem,
    edits: tuple[Edit, ...] = (),
) -> DeltaPlan:
    """Classify everything changed since the last solve into a plan.

    ``previous`` is the problem the cached state was built for (None on
    the first solve); ``current`` is the problem about to be solved.  The
    plan is derived from the *problem diff*, not from ``edits``, so a
    user who mutates ``session.theta`` directly still gets a correct —
    merely less annotated — plan.
    """
    if previous is None:
        return _cold_plan(edits)

    if current.universe is previous.universe:
        added: frozenset[int] = frozenset()
        removed: frozenset[int] = frozenset()
    else:
        previous_ids = previous.universe.source_ids
        current_ids = current.universe.source_ids
        added = current_ids - previous_ids
        removed = previous_ids - current_ids
        # An id present on both sides must still be the *same* source:
        # row splicing and memo retention key on ids, so a rebound id
        # (remove source 3, add a different source 3) defeats them.
        rebound = any(
            previous.universe.source(sid) is not current.universe.source(sid)
            for sid in current_ids & previous_ids
        )
        if rebound:
            return _cold_plan(edits)

    universe_changed = bool(added or removed)
    qefs_changed = (
        current.characteristic_qefs != previous.characteristic_qefs
        or current.custom_qefs != previous.custom_qefs
    )
    shape_changed = (
        current.theta != previous.theta or current.beta != previous.beta
    )
    ga_changed = current.ga_constraints != previous.ga_constraints
    constraints_changed = (
        current.source_constraints != previous.source_constraints
    )
    weights_changed = current.weights != previous.weights
    budget_changed = current.max_sources != previous.max_sources

    # Match operator: θ/β/G shape the clustering itself — rebuild.  The
    # universe only bounds which selections exist — re-point and prune.
    if shape_changed or ga_changed:
        operator: tuple[str, ...] = ("rebuild",)
    elif universe_changed:
        operator = ("universe",)
    else:
        operator = ()

    context = "patch" if (universe_changed or qefs_changed) else "reuse"
    changed = (
        universe_changed
        or qefs_changed
        or shape_changed
        or ga_changed
        or constraints_changed
        or weights_changed
        or budget_changed
    )
    return DeltaPlan(
        path="delta" if changed else "noop",
        context=context,
        operator=operator,
        added_source_ids=frozenset(added),
        removed_source_ids=frozenset(removed),
        edits=edits,
    )
