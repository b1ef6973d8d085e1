"""Property test: random edit sequences, delta solve ≡ cold solve.

The delta pipeline's whole contract is *bit-identity*: whatever chain of
session edits the user makes, a solve through the invalidation planner's
patched state must return exactly the solution a cold-rebuilding session
returns, seed for seed.  Hypothesis drives randomized edit sequences over
the Theater and Books universes through two sessions — one with
``delta=True``, one with ``delta=False`` — and compares every solve field
by field, with exact float equality (``==``, never ``approx``).

This file also runs inside CI's start-method matrix job, so the identity
holds under fork and spawn alike.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CharacteristicSpec, Source, Universe
from repro.search import OptimizerConfig
from repro.session import Session
from repro.workload import generate_books_universe, theater_universe

FAST = OptimizerConfig(max_iterations=12, patience=6, seed=0)

#: Extra sources an edit sequence may add (disjoint ids from both bases).
SPARE_IDS = (901, 902, 903)


def spare_source(source_id: int) -> Source:
    return Source(
        source_id=source_id,
        name=f"spare{source_id}",
        schema=("title", f"spare_attr_{source_id}"),
        cardinality=50 + source_id,
    )


def rebound_source(source_id: int) -> Source:
    """A different source under a spare id: another schema and size."""
    return Source(
        source_id=source_id,
        name=f"rebound{source_id}",
        schema=("author", f"rebound_attr_{source_id}"),
        cardinality=20 + source_id,
    )


def base_universe(name: str) -> Universe:
    if name == "theater":
        return theater_universe(seed=0)
    workload = generate_books_universe(
        n_sources=12, seed=3, with_data=False, mttf=None
    )
    return workload.universe


# Each edit is a (kind, payload) pair applied identically to both
# sessions.  Payloads are drawn small so sequences stay fast; every kind
# in the invalidation matrix is represented.
EDITS = st.sampled_from(
    [
        ("noop", None),
        ("weights", 0.3),
        ("weights", 0.6),
        ("theta", 0.55),
        ("theta", 0.8),
        ("beta", 2),
        ("beta", 3),
        ("max_sources", 3),
        ("max_sources", 4),
        ("pin", 0),
        ("pin", 1),
        ("release", 0),
        ("release", 1),
        ("add", SPARE_IDS[0]),
        ("add", SPARE_IDS[1]),
        ("add", SPARE_IDS[2]),
        # Remove, solve, then this: the id is rebound across solves, so
        # no memo may serve the removed source's entries to this one.
        ("rebind", SPARE_IDS[0]),
        ("remove", SPARE_IDS[0]),
        ("remove", SPARE_IDS[1]),
        ("qef_add", "latency_ms"),
        ("qef_remove", "latency_ms"),
    ]
)


def apply_edit(session: Session, kind: str, payload) -> None:
    """Apply one edit, skipping it when the session state disallows it."""
    if kind == "noop":
        return
    if kind == "weights":
        session.emphasize("cardinality", payload)
    elif kind == "theta":
        session.set_theta(payload)
    elif kind == "beta":
        session.set_beta(payload)
    elif kind == "max_sources":
        if payload <= len(session.universe):
            session.set_max_sources(payload)
    elif kind == "pin":
        if payload in session.universe.source_ids:
            session.require_source(payload)
    elif kind == "release":
        if payload in session.universe.source_ids:
            session.release_source(payload)
    elif kind == "add":
        if payload not in session.universe.source_ids:
            session.add_source(spare_source(payload))
    elif kind == "rebind":
        if payload not in session.universe.source_ids:
            session.add_source(rebound_source(payload))
    elif kind == "remove":
        if (
            payload in session.universe.source_ids
            and payload not in session.source_constraints
        ):
            session.remove_source(payload)
    elif kind == "qef_add":
        if all(spec.name != payload for spec in session.characteristic_qefs):
            try:
                session.universe.characteristic_range(payload)
            except Exception:
                return
            session.add_characteristic_qef(
                CharacteristicSpec(
                    name=payload,
                    characteristic=payload,
                    higher_is_better=False,
                ),
                0.2,
            )
    elif kind == "qef_remove":
        if any(spec.name == payload for spec in session.characteristic_qefs):
            session.remove_characteristic_qef(payload)
    else:  # pragma: no cover - strategy and dispatcher must stay in sync
        raise AssertionError(f"unhandled edit kind {kind}")


def assert_solutions_identical(a, b, step: int) -> None:
    assert a.selected == b.selected, f"step {step}: selections differ"
    assert a.objective == b.objective, f"step {step}: objectives differ"
    assert a.quality == b.quality, f"step {step}: qualities differ"
    assert a.feasible == b.feasible, f"step {step}: feasibility differs"
    assert dict(a.qef_scores) == dict(b.qef_scores), (
        f"step {step}: QEF scores differ"
    )
    assert a.infeasibility == b.infeasibility, (
        f"step {step}: infeasibility reasons differ"
    )


def session_pair(universe_name: str) -> tuple[Session, Session]:
    """A delta session and its cold reference over the same universe."""
    return tuple(
        Session(
            base_universe(universe_name),
            max_sources=4,
            optimizer_config=FAST,
            record_runs=False,
            delta=delta,
        )
        for delta in (True, False)
    )


def assert_sequence_matches_cold(universe_name, sequence) -> None:
    """Solve after every edit of ``sequence``; delta ≡ cold at each."""
    delta, cold = session_pair(universe_name)
    for step, (kind, payload) in enumerate(sequence, start=1):
        apply_edit(delta, kind, payload)
        apply_edit(cold, kind, payload)
        assert_solutions_identical(
            delta.solve().solution, cold.solve().solution, step=step
        )


@pytest.mark.parametrize("universe_name", ["theater", "books"])
@given(edits=st.lists(st.tuples(EDITS, st.booleans()), max_size=8))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_delta_solve_matches_cold_solve(universe_name, edits):
    """∀ edit sequences: the delta path is bit-identical to cold."""
    delta, cold = session_pair(universe_name)
    assert_solutions_identical(
        delta.solve().solution, cold.solve().solution, step=0
    )
    step = 0
    for (kind, payload), solve_now in edits:
        apply_edit(delta, kind, payload)
        apply_edit(cold, kind, payload)
        if solve_now:
            step += 1
            assert_solutions_identical(
                delta.solve().solution, cold.solve().solution, step=step
            )
    # One final solve so trailing unsolved edits are always exercised.
    assert_solutions_identical(
        delta.solve().solution, cold.solve().solution, step=step + 1
    )


@pytest.mark.parametrize("universe_name", ["theater", "books"])
def test_delta_solve_matches_cold_solve_dense_sequence(universe_name):
    """A fixed worst-case chain touching every row of the matrix."""
    assert_sequence_matches_cold(
        universe_name,
        [
            ("weights", 0.6),
            ("pin", 0),
            ("add", SPARE_IDS[0]),
            ("theta", 0.55),
            ("qef_add", "latency_ms"),
            ("remove", SPARE_IDS[0]),
            ("rebind", SPARE_IDS[0]),
            ("beta", 2),
            ("release", 0),
            ("max_sources", 3),
            ("qef_remove", "latency_ms"),
        ],
    )


@pytest.mark.parametrize("universe_name", ["theater", "books"])
def test_rebound_id_across_solves_matches_cold(universe_name):
    """Remove a source, solve, add a different one under its id.

    The planner's rebound check sees only ids present on both sides of
    one solve, so this relies on the match memo dropping the removed
    source's entries.  Pinning the id makes every selection touch it.
    """
    spare = SPARE_IDS[0]
    assert_sequence_matches_cold(
        universe_name,
        [
            ("add", spare),
            ("pin", spare),
            ("release", spare),
            ("remove", spare),
            ("rebind", spare),
            ("pin", spare),
        ],
    )
