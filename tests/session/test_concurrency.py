"""Concurrent Session access: isolation and determinism guarantees.

The solve service runs one thread per request over sessions that share
a resident universe's compiled artifacts.  These tests pin the two
properties that makes safe: distinct sessions never observe each
other's edits or decision events (isolation), and a session solved
concurrently with others produces exactly the solution it would have
produced alone (determinism — the acceptance criterion's bit-identical
clause).
"""

from __future__ import annotations

import threading

from repro.explain import NOOP_EVENTS, get_event_log
from repro.run_context import run_scope
from repro.search import OptimizerConfig
from repro.serve import ResidentUniverse

FAST = OptimizerConfig(max_iterations=20, patience=10, seed=0)

# Per-thread edit scripts: (required source, theta).  Distinct on
# purpose so any cross-contamination shows up in problem state.
SCRIPTS = [(1, 0.55), (2, 0.6), (3, 0.65), (4, 0.7)]


def run_script(session, source, theta):
    session.require_source(source)
    session.set_theta(theta)
    iteration = session.solve()
    # A second resolve rides the delta pipeline (warm path).
    session.set_theta(theta + 0.01)
    return iteration, session.solve()


class TestConcurrentSessions:
    def test_threads_never_cross_contaminate(self, theater):
        resident = ResidentUniverse("theater:0", theater)
        sessions = [
            resident.make_session(
                record_runs=False, optimizer_config=FAST
            )
            for _ in SCRIPTS
        ]
        results: dict[int, tuple] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(SCRIPTS))

        def work(index):
            try:
                barrier.wait(timeout=30.0)
                results[index] = run_script(
                    sessions[index], *SCRIPTS[index]
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(len(SCRIPTS))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors

        for index, (source, theta) in enumerate(SCRIPTS):
            problem = sessions[index].problem()
            # Each session's problem reflects exactly its own script.
            assert problem.source_constraints == frozenset({source})
            assert abs(problem.theta - (theta + 0.01)) < 1e-9
            first, second = results[index]
            assert source in first.result.solution.selected
            assert source in second.result.solution.selected

    def test_concurrent_solves_bit_identical_to_solo(self, theater):
        resident = ResidentUniverse("theater:0", theater)

        # Solo reference runs, one per script, sequentially.
        reference = {}
        for index, script in enumerate(SCRIPTS):
            session = resident.make_session(
                record_runs=False, optimizer_config=FAST
            )
            reference[index] = run_script(session, *script)

        # The same scripts, all threads racing over shared artifacts.
        sessions = [
            resident.make_session(
                record_runs=False, optimizer_config=FAST
            )
            for _ in SCRIPTS
        ]
        results: dict[int, tuple] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(SCRIPTS))

        def work(index):
            try:
                barrier.wait(timeout=30.0)
                results[index] = run_script(
                    sessions[index], *SCRIPTS[index]
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(len(SCRIPTS))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors

        for index in range(len(SCRIPTS)):
            for round_ in (0, 1):
                solo = reference[index][round_].result.solution
                raced = results[index][round_].result.solution
                # Bit-identical, not merely close: same selection, same
                # objective float, same schema, same QEF breakdown.
                assert raced.selected == solo.selected
                assert raced.objective == solo.objective
                assert raced.quality == solo.quality
                assert raced.qef_scores == solo.qef_scores
                assert raced.schema == solo.schema

    def test_shared_artifacts_stay_shared_under_concurrency(self, theater):
        resident = ResidentUniverse("theater:0", theater)
        sessions = [
            resident.make_session(
                record_runs=False, optimizer_config=FAST
            )
            for _ in range(3)
        ]
        threads = [
            threading.Thread(
                target=run_script, args=(session, *SCRIPTS[i])
            )
            for i, session in enumerate(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        # Nobody swapped out the resident artifacts for private copies.
        for session in sessions:
            assert session._matrix is resident.matrix
            assert session._shared_context is resident.eval_context

    def test_overlapped_explain_keeps_its_own_events(self, theater):
        resident = ResidentUniverse("theater:0", theater)

        def make_session():
            return resident.make_session(
                record_runs=False, optimizer_config=FAST
            )

        solo = make_session().solve(explain=True).explanation

        # Choreography: the plain solve starts while the explain solve
        # is searching, then waits inside its own search until the
        # explain solve (replay included) has returned — so it outlives
        # it.  Each solve's stop check runs on its own thread, at every
        # iteration, and never asks the search to stop.
        explain_searching = threading.Event()
        plain_started = threading.Event()
        explain_done = threading.Event()

        def explain_check():
            explain_searching.set()
            plain_started.wait(timeout=30.0)
            return False

        def plain_check():
            plain_started.set()
            explain_done.wait(timeout=30.0)
            return False

        plain_session = make_session()
        errors: list[BaseException] = []

        def plain():
            try:
                explain_searching.wait(timeout=30.0)
                with run_scope(stop_check=plain_check):
                    plain_session.solve()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=plain)
        thread.start()
        try:
            with run_scope(stop_check=explain_check):
                explained = make_session().solve(explain=True).explanation
        finally:
            explain_done.set()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert not errors, errors
        assert plain_started.is_set()

        assert explained.search_events
        assert explained.search_events == solo.search_events
        assert explained.match_events == solo.match_events
        assert get_event_log() is NOOP_EVENTS
