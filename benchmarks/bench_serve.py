"""Serve-layer load benchmark: N concurrent sessions, one resident universe.

The acceptance bar for the solve service (ISSUE 10): at least 8
concurrent sessions share one resident universe with **zero re-compiles
after warmup** — verified against the ``quality.compile`` span count
and the ``session.delta.context_shared`` / ``context_rebuilt``
counters, not against wishful thinking — and two concurrent sessions
given identical edits produce solutions **bit-identical** to a solo run.

The load generator drives ``ServeApp.dispatch`` directly from N client
threads (the HTTP shim adds only socket serialization; CI's serve-smoke
job covers the socket path).  Every solve's latency is recorded;
``BENCH_serve.json``'s ``extra_info`` carries p50/p99 latency and
solves/sec, and CI asserts the invariants.
"""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro.run_context import run_scope
from repro.serve import ResidentUniverse, ServeApp
from repro.telemetry import Telemetry

from common import bench_scale, cached_workload

SCALE = bench_scale()

#: Concurrent sessions / resolve rounds / universe size per scale.  The
#: smoke floor of 8 sessions IS the acceptance criterion — never lower it.
LOAD = {
    "smoke": (8, 2, 40),
    "default": (12, 3, 100),
    "paper": (16, 4, 200),
}[SCALE.name]

SESSIONS, ROUNDS, N_SOURCES = LOAD

#: Threads 0 and 1 run *identical* edit scripts (the bit-identity
#: probe); every other thread gets a distinct one.
TWIN_SOURCE = 5

#: The span every ``EvalContext`` compile (cold or patched) opens.
COMPILE_SPAN = "quality.compile"


def compile_count(telemetry) -> int:
    return telemetry.span_summary().get(COMPILE_SPAN, {}).get("count", 0)


def script_for(thread: int) -> list[tuple[str, dict]]:
    """The per-thread edit script, one entry per resolve round."""
    source = TWIN_SOURCE if thread <= 1 else (2 + thread * 3) % N_SOURCES
    rounds = [
        [
            {"op": "require_source", "source": source},
            {"op": "set_theta", "theta": 0.66},
        ]
    ]
    for round_ in range(1, ROUNDS):
        rounds.append([{"op": "set_theta", "theta": 0.66 - 0.01 * round_}])
    return rounds


def run_client(app, thread: int, latencies: list[float]) -> list[dict]:
    """One simulated user: create a session, edit and resolve ROUNDS times."""
    status, created = app.dispatch(
        "POST",
        "/sessions",
        {"seed": 7, "iterations": SCALE.iterations + 10},
    )
    assert status == 201, created
    sid = created["session_id"]
    solutions = []
    for edits in script_for(thread):
        status, payload = app.dispatch(
            "POST", f"/sessions/{sid}/edits", {"edits": edits}
        )
        assert status == 200, payload
        started = time.perf_counter()
        status, solved = app.dispatch("POST", f"/sessions/{sid}/solve", {})
        latencies.append(time.perf_counter() - started)
        assert status == 200, solved
        solutions.append(solved["solution"])
    return solutions


def test_concurrent_sessions_share_resident_universe(benchmark, tmp_path):
    telemetry = Telemetry()
    with run_scope(telemetry=telemetry):
        # Warmup: the one and only compile the service ever performs.
        workload = cached_workload(N_SOURCES)
        resident = ResidentUniverse(
            f"books:{N_SOURCES}", workload.universe
        )
    warm_compiles = compile_count(telemetry)
    assert warm_compiles >= 1, "warmup did not compile an EvalContext"

    app = ServeApp(
        {resident.name: resident},
        job_dir=tmp_path / "jobs",
        telemetry=telemetry,
    )
    with app:
        # The solo reference for the bit-identity clause, before load.
        solo_latencies: list[float] = []
        solo = run_client(app, 0, solo_latencies)

        latencies: list[float] = []
        results: dict[int, list[dict]] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(SESSIONS)

        def client(thread: int):
            try:
                barrier.wait(timeout=60.0)
                results[thread] = run_client(app, thread, latencies)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        def load_round():
            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(SESSIONS)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return time.perf_counter() - started

        wall = benchmark.pedantic(load_round, rounds=1, iterations=1)
        assert not errors, errors

        counters = telemetry.metrics.snapshot().get("counters", {})

    # Zero re-compiles after warmup: the compile span count never moved
    # again, every cold solve adopted the resident context, and the
    # delta planner never fell back to a rebuild.
    recompiles = compile_count(telemetry) - warm_compiles
    rebuilt = counters.get("session.delta.context_rebuilt", 0)
    shared = counters.get("session.delta.context_shared", 0)
    assert recompiles == 0, f"{recompiles} compiles after warmup"
    assert rebuilt == 0, f"{rebuilt} context rebuilds under load"
    assert shared >= SESSIONS + 1  # every session's cold solve + solo

    # Two concurrent sessions with identical edits, bit-identical to
    # the solo run — selection, objective bits, QEF breakdown, schema.
    twins_identical = (
        results[0] == results[1] == solo
    )
    assert twins_identical, "concurrent twins diverged from the solo run"

    total_solves = SESSIONS * ROUNDS
    ordered = sorted(latencies)
    p50 = statistics.median(ordered)
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    info = benchmark.extra_info
    info["concurrent_sessions"] = SESSIONS
    info["rounds_per_session"] = ROUNDS
    info["universe_size"] = N_SOURCES
    info["solves"] = total_solves
    info["solves_per_sec"] = round(total_solves / wall, 3)
    info["p50_seconds"] = round(p50, 6)
    info["p99_seconds"] = round(p99, 6)
    info["solo_p50_seconds"] = round(statistics.median(solo_latencies), 6)
    info["recompiles_after_warmup"] = recompiles
    info["context_rebuilt"] = rebuilt
    info["context_shared"] = shared
    info["bit_identical"] = int(twins_identical)


def test_request_dispatch_latency(benchmark, tmp_path):
    """The constant request overhead: routing + counters + JSON payload."""
    workload = cached_workload(N_SOURCES)
    resident = ResidentUniverse(f"books:{N_SOURCES}", workload.universe)
    with ServeApp(
        {resident.name: resident}, job_dir=tmp_path / "jobs"
    ) as app:

        def health_round():
            status, payload = app.dispatch("GET", "/health")
            assert status == 200
            return payload

        payload = benchmark(health_round)
    assert payload["sessions"]["capacity"] > 0
