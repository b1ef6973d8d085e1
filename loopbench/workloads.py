"""The four loop-turn workloads.

Each workload is a closed loop run from this process: a client issues
its next turn only when the previous one has finished.  A workload
function takes the load shape, the seed, the measured duration and an
optional :class:`~tracing.Tracer`, and returns a :class:`~bench.RunLog`.
Inputs are generated from the seed before anything is timed; the
correctness oracle runs after the measured loop, and every wrong,
failed or refused answer counts as a failed turn.

A *turn* is one cold solve, one edit plus re-solve, one session
edit-and-solve round trip, or one job from submit to fetched result.  A
*request* is one call the client makes into the program: an HTTP request
on the HTTP workloads, a library call (session construction, an edit
method, ``solve``) on the library workloads.
"""

from __future__ import annotations

import json
import random
import threading
import time
from contextlib import contextmanager, nullcontext

from bench import (
    Answer,
    Client,
    ColdReference,
    RunLog,
    Scale,
    books_universes,
    optimizer_config,
    peak_rss_mb,
    spare_sources,
)
from tracing import TURN_LAYER

#: Per workload, the layer metrics each end-to-end metric should move, and
#: those a change must leave alone here (why each workload was chosen is
#: its ``why`` in BENCHMARK.json).
MOVES = {
    "cold_solve": {
        "turn_p50_s": [
            "matching.match_s (most)",
            "search.optimize_s",
            "quality.score_s (small share)",
        ],
        "setup_s": ["similarity.build_s", "quality.compile_s"],
        "unchanged": ["serve.*", "search.parallel.*", "explain.*"],
    },
    "edit_loop": {
        "turn_p50_s": [
            "matching.match_s",
            "quality.evaluate_calls",
            "quality.memo_hit_ratio",
            "session.solve_s",
            "session.plan_s",
            "quality.compile_s (add/remove turns)",
            "similarity.build_s (add-source turns)",
        ],
        "setup_s": ["similarity.build_s", "quality.compile_s"],
        "unchanged": ["serve.*", "search.parallel.*", "explain.*"],
    },
    "serve_loop": {
        "request_p50_s": ["serve.transport_s", "serve.dispatch_s"],
        "turn_p50_s": ["serve.transport_s", "session.solve_s"],
        "setup_s": ["similarity.build_s", "quality.compile_s"],
        "unchanged": ["matching.* on request_p50_s", "search.parallel.*"],
    },
    "portfolio_job": {
        "turn_p50_s": [
            "search.parallel.solve_s",
            "search.parallel.overhead_s",
            "serve.job_run_s",
            "serve.job_queue_wait_s",
            "explain.build_s",
        ],
        "request_p50_s": ["serve.transport_s"],
        "setup_s": ["similarity.build_s", "quality.compile_s"],
        "unchanged": ["search.* outside search.parallel (runs in workers)"],
    },
}


@contextmanager
def turn_span(tracer, turn):
    """The benchmark's own root span for one turn (traced runs only)."""
    if tracer is None:
        yield
        return
    with tracer.span("turn", TURN_LAYER, turn=turn, parent=None):
        yield


@contextmanager
def job_ambient(tracer):
    """Parent the job runner thread's spans to the current turn."""
    if tracer is None:
        yield
        return
    tracer.ambient = tracer.current()
    try:
        yield
    finally:
        tracer.ambient = None


def maybe_span(tracer, name: str, layer: str):
    return nullcontext() if tracer is None else tracer.span(name, layer)


class Loop:
    """Closed-loop timing: run turns until ``seconds`` have passed and at
    least ``min_turns`` turns and ``min_requests`` requests are done.

    The minimums fix the tail percentile a workload can report (see
    :func:`bench.tail_level`) and make every run finish at least one
    pass through its script.
    """

    def __init__(self, seconds: float, min_turns: int, min_requests: int = 0):
        self.seconds = seconds
        self.min_turns = min_turns
        self.min_requests = min_requests
        self.started = time.perf_counter()

    def more(self, turns_done: int, requests_done: int = 0) -> bool:
        if turns_done < self.min_turns or requests_done < self.min_requests:
            return True
        return time.perf_counter() - self.started < self.seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def timed(requests: list, call, *args, **kwargs):
    """Call into the program and record the call as one request."""
    started = time.perf_counter()
    result = call(*args, **kwargs)
    requests.append(time.perf_counter() - started)
    return result


def verify(log: RunLog, step, got: Answer | None, want: Answer) -> None:
    """Count one checked answer; a missing or differing one fails."""
    log.attempted += 1
    if got is None:
        log.fail(f"{step}: no answer")
    elif got != want:
        log.fail(
            f"{step}: answer differs from the reference: got {got.selected} "
            f"objective {got.objective}, want {want.selected} objective "
            f"{want.objective}"
        )


# -- cold_solve ------------------------------------------------------------------


def cold_solve(scale: Scale, seed: int, seconds: float, tracer=None,
               reference=None) -> RunLog:
    from repro.session import Session

    log = RunLog()
    # Each turn solves one of many seeded universes, so a run's median
    # spans universes instead of resting on one.
    universes = books_universes(scale, seed, scale.cold_universes)
    problems = [
        (k, optimizer_config(scale.cold_iterations, seed * 100 + k))
        for k in range(len(universes))
    ]

    def session_for(k, config):
        return Session(
            universes[k],
            max_sources=scale.max_sources,
            theta=scale.theta,
            beta=scale.beta,
            optimizer_config=config,
        )

    # Program set-up: the similarity build behind each universe's
    # first session.
    for _ in range(scale.setup_repeats):
        with log.setup():
            for k, config in problems:
                session_for(k, config)

    reference = reference or ColdReference()
    expected = [
        reference.solve(session_for(k, config).problem(), None, config)
        for k, config in problems
    ]

    answers = []
    log.min_turns = log.min_requests = max(scale.cold_min_turns, len(problems))
    loop = Loop(seconds, log.min_turns)
    while loop.more(len(log.turn_seconds)):
        turn = len(log.turn_seconds)
        p = turn % len(problems)
        started = time.perf_counter()
        with turn_span(tracer, turn):
            session = session_for(*problems[p])
            iteration = timed(log.request_seconds, session.solve)
        log.turn_seconds.append(time.perf_counter() - started)
        answers.append((p, Answer.of(iteration.solution)))
    log.wall_seconds = loop.elapsed()
    log.peak_rss_mb = peak_rss_mb()

    for turn, (p, answer) in enumerate(answers):
        verify(log, f"turn {turn} (problem {p})", answer, expected[p])
    log.qualities = [answer.quality for answer in expected]
    return log


# -- edit_loop -------------------------------------------------------------------


def edit_script(universe, spares, rng: random.Random, scale: Scale):
    """One cycle of edits, one per invalidation-matrix row and back.

    Returns ``(kind, edit)`` pairs; ``edit(session, cycle)`` applies the
    step to a :class:`~repro.session.Session`.  The cycle restores the
    starting problem, with a different spare source added each time.
    """
    from repro.core import CharacteristicSpec, default_weights

    ids = sorted(universe.source_ids)
    pinned, left, right = rng.sample(ids, 3)
    left_attr = rng.randrange(len(universe.source(left).schema))
    right_attr = rng.randrange(len(universe.source(right).schema))
    emphasis = rng.choice((0.3, 0.4, 0.5))
    theta = rng.choice((scale.theta - 0.05, scale.theta + 0.05))
    mttf = CharacteristicSpec("mttf", "mttf")
    start_weights = default_weights(())

    def spare(cycle):
        return spares[cycle % len(spares)]

    def reset(session, cycle):
        session.set_theta(scale.theta)
        session.set_beta(scale.beta)
        session.set_max_sources(scale.max_sources)
        session.set_weights(start_weights)

    return [
        ("weights", lambda s, c: s.emphasize("coverage", emphasis)),
        ("theta", lambda s, c: s.set_theta(theta)),
        ("pin", lambda s, c: s.require_source(pinned)),
        ("add_source", lambda s, c: s.add_source(spare(c))),
        ("beta", lambda s, c: s.set_beta(scale.beta + 1)),
        ("add_qef", lambda s, c: s.add_characteristic_qef(mttf, 0.2)),
        ("max_sources", lambda s, c: s.set_max_sources(scale.max_sources - 2)),
        ("reset_beta", lambda s, c: s.set_beta(scale.beta)),
        (
            "require_match",
            lambda s, c: s.require_match(
                [(left, left_attr), (right, right_attr)]
            ),
        ),
        ("unpin", lambda s, c: s.release_source(pinned)),
        ("drop_match", lambda s, c: s.drop_ga_constraint(s.ga_constraints[0])),
        ("remove_source", lambda s, c: s.remove_source(spare(c).source_id)),
        ("remove_qef", lambda s, c: s.remove_characteristic_qef("mttf")),
        ("reset", reset),
    ]


def edit_loop(scale: Scale, seed: int, seconds: float, tracer=None,
              reference=None) -> RunLog:
    from repro.session import Session

    log = RunLog()
    universe = books_universes(scale, seed, 1)[0]
    spares = spare_sources(scale, seed, first_id=1_000_000)
    script = edit_script(universe, spares, random.Random(seed), scale)
    config = optimizer_config(scale.edit_iterations, seed)

    def new_session(record_runs=True):
        return Session(
            universe,
            max_sources=scale.max_sources,
            theta=scale.theta,
            beta=scale.beta,
            optimizer_config=config,
            record_runs=record_runs,
        )

    # Program set-up: a session and its first (cold) solve, which warms
    # the memos the loop then retargets.
    for _ in range(scale.edit_setup_repeats):
        with log.setup():
            session = new_session()
            first = session.solve()

    answers = [("initial", None, Answer.of(first.solution))]
    log.min_turns = log.min_requests = max(scale.edit_min_turns, len(script))
    loop = Loop(seconds, log.min_turns)
    while loop.more(len(log.turn_seconds)):
        turn = len(log.turn_seconds)
        cycle, position = divmod(turn, len(script))
        kind, edit = script[position]
        started = time.perf_counter()
        with turn_span(tracer, turn):
            edit(session, cycle)
            iteration = timed(log.request_seconds, session.solve)
        log.turn_seconds.append(time.perf_counter() - started)
        answers.append((kind, cycle, Answer.of(iteration.solution)))
    log.wall_seconds = loop.elapsed()
    log.peak_rss_mb = peak_rss_mb()

    # Oracle: a shadow session that never solves replays the same edits
    # to pose each problem; each answer must equal a cold solve of that
    # problem warm-started from the previous reference answer.
    reference = reference or ColdReference()
    shadow = new_session(record_runs=False)
    previous = None
    for turn, (kind, cycle, answer) in enumerate(answers):
        if turn:
            script[(turn - 1) % len(script)][1](shadow, cycle)
        want = reference.solve(shadow.problem(), previous, config)
        verify(log, f"turn {turn} ({kind})", answer, want)
        previous = want.selected
    log.qualities = [a.quality for _, _, a in answers[1 : log.min_turns + 1]]
    return log


# -- the HTTP workloads ----------------------------------------------------------


class Service:
    """The resident service on loopback plus its keep-alive clients."""

    def __init__(self, scale: Scale, universes: dict, job_dir, clients: int,
                 tracer=None):
        from repro.serve import ResidentUniverse, ServeApp
        from repro.serve.app import start_background

        resident = {
            name: ResidentUniverse(
                name,
                universe,
                theta=scale.theta,
                beta=scale.beta,
                max_sources=scale.max_sources,
            )
            for name, universe in universes.items()
        }
        self.app = ServeApp(resident, job_dir=str(job_dir))
        self.app.start()
        self.server, self.thread = start_background(self.app)
        host, port = self.server.server_address[:2]
        self.clients = [Client(host, port, tracer) for _ in range(clients)]
        for client in self.clients:
            client.conn.connect()

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()
        self.app.close()


def start_service(log: RunLog, scale, universes, job_dir, clients, tracer):
    """Set the service up ``setup_repeats`` times; keep the last one."""
    service = None
    for repeat in range(scale.setup_repeats):
        if service is not None:
            service.close()
        with log.setup():
            service = Service(
                scale, universes, job_dir / f"setup-{repeat}", clients, tracer
            )
    return service


def serve_script(universe, rng: random.Random, scale: Scale):
    """One client's edit cycle, as JSON edit lists; it restores the start."""
    from repro.core import default_weights

    pinned = rng.choice(sorted(universe.source_ids))
    emphasis = rng.choice((0.3, 0.4, 0.5))
    theta = rng.choice((scale.theta - 0.05, scale.theta + 0.05))
    return [
        [{"op": "emphasize", "qef": "coverage", "weight": emphasis}],
        [{"op": "set_theta", "theta": theta}],
        [{"op": "require_source", "source": pinned}],
        [{"op": "set_max_sources", "max_sources": scale.max_sources - 2}],
        [
            {"op": "release_source", "source": pinned},
            {"op": "set_max_sources", "max_sources": scale.max_sources},
        ],
        [
            {"op": "set_theta", "theta": scale.theta},
            {"op": "set_weights", "weights": default_weights(())},
        ],
    ]


#: The library call behind each JSON edit op the scripts use — the
#: oracle replays scripts through these, not through the service.
LIBRARY_EDITS = {
    "emphasize": lambda s, e: s.emphasize(e["qef"], e["weight"]),
    "set_theta": lambda s, e: s.set_theta(e["theta"]),
    "require_source": lambda s, e: s.require_source(e["source"]),
    "release_source": lambda s, e: s.release_source(e["source"]),
    "set_max_sources": lambda s, e: s.set_max_sources(e["max_sources"]),
    "set_weights": lambda s, e: s.set_weights(e["weights"]),
}


def serve_loop(scale: Scale, seed: int, seconds: float, tracer=None,
               reference=None, scratch=None) -> RunLog:
    from repro.search import OptimizerConfig
    from repro.session import Session

    assert scale.serve_iterations <= OptimizerConfig().patience
    log = RunLog()
    # The run is split into phases, one per resident universe; in each,
    # both clients' sessions share that universe.  Spanning universes
    # keeps a run's median from resting on one universe's solve cost.
    universes = books_universes(scale, seed, scale.serve_universes)
    names = [f"books:{seed}:{j}" for j in range(len(universes))]
    scripts = [
        serve_script(universes[0], random.Random(seed * 100 + k), scale)
        for k in range(scale.serve_clients)
    ]
    service = start_service(
        log, scale, dict(zip(names, universes)), scratch / "jobs",
        scale.serve_clients, tracer,
    )
    per_phase = max(
        -(-scale.serve_min_turns // len(universes)), len(scripts[0])
    )
    log.min_turns = per_phase * len(universes) * scale.serve_clients
    log.min_requests = 3 * log.min_turns
    results: dict[int, dict] = {}
    barrier = threading.Barrier(scale.serve_clients)

    def client_main(k: int) -> None:
        out = results[k] = {
            "phases": [], "turns": [], "requests": [], "bytes": [],
            "errors": [], "fatal": None,
        }
        try:
            for phase, name in enumerate(names):
                out["phases"].append([])
                run_session(k, phase, name, service.clients[k], out)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            out["fatal"] = f"client {k}: {type(exc).__name__}: {exc}"
            barrier.abort()

    def run_session(k: int, phase: int, name: str, client: Client,
                    out: dict) -> None:
        """One session on one universe: create, edit and solve, delete."""
        status, created = client.request(
            "POST",
            "/sessions",
            {
                "universe": name,
                "seed": seed * 10 + k,
                "iterations": scale.serve_iterations,
                "client": k,
            },
        )
        if status != 201:
            raise RuntimeError(f"POST /sessions returned {status}")
        sid = created["session_id"]
        barrier.wait(timeout=60)
        first = len(client.latencies)
        loop = Loop(seconds / len(names), per_phase)
        out.setdefault("started", loop.started)
        answers = out["phases"][phase]
        while loop.more(len(answers)):
            edits = scripts[k][len(answers) % len(scripts[k])]
            started = time.perf_counter()
            with turn_span(tracer, (k, phase, len(answers))):
                s1, _ = client.request(
                    "POST", f"/sessions/{sid}/edits", {"edits": edits}
                )
                s2, solved = client.request("POST", f"/sessions/{sid}/solve", {})
                s3, _ = client.request("GET", f"/sessions/{sid}")
            out["turns"].append(time.perf_counter() - started)
            ok = (s1, s2, s3) == (200, 200, 200)
            answers.append(Answer.of_payload(solved) if ok else None)
            if not ok:
                out["errors"].append(
                    f"client {k} universe {phase} turn {len(answers) - 1}: "
                    f"statuses {(s1, s2, s3)}, solve said {solved}"
                )
        out["ended"] = time.perf_counter()
        out["requests"].extend(client.latencies[first:])
        out["bytes"].extend(client.payload_bytes[first:])
        client.request("DELETE", f"/sessions/{sid}")

    threads = [
        threading.Thread(target=client_main, args=(k,), name=f"client-{k}")
        for k in range(scale.serve_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    log.peak_rss_mb = peak_rss_mb()
    service.close()

    outs = [results[k] for k in range(scale.serve_clients)]
    if all("ended" in out for out in outs):
        log.wall_seconds = max(out["ended"] for out in outs) - min(
            out["started"] for out in outs
        )
    log.extra["payload_bytes"] = [n for out in outs for n in out["bytes"]]

    # Oracle: per client and universe, a shadow session replays the
    # script to pose each problem, and each answer must equal a cold
    # solve of it warm-started from the previous reference answer.
    reference = reference or ColdReference()
    for k, out in enumerate(outs):
        log.turn_seconds.extend(out["turns"])
        log.request_seconds.extend(out["requests"])
        if out["fatal"] is not None:
            log.attempted += 1
            log.fail(out["fatal"])
        log.failures.extend(out["errors"][:5])
        config = OptimizerConfig(
            max_iterations=scale.serve_iterations, seed=seed * 10 + k
        )
        for phase, answers in enumerate(out["phases"]):
            shadow = Session(
                universes[phase],
                max_sources=scale.max_sources,
                theta=scale.theta,
                beta=scale.beta,
                record_runs=False,
            )
            previous = None
            for turn, answer in enumerate(answers):
                for edit in scripts[k][turn % len(scripts[k])]:
                    LIBRARY_EDITS[edit["op"]](shadow, edit)
                want = reference.solve(shadow.problem(), previous, config)
                verify(log, f"client {k} universe {phase} turn {turn}",
                       answer, want)
                previous = want.selected
            log.qualities.extend(a.quality for a in answers[:per_phase] if a)
    return log


def job_body(scale: Scale, seed: int, k: int) -> dict:
    return {
        "universe": f"books:{seed}:{k}",
        "jobs": scale.job_workers,
        "portfolio": f"tabu:{scale.job_workers}",
        "iterations": scale.job_iterations,
        "seed": seed * 10 + k,
        "explain": True,
    }


def portfolio_job(scale: Scale, seed: int, seconds: float, tracer=None,
                  reference=None, scratch=None) -> RunLog:
    from repro.search import OptimizerConfig
    from repro.session import Session

    assert scale.job_iterations <= OptimizerConfig().patience
    log = RunLog()
    # Several resident universes, one job spec each: the jobs' median
    # spans universes instead of resting on one.
    universes = books_universes(scale, seed, scale.job_universes)
    service = start_service(
        log,
        scale,
        {f"books:{seed}:{k}": u for k, u in enumerate(universes)},
        scratch / "jobs",
        1,
        tracer,
    )
    client = service.clients[0]
    answers = []
    timings = {"queue_wait": [], "run": []}
    log.min_turns = max(scale.job_min_turns, scale.job_universes)
    log.min_requests = scale.job_min_requests
    loop = Loop(seconds, log.min_turns, log.min_requests)
    try:
        while loop.more(len(log.turn_seconds), len(client.latencies)):
            turn = len(log.turn_seconds)
            k = turn % scale.job_universes
            started = time.perf_counter()
            with turn_span(tracer, turn), job_ambient(tracer):
                answer, described = run_job(
                    client, job_body(scale, seed, k), scale.poll_interval_s,
                    tracer,
                )
            log.turn_seconds.append(time.perf_counter() - started)
            answers.append((k, answer))
            if described is not None and described.get("started_at"):
                timings["queue_wait"].append(
                    described["started_at"] - described["submitted_at"]
                )
                timings["run"].append(
                    described["finished_at"] - described["started_at"]
                )
        log.wall_seconds = loop.elapsed()
        log.peak_rss_mb = peak_rss_mb()
    finally:
        service.close()
    log.request_seconds.extend(client.latencies)
    log.extra["payload_bytes"] = list(client.payload_bytes)
    log.extra["job_queue_wait_s"] = timings["queue_wait"]
    log.extra["job_run_s"] = timings["run"]

    # Oracle: the library's own portfolio solve of the same job.
    reference = reference or ColdReference()

    def library_portfolio(k, body):
        session = Session(
            universes[k],
            max_sources=scale.max_sources,
            theta=scale.theta,
            beta=scale.beta,
            optimizer_config=OptimizerConfig(
                max_iterations=body["iterations"], seed=body["seed"]
            ),
            record_runs=False,
        )
        iteration = session.solve(
            jobs=body["jobs"], portfolio=body["portfolio"]
        )
        return Answer.of(iteration.solution)

    expected = {}
    for k in sorted({k for k, _ in answers}):
        body = job_body(scale, seed, k)
        expected[k] = reference.memo(
            ("portfolio", json.dumps(body, sort_keys=True)),
            lambda: library_portfolio(k, body),
        )
    for turn, (k, answer) in enumerate(answers):
        verify(log, f"job {turn} (spec {k})", answer, expected[k])
    log.qualities = [a.quality for _, a in answers[: log.min_turns] if a]
    return log


#: A job not done this long after submission counts as failed.
JOB_TIMEOUT_S = 120.0


def run_job(client: Client, body: dict, interval: float, tracer):
    """Submit one job, poll it to completion, fetch result + explanation."""
    status, submitted = client.request("POST", "/solve", body)
    if status != 202:
        return None, None
    described = None
    deadline = time.perf_counter() + JOB_TIMEOUT_S
    while time.perf_counter() < deadline:
        status, described = client.request("GET", submitted["poll"])
        if status != 200 or described["state"] in ("done", "failed"):
            break
        with maybe_span(tracer, "poll wait", "client"):
            time.sleep(interval)
    if described is None or status != 200 or described["state"] != "done":
        return None, described
    status, payload = client.request("GET", submitted["result"])
    if status != 200:
        return None, described
    explanation = payload.get("explanation") or {}
    answer = Answer.of_payload(payload)
    if tuple(explanation.get("selected", ())) != answer.selected:
        return None, described
    return answer, described


RUNNERS = {
    "cold_solve": cold_solve,
    "edit_loop": edit_loop,
    "serve_loop": serve_loop,
    "portfolio_job": portfolio_job,
}
