"""The solve service's HTTP layer: routing, payloads, and the server.

Transport design: :class:`ServeApp.dispatch` is the whole API —
``(method, path, body) → (status, json_payload)`` — with no sockets in
sight, so tests exercise every route in-process and the benchmark load
generator measures solve latency without HTTP overhead when it wants
to.  The actual server is a thin :class:`ThreadingHTTPServer` shim that
parses the request line, hands off to ``dispatch``, and writes JSON
back; stdlib only, per the no-new-hard-dependency rule.

Concurrency model, in one paragraph: every request, and the job runner
thread, runs under ``run_scope(telemetry=app.telemetry)``
(:mod:`repro.run_context`), so all of them record into the app's single
:class:`~repro.telemetry.Telemetry` while nothing is installed
process-wide — two apps in one process, or library code on other
threads, never see each other's tracer.  Sessions serialize their own
mutate/solve calls behind their internal ``RLock``; *distinct* sessions
run truly concurrently against the shared read-only compiled artifacts.
Async jobs go through
:class:`~repro.serve.state.JobManager`'s single runner thread, which
serializes access to the multiprocess pool.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Mapping
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from ..exceptions import ReproError
from ..run_context import run_scope
from ..telemetry import Telemetry
from .state import (
    Job,
    JobManager,
    ResidentUniverse,
    ServeError,
    SessionManager,
    UnknownUniverseError,
    detect_tiers,
    optimizer_config_from,
)

#: Edit operations the session endpoint accepts, mapped to the
#: :class:`~repro.session.Session` methods they drive.  Each entry is
#: ``op → (method name, required JSON fields)``; ``accept_ga`` and
#: ``drop_ga`` are handled specially because they address schema
#: objects by index rather than by value.
EDIT_OPS: dict[str, tuple[str, tuple[str, ...]]] = {
    "require_source": ("require_source", ("source",)),
    "release_source": ("release_source", ("source",)),
    "remove_source": ("remove_source", ("source",)),
    "require_match": ("require_match", ("attributes",)),
    "clear_constraints": ("clear_constraints", ()),
    "set_weights": ("set_weights", ("weights",)),
    "emphasize": ("emphasize", ("qef", "weight")),
    "set_theta": ("set_theta", ("theta",)),
    "set_beta": ("set_beta", ("beta",)),
    "set_max_sources": ("set_max_sources", ("max_sources",)),
}


# -- payload builders ---------------------------------------------------------


def schema_payload(schema) -> list[list[dict]] | None:
    """A mediated schema as JSON: one list of attribute refs per GA."""
    if schema is None:
        return None
    return [
        [
            {
                "source_id": ref.source_id,
                "index": ref.index,
                "name": ref.name,
            }
            for ref in sorted(
                ga.attributes, key=lambda r: (r.source_id, r.index)
            )
        ]
        for ga in schema.gas
    ]


def solution_payload(iteration, include_explanation: bool = False) -> dict:
    """One solve's full JSON payload: solution, stats, explanation."""
    solution = iteration.result.solution
    stats = iteration.result.stats
    payload = {
        "iteration": iteration.index,
        "solution": {
            "selected": sorted(solution.selected),
            "quality": solution.quality,
            "objective": solution.objective,
            "feasible": solution.feasible,
            "infeasibility": solution.infeasibility,
            "qef_scores": dict(solution.qef_scores),
            "schema": schema_payload(solution.schema),
        },
        "stats": {
            "iterations": stats.iterations,
            "evaluations": stats.evaluations,
            "elapsed_seconds": stats.elapsed_seconds,
            "best_found_at": stats.best_found_at,
        },
    }
    if iteration.result.portfolio is not None:
        portfolio = iteration.result.portfolio
        payload["portfolio"] = {
            "workers": len(portfolio.workers),
            "winner_index": portfolio.winner_index,
        }
    if include_explanation:
        explanation = iteration.explanation
        payload["explanation"] = (
            explanation.to_dict() if explanation is not None else None
        )
    return payload


class ServeApp:
    """The resident service: universes + sessions + jobs behind one API.

    Use as a context manager (or call :meth:`start`/:meth:`close`):
    entering starts the job runner; exiting stops it.  The app's
    telemetry is scoped to its own requests and job runner, never
    installed process-wide.
    """

    def __init__(
        self,
        universes: Mapping[str, ResidentUniverse],
        *,
        job_dir: str = ".mube/jobs",
        ttl_seconds: float = 1800.0,
        max_sessions: int = 256,
        default_jobs: int = 1,
        telemetry: Telemetry | None = None,
        tiers: Mapping[str, bool] | None = None,
    ):
        if not universes:
            raise UnknownUniverseError("the service needs >= 1 universe")
        self.universes = dict(universes)
        self.default_universe = next(iter(self.universes))
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tiers = dict(tiers) if tiers is not None else detect_tiers()
        self.sessions = SessionManager(
            ttl_seconds=ttl_seconds, max_sessions=max_sessions
        )
        self.jobs = JobManager(job_dir, self._run_job)
        self.default_jobs = default_jobs
        self.started_at = time.time()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ServeApp":
        """Start the job runner (which runs in scope)."""
        with self._scope():
            self.jobs.start()
        return self

    def close(self) -> None:
        """Stop the job runner."""
        self.jobs.close()

    def _scope(self):
        """The run scope every request and job of this app runs under."""
        return run_scope(telemetry=self.telemetry)

    def __enter__(self) -> "ServeApp":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatch -------------------------------------------------------------

    def dispatch(
        self, method: str, path: str, body: Mapping | None = None
    ) -> tuple[int, dict]:
        """Route one request; always returns ``(status, json_payload)``.

        Service refusals (:class:`ServeError`) and domain errors
        (:class:`ReproError` — bad weights, unknown sources, …) map to
        their HTTP statuses with a structured error body; anything else
        is a 500 and bumps ``serve.errors``.  A body that is not a JSON
        object is refused with 400.
        """
        with self._scope():
            metrics = self.telemetry.metrics
            metrics.counter("serve.requests").inc()
            started = time.perf_counter()
            try:
                if body is None:
                    body = {}
                elif not isinstance(body, Mapping):
                    raise ServeError(
                        "request body must be a JSON object, "
                        f"got {type(body).__name__}"
                    )
                with self.telemetry.span(
                    "serve.request", method=method, path=path
                ):
                    status, payload = self._route(method, path, body)
            except ServeError as exc:
                metrics.counter("serve.refused").inc()
                return exc.status, exc.payload()
            except ReproError as exc:
                metrics.counter("serve.refused").inc()
                return 422, {
                    "error": {
                        "code": type(exc).__name__,
                        "message": str(exc),
                    }
                }
            except Exception as exc:  # noqa: BLE001 - a 500 must not kill the thread
                metrics.counter("serve.errors").inc()
                return 500, {
                    "error": {
                        "code": "internal_error",
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                }
            finally:
                metrics.histogram("serve.request_seconds").observe(
                    time.perf_counter() - started
                )
            return status, payload

    def _route(
        self, method: str, path: str, body: Mapping
    ) -> tuple[int, dict]:
        parts = [p for p in path.split("/") if p]
        key = (method.upper(), *parts)
        if key == ("GET",):
            return 200, self._index()
        if key == ("GET", "health"):
            return 200, self._health()
        if key == ("GET", "metrics"):
            return 200, self._metrics()
        if key == ("GET", "universes"):
            return 200, {
                "universes": [
                    ru.describe() for ru in self.universes.values()
                ]
            }
        if key == ("GET", "runs"):
            return 200, self._runs()
        if key == ("POST", "solve"):
            return 202, self._submit_job(body)
        if len(parts) == 2 and key[:2] == ("GET", "jobs"):
            return 200, self.jobs.describe(parts[1])
        if len(parts) == 3 and key[:2] == ("GET", "jobs") and parts[2] == "result":
            return 200, self.jobs.result(parts[1])
        if key == ("POST", "sessions"):
            return 201, self._create_session(body)
        if len(parts) == 2 and parts[0] == "sessions":
            if method.upper() == "GET":
                return 200, self._describe_session(parts[1])
            if method.upper() == "DELETE":
                self.sessions.close(parts[1])
                return 200, {"session_id": parts[1], "closed": True}
        if len(parts) == 3 and parts[0] == "sessions" and method.upper() == "POST":
            if parts[2] == "edits":
                return 200, self._apply_edits(parts[1], body)
            if parts[2] == "solve":
                return 200, self._solve_session(parts[1], body)
        raise ServeError(f"no route {method.upper()} {path}")

    # -- informational endpoints ----------------------------------------------

    def _index(self) -> dict:
        return {
            "service": "mube-serve",
            "universes": sorted(self.universes),
            "endpoints": [
                "GET /health",
                "GET /metrics",
                "GET /universes",
                "GET /runs",
                "POST /solve",
                "GET /jobs/<id>",
                "GET /jobs/<id>/result",
                "POST /sessions",
                "GET /sessions/<id>",
                "POST /sessions/<id>/edits",
                "POST /sessions/<id>/solve",
                "DELETE /sessions/<id>",
            ],
        }

    def _health(self) -> dict:
        degraded = [name for name, ok in self.tiers.items() if not ok]
        return {
            "status": "degraded" if degraded else "ok",
            "uptime_seconds": time.time() - self.started_at,
            "universes": {
                name: ru.describe() for name, ru in self.universes.items()
            },
            "sessions": self.sessions.snapshot(),
            "jobs": self.jobs.counts(),
            "tiers": dict(self.tiers),
        }

    def _metrics(self) -> dict:
        snapshot = self.telemetry.metrics.snapshot()
        return {
            "counters": snapshot.get("counters", {}),
            "gauges": snapshot.get("gauges", {}),
            "histograms": snapshot.get("histograms", {}),
            "spans": self.telemetry.span_summary(),
        }

    def _runs(self) -> dict:
        if not self.tiers.get("observatory", False):
            return {"available": False, "runs": []}
        from ..telemetry.observatory.registry import default_registry

        registry = default_registry()
        if registry is None:
            return {"available": False, "runs": []}
        return {
            "available": True,
            "runs": [record.to_dict() for record in registry.load(limit=50)],
        }

    # -- the async job tier ---------------------------------------------------

    def _submit_job(self, body: Mapping) -> dict:
        universe = self._resident(body.get("universe"))
        params = {
            k: body[k]
            for k in (
                "edits",
                "optimizer",
                "jobs",
                "portfolio",
                "stop_quality",
                "explain",
                "seed",
                "iterations",
                "max_sources",
                "theta",
                "beta",
            )
            if k in body
        }
        job = self.jobs.submit(universe.name, params)
        return {
            "job_id": job.job_id,
            "state": job.state,
            "poll": f"/jobs/{job.job_id}",
            "result": f"/jobs/{job.job_id}/result",
        }

    def _run_job(self, job: Job) -> dict:
        """Execute one async solve on the runner thread.

        Each job gets a throwaway session over the resident artifacts;
        the engine's checkpoint file under the job dir makes the run
        durable (kill the service mid-job, re-submit the same problem,
        and the fingerprint-guarded checkpoint resumes best-so-far).
        """
        universe = self.universes[job.universe]
        params = job.params
        session = universe.make_session(
            telemetry=None,
            record_runs=self.tiers.get("observatory", False),
            optimizer=params.get("optimizer", "tabu"),
            optimizer_config=optimizer_config_from(params),
            **{
                k: params[k]
                for k in ("max_sources", "theta", "beta")
                if params.get(k) is not None
            },
        )
        self._apply_edit_list(session, params.get("edits", []))
        jobs = params.get("jobs", self.default_jobs)
        iteration = session.solve(
            jobs=jobs if jobs and jobs > 1 else None,
            portfolio=params.get("portfolio"),
            stop_quality=params.get("stop_quality"),
            checkpoint=job.checkpoint if jobs and jobs > 1 else None,
            explain=bool(params.get("explain", True)),
        )
        self.telemetry.metrics.counter("serve.solves").inc()
        return solution_payload(
            iteration,
            include_explanation=bool(params.get("explain", True)),
        )

    # -- the per-user session tier --------------------------------------------

    def _resident(self, name: str | None) -> ResidentUniverse:
        if name is None:
            return self.universes[self.default_universe]
        try:
            return self.universes[name]
        except KeyError:
            raise UnknownUniverseError(
                f"no resident universe {name!r}; "
                f"loaded: {sorted(self.universes)}"
            ) from None

    def _create_session(self, body: Mapping) -> dict:
        universe = self._resident(body.get("universe"))
        overrides = {
            k: body[k]
            for k in ("max_sources", "theta", "beta", "optimizer")
            if body.get(k) is not None
        }
        managed = self.sessions.create(
            universe.name,
            lambda: universe.make_session(
                telemetry=None,
                record_runs=self.tiers.get("observatory", False),
                optimizer_config=optimizer_config_from(body),
                **overrides,
            ),
        )
        return {
            "session_id": managed.session_id,
            "universe": managed.universe,
            "ttl_seconds": self.sessions.ttl_seconds,
        }

    def _describe_session(self, session_id: str) -> dict:
        managed = self.sessions.get(session_id)
        session = managed.session
        problem = session.problem()
        return {
            "session_id": managed.session_id,
            "universe": managed.universe,
            "created_at": managed.created_at,
            "solves": managed.solves,
            "pending_edits": len(session.pending_edits),
            "sources": len(session.universe),
            "required_sources": sorted(problem.source_constraints),
            "ga_constraints": len(problem.ga_constraints),
            "theta": problem.theta,
            "beta": problem.beta,
            "max_sources": problem.max_sources,
        }

    def _apply_edits(self, session_id: str, body: Mapping) -> dict:
        managed = self.sessions.get(session_id)
        edits = body.get("edits")
        if not isinstance(edits, list) or not edits:
            raise ServeError(
                "body must be {'edits': [{'op': ..., ...}, ...]}"
            )
        applied = self._apply_edit_list(managed.session, edits)
        return {
            "session_id": session_id,
            "applied": applied,
            "pending_edits": len(managed.session.pending_edits),
        }

    def _apply_edit_list(self, session, edits: list) -> list[str]:
        applied: list[str] = []
        for edit in edits:
            if not isinstance(edit, Mapping) or "op" not in edit:
                raise ServeError(
                    f"each edit needs an 'op' field, got {edit!r}"
                )
            op = edit["op"]
            if op == "accept_ga":
                # Address a GA out of the last solution's schema by
                # position — the JSON-friendly spelling of accept_ga.
                solution = session.last_solution
                if solution is None or solution.schema is None:
                    raise ServeError(
                        "accept_ga needs a prior solve with a schema"
                    )
                session.accept_ga(solution.schema.gas[int(edit["ga"])])
            elif op == "drop_ga":
                constraints = session.problem().ga_constraints
                index = int(edit["ga"])
                if not 0 <= index < len(constraints):
                    raise ServeError(
                        f"drop_ga index {index} out of range "
                        f"({len(constraints)} constraints)"
                    )
                session.drop_ga_constraint(constraints[index])
            elif op in EDIT_OPS:
                method, fields = EDIT_OPS[op]
                missing = [f for f in fields if f not in edit]
                if missing:
                    raise ServeError(
                        f"edit op {op!r} missing fields {missing}"
                    )
                args = [edit[f] for f in fields]
                if op == "require_match":
                    args = [[tuple(pair) for pair in args[0]]]
                try:
                    getattr(session, method)(*args)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    # Unknown source/attribute names and malformed
                    # arguments are the user's problem, not a 500.
                    raise ServeError(
                        f"edit op {op!r} rejected: {exc}"
                    ) from exc
            else:
                raise ServeError(
                    f"unknown edit op {op!r}; supported: "
                    f"{sorted([*EDIT_OPS, 'accept_ga', 'drop_ga'])}"
                )
            applied.append(op)
        self.telemetry.metrics.counter("serve.edits").inc(len(applied))
        return applied

    def _solve_session(self, session_id: str, body: Mapping) -> dict:
        managed = self.sessions.get(session_id)
        iteration = managed.session.solve(
            optimizer=body.get("optimizer"),
            warm_start=bool(body.get("warm_start", True)),
            explain=bool(body.get("explain", False)),
            stop_quality=body.get("stop_quality"),
        )
        managed.solves += 1
        self.telemetry.metrics.counter("serve.solves").inc()
        payload = solution_payload(
            iteration, include_explanation=bool(body.get("explain", False))
        )
        payload["session_id"] = session_id
        return payload


# -- the HTTP shim ------------------------------------------------------------

#: The largest request body the shim reads; a longer ``Content-Length``
#: is refused with 413 before any of the body is read.
MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Parse → dispatch → JSON; all routing lives in :class:`ServeApp`."""

    server_version = "mube-serve"
    protocol_version = "HTTP/1.1"

    def _handle(self, method: str) -> None:
        app: ServeApp = self.server.app  # type: ignore[attr-defined]
        if "Transfer-Encoding" in self.headers:
            # Only Content-Length framing is read; a chunked body would
            # otherwise be dropped and its bytes parsed as a next request.
            self._refuse_body(
                411,
                "length_required",
                "Transfer-Encoding is not supported; send Content-Length",
            )
            return
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            self._refuse_body(
                400, "bad_request", f"bad Content-Length {header!r}"
            )
            return
        length = int(header)
        if length > MAX_BODY_BYTES:
            # ``rfile.read(n)`` allocates all ``n`` bytes up front.
            self._refuse_body(
                413,
                "payload_too_large",
                f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes",
            )
            return
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw) if raw else None
        except json.JSONDecodeError as exc:
            self._reply(
                400,
                {"error": {"code": "bad_json", "message": str(exc)}},
            )
            return
        path = urlparse(self.path).path
        status, payload = app.dispatch(method, path, body)
        self._reply(status, payload)

    def _refuse_body(self, status: int, code: str, message: str) -> None:
        """Refuse a request whose body goes unread.

        The unread body still sits on the socket, so the connection
        cannot be reused for a next request.
        """
        self.close_connection = True
        self._reply(status, {"error": {"code": code, "message": message}})

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Request logging rides telemetry spans, not stderr.
        pass


class ServeHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server carrying its :class:`ServeApp`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app: ServeApp):
        super().__init__(address, _Handler)
        self.app = app


def serve_forever(
    app: ServeApp, host: str = "127.0.0.1", port: int = 8765
) -> ServeHTTPServer:
    """Bind and run until :meth:`ServeHTTPServer.shutdown` (blocking)."""
    server = ServeHTTPServer((host, port), app)
    server.serve_forever()
    return server


def start_background(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> tuple[ServeHTTPServer, threading.Thread]:
    """Bind on an ephemeral port and serve from a daemon thread.

    The test-suite and benchmark entry point: returns the bound server
    (``server.server_address`` has the real port) plus its thread; call
    ``server.shutdown()`` then ``thread.join()`` to stop.
    """
    server = ServeHTTPServer((host, port), app)
    thread = threading.Thread(
        target=server.serve_forever, name="mube-serve-http", daemon=True
    )
    thread.start()
    return server, thread


__all__ = [
    "EDIT_OPS",
    "ServeApp",
    "ServeHTTPServer",
    "schema_payload",
    "serve_forever",
    "solution_payload",
    "start_background",
]
