"""Resident state of the solve service: universes, sessions, jobs.

The ROADMAP's service item asks for a long-lived process that loads a
universe **once** and serves many users against the same compiled
artifacts.  This module holds exactly that state, independent of any
transport:

* :class:`ResidentUniverse` — one universe plus everything expensive
  derived from it: the :class:`~repro.similarity.NameSimilarityMatrix`
  (built once) and the compiled
  :class:`~repro.quality.compiled.EvalContext`.  All of it is read-only
  after construction; sessions and jobs *adopt* it (see
  ``Session(similarity_matrix=..., eval_context=...)``) instead of
  recompiling, so after warmup the service performs zero compile phases
  no matter how many users arrive.

* :class:`SessionManager` — the per-user stateful tier: each user gets a
  :class:`~repro.session.Session` (edit-and-resolve loop, delta
  pipeline) addressed by an opaque id, with TTL eviction driven by the
  session's own ``touched_at`` bookkeeping and a hard ``max_sessions``
  cap.  Evicted ids are remembered in a bounded tombstone ring so the
  API can answer "410 gone" instead of a bare 404.

* :class:`JobManager` — the async solve tier: ``submit`` enqueues a job
  and returns immediately; one dedicated runner thread executes jobs in
  submission order, which **serializes access to the process pool** —
  the :class:`~repro.search.parallel.ParallelSolveEngine` owns the
  machine's cores for the duration of one job instead of N jobs
  oversubscribing them.  Every job writes best-so-far checkpoints and a
  JSON manifest under ``job_dir``; the checkpoint files are the durable
  job store (fingerprint-guarded, so re-submitting the same problem
  resumes instead of restarting) and the manifests let a restarted
  service answer polls for jobs an earlier process ran.

Nothing here imports the HTTP layer; :mod:`repro.serve.app` is a thin
transport over these classes, and tests drive them directly.
"""

from __future__ import annotations

import contextvars
import importlib
import json
import queue
import threading
import time
import uuid
from collections import OrderedDict
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ..core import Problem, Universe, default_weights
from ..exceptions import ReproError
from ..quality.overall import Objective
from ..search import OptimizerConfig
from ..session import Session
from ..similarity.matrix import NameSimilarityMatrix
from ..similarity.measures import default_measure
from ..telemetry import get_telemetry


# -- service errors (transport-agnostic, HTTP-status-annotated) ---------------


class ServeError(ReproError):
    """A request the service must refuse, with an HTTP-ready identity."""

    status = 400
    code = "bad_request"

    def payload(self) -> dict:
        """The JSON error body every service error renders to."""
        return {"error": {"code": self.code, "message": str(self)}}


class UnknownUniverseError(ServeError):
    status = 404
    code = "unknown_universe"


class UnknownSessionError(ServeError):
    status = 404
    code = "unknown_session"


class ExpiredSessionError(ServeError):
    status = 410
    code = "session_expired"


class CapacityError(ServeError):
    status = 429
    code = "too_many_sessions"


class UnknownJobError(ServeError):
    status = 404
    code = "unknown_job"


class JobNotDoneError(ServeError):
    status = 409
    code = "job_not_done"


# -- optional tiers -----------------------------------------------------------

#: The service's optional capability tiers.  Each maps to the import that
#: provides it; the service probes them once at startup and keeps the
#: core solve endpoints working when any (or all) are absent — the
#: graceful-degradation contract.  ``scipy`` is consumed indirectly (the
#: similarity blocking layer already falls back to numpy), so the tier
#: only *reports*; ``observatory`` gates run-registry recording and the
#: ``/runs`` view.
OPTIONAL_TIERS: dict[str, str] = {
    "scipy": "scipy.sparse",
    "observatory": "repro.telemetry.observatory",
}


def probe_tier(module: str) -> bool:
    """True iff an optional tier's backing module imports cleanly."""
    try:
        importlib.import_module(module)
    except Exception:  # noqa: BLE001 - any import failure degrades the tier
        return False
    return True


def detect_tiers() -> dict[str, bool]:
    """Probe every optional tier once (startup-time, never per request)."""
    return {name: probe_tier(module) for name, module in OPTIONAL_TIERS.items()}


# -- the resident universe ----------------------------------------------------


class ResidentUniverse:
    """One universe, compiled once, shared read-only by every request.

    Construction is the service's warmup: it builds the name-similarity
    matrix and compiles the columnar :class:`EvalContext` exactly once.
    Everything handed out afterwards is either immutable (the matrix and
    context arrays are never written again) or copy-on-write (a session
    that adds sources gets an *extended* matrix object of its own), so
    concurrent sessions can never observe each other through this
    object.
    """

    def __init__(
        self,
        name: str,
        universe: Universe,
        characteristic_qefs: Sequence = (),
        theta: float = 0.65,
        beta: int = 2,
        max_sources: int | None = None,
    ):
        self.name = name
        self.universe = universe
        self.characteristic_qefs = tuple(characteristic_qefs)
        self.theta = theta
        self.beta = beta
        self.max_sources = (
            max_sources
            if max_sources is not None
            else min(10, len(universe))
        )
        self.measure = default_measure()
        self.matrix = NameSimilarityMatrix.build(
            universe.attribute_names(), self.measure
        )
        # Compile the columnar evaluation state once.  The context
        # depends only on the universe's sources and the characteristic
        # QEFs — not on weights/θ/β — so every session over this
        # universe can adopt it regardless of its own parameters.
        baseline = Problem(
            universe=universe,
            weights=default_weights(self.characteristic_qefs),
            source_constraints=frozenset(),
            ga_constraints=(),
            max_sources=self.max_sources,
            theta=theta,
            beta=beta,
            characteristic_qefs=self.characteristic_qefs,
        )
        self.eval_context = Objective(
            baseline, similarity=self.matrix
        ).context
        get_telemetry().metrics.counter("serve.universes_loaded").inc()

    def make_session(
        self,
        *,
        record_runs: bool = True,
        telemetry=None,
        **overrides,
    ) -> Session:
        """A fresh session adopting this universe's compiled artifacts."""
        params: dict = dict(
            max_sources=self.max_sources,
            theta=self.theta,
            beta=self.beta,
        )
        params.update(overrides)
        return Session(
            self.universe,
            characteristic_qefs=self.characteristic_qefs,
            similarity=self.measure,
            similarity_matrix=self.matrix,
            eval_context=self.eval_context,
            record_runs=record_runs,
            telemetry=telemetry,
            **params,
        )

    def describe(self) -> dict:
        """Health-endpoint summary of this resident universe."""
        return {
            "name": self.name,
            "sources": len(self.universe),
            "attributes": len(self.universe.attribute_names()),
            "characteristic_qefs": [
                spec.name for spec in self.characteristic_qefs
            ],
            "max_sources": self.max_sources,
            "theta": self.theta,
            "beta": self.beta,
        }


def load_universe(spec: str) -> ResidentUniverse:
    """Build a resident universe from a CLI-style spec string.

    ``"books"`` / ``"books:N"`` / ``"books:N:SEED"`` generate the
    paper's Books workload at N sources; ``"theater"`` /
    ``"theater:SEED"`` build the Figure-1 theater universe.  The spec
    (with defaults filled in) becomes the universe's service name.
    """
    parts = [p for p in spec.split(":") if p != ""]
    if not parts:
        raise UnknownUniverseError(f"empty universe spec {spec!r}")
    kind = parts[0].lower()
    try:
        numbers = [int(p) for p in parts[1:]]
    except ValueError:
        raise UnknownUniverseError(
            f"bad universe spec {spec!r}: expected "
            f"'books[:sources[:seed]]' or 'theater[:seed]'"
        ) from None
    if kind == "books":
        from ..workload import generate_books_universe

        n_sources = numbers[0] if numbers else 120
        seed = numbers[1] if len(numbers) > 1 else 0
        workload = generate_books_universe(n_sources, seed=seed)
        return ResidentUniverse(
            f"books:{n_sources}:{seed}", workload.universe
        )
    if kind == "theater":
        from ..workload import theater_universe

        seed = numbers[0] if numbers else 0
        return ResidentUniverse(f"theater:{seed}", theater_universe(seed))
    raise UnknownUniverseError(
        f"unknown universe kind {kind!r} in spec {spec!r}; "
        f"expected 'books' or 'theater'"
    )


# -- the per-user session tier ------------------------------------------------


@dataclass
class ManagedSession:
    """One user's session plus the manager's bookkeeping around it."""

    session_id: str
    universe: str
    session: Session
    created_at: float  # wall clock, for humans
    solves: int = 0


class SessionManager:
    """TTL-evicted, capacity-capped registry of per-user sessions.

    The TTL clock is the session's own :attr:`Session.touched_at`
    (refreshed by every locked mutate/solve call), so a session stays
    alive exactly as long as its user keeps using it.  Expired sessions
    are swept lazily — on every create and lookup — which is enough for
    correctness (an expired session can never be *returned*) without a
    background reaper thread.  Tombstones of evicted ids are kept in a
    bounded ring so a late request gets "410 session expired" rather
    than an indistinguishable 404.
    """

    TOMBSTONES = 1024

    def __init__(
        self,
        ttl_seconds: float = 1800.0,
        max_sessions: int = 256,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.ttl_seconds = ttl_seconds
        self.max_sessions = max_sessions
        self._clock = clock
        self._lock = threading.Lock()
        self._sessions: dict[str, ManagedSession] = {}
        self._tombstones: OrderedDict[str, str] = OrderedDict()
        self.evicted_total = 0

    def create(
        self, universe: str, factory: Callable[[], Session]
    ) -> ManagedSession:
        """Register a new session, sweeping and enforcing the cap first.

        The factory runs *outside* the manager lock — session
        construction touches the compiled artifacts and must not block
        unrelated lookups — so the cap is checked before and re-checked
        at insertion (first writer wins on a photo finish).
        """
        self._sweep()
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise CapacityError(
                    f"session capacity reached "
                    f"({self.max_sessions}); retry after a TTL sweep "
                    f"or close an existing session"
                )
        session = factory()
        managed = ManagedSession(
            session_id=uuid.uuid4().hex[:12],
            universe=universe,
            session=session,
            created_at=time.time(),
        )
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise CapacityError(
                    f"session capacity reached ({self.max_sessions})"
                )
            self._sessions[managed.session_id] = managed
        get_telemetry().metrics.counter("serve.sessions_created").inc()
        return managed

    def get(self, session_id: str) -> ManagedSession:
        """The live session for an id, or the precise refusal for it."""
        self._sweep()
        with self._lock:
            managed = self._sessions.get(session_id)
            if managed is not None:
                return managed
            if session_id in self._tombstones:
                raise ExpiredSessionError(
                    f"session {session_id} {self._tombstones[session_id]}; "
                    f"create a new session with POST /sessions"
                )
        raise UnknownSessionError(f"no session {session_id!r}")

    def close(self, session_id: str) -> None:
        """Explicitly end a session (tombstoned as closed)."""
        with self._lock:
            if self._sessions.pop(session_id, None) is None:
                if session_id in self._tombstones:
                    raise ExpiredSessionError(
                        f"session {session_id} "
                        f"{self._tombstones[session_id]}"
                    )
                raise UnknownSessionError(f"no session {session_id!r}")
            self._remember(session_id, "was closed")

    def sweep(self) -> int:
        """Evict every session idle past the TTL; returns the count."""
        return self._sweep()

    def _sweep(self) -> int:
        now = self._clock()
        evicted = 0
        with self._lock:
            for sid in list(self._sessions):
                idle = now - self._sessions[sid].session.touched_at
                if idle > self.ttl_seconds:
                    del self._sessions[sid]
                    self._remember(
                        sid, f"expired after {idle:.0f}s idle "
                        f"(ttl {self.ttl_seconds:.0f}s)"
                    )
                    evicted += 1
        if evicted:
            self.evicted_total += evicted
            get_telemetry().metrics.counter(
                "serve.sessions_evicted"
            ).inc(evicted)
        return evicted

    def _remember(self, session_id: str, reason: str) -> None:
        """Tombstone an id (bounded ring; caller holds the lock)."""
        self._tombstones[session_id] = reason
        while len(self._tombstones) > self.TOMBSTONES:
            self._tombstones.popitem(last=False)

    def snapshot(self) -> dict:
        """Health-endpoint view of the session tier."""
        with self._lock:
            return {
                "active": len(self._sessions),
                "capacity": self.max_sessions,
                "ttl_seconds": self.ttl_seconds,
                "evicted_total": self.evicted_total,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)


# -- the async job tier -------------------------------------------------------

#: Job lifecycle states.  ``interrupted`` marks jobs found on disk whose
#: owning process died before finishing; their checkpoint files survive,
#: so re-submitting the same problem resumes from best-so-far.
JOB_STATES = ("queued", "running", "done", "failed", "interrupted")


@dataclass
class Job:
    """One async solve: durable identity, state, and (later) its result."""

    job_id: str
    universe: str
    params: dict
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    result: dict | None = None
    checkpoint: str | None = None

    def describe(self) -> dict:
        """The poll payload: everything but the (possibly large) result."""
        return {
            "job_id": self.job_id,
            "universe": self.universe,
            "state": self.state,
            "params": self.params,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "checkpoint": self.checkpoint,
        }

    def to_manifest(self) -> dict:
        data = self.describe()
        data["result"] = self.result
        return data


class JobManager:
    """Submit → poll → fetch over a single-runner job queue.

    One daemon thread drains the queue in submission order.  That
    serialization is the point, not a limitation: each job may fan out
    across the whole machine through the
    :class:`~repro.search.parallel.ParallelSolveEngine`, and two engines
    racing for the same cores would only slow both down.  Durability
    rides two files per job under ``job_dir``: the engine's atomic
    best-so-far checkpoint (``<id>.ckpt``) and a JSON manifest
    (``<id>.json``) rewritten at every state transition.  A fresh
    manager :meth:`recover`\\ s manifests left by a dead process, so
    polls keep answering across restarts.
    """

    def __init__(
        self,
        job_dir: str | Path,
        runner: Callable[[Job], dict],
    ):
        self.job_dir = Path(job_dir)
        self.job_dir.mkdir(parents=True, exist_ok=True)
        self._runner = runner
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._queue: queue.Queue[Job | None] = queue.Queue()
        self._thread: threading.Thread | None = None
        self.recover()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start the runner thread (idempotent).

        The thread runs in a copy of the caller's run context
        (:mod:`repro.run_context`), so jobs record into the tracer the
        starting code had in scope.
        """
        if self._thread is not None and self._thread.is_alive():
            return
        self._thread = threading.Thread(
            target=contextvars.copy_context().run,
            args=(self._run_loop,),
            name="mube-serve-jobs",
            daemon=True,
        )
        self._thread.start()

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work and join the runner thread."""
        if self._thread is None:
            return
        self._queue.put(None)
        self._thread.join(timeout=timeout)
        self._thread = None

    def recover(self) -> int:
        """Re-index manifests from an earlier process; returns the count.

        Jobs that were queued or running when their process died are
        re-labelled ``interrupted`` — this manager will not blindly
        re-run work whose parameters it cannot re-validate, but the
        manifest (and the checkpoint, for a resumed re-submission)
        stays available to polls.
        """
        recovered = 0
        for manifest in sorted(self.job_dir.glob("job-*.json")):
            try:
                data = json.loads(manifest.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            job_id = data.get("job_id")
            if not job_id or job_id in self._jobs:
                continue
            state = data.get("state", "interrupted")
            if state in ("queued", "running"):
                state = "interrupted"
            self._jobs[job_id] = Job(
                job_id=job_id,
                universe=data.get("universe", ""),
                params=data.get("params", {}),
                state=state,
                submitted_at=data.get("submitted_at", 0.0),
                started_at=data.get("started_at"),
                finished_at=data.get("finished_at"),
                error=data.get("error"),
                result=data.get("result"),
                checkpoint=data.get("checkpoint"),
            )
            recovered += 1
        return recovered

    # -- the public API -------------------------------------------------------

    def submit(self, universe: str, params: Mapping) -> Job:
        """Enqueue one async solve and persist its manifest."""
        job = Job(
            job_id=f"{time.strftime('%Y%m%d-%H%M%S')}-{uuid.uuid4().hex[:6]}",
            universe=universe,
            params=dict(params),
        )
        job.checkpoint = str(self.job_dir / f"job-{job.job_id}.ckpt")
        with self._lock:
            self._jobs[job.job_id] = job
        self._write_manifest(job)
        self._queue.put(job)
        get_telemetry().metrics.counter("serve.jobs_submitted").inc()
        self.start()
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            return self._get(job_id)

    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no job {job_id!r}")
        return job

    def describe(self, job_id: str) -> dict:
        """The poll payload, read atomically against state transitions."""
        with self._lock:
            return self._get(job_id).describe()

    def result(self, job_id: str) -> dict:
        """The finished job's result payload, or the precise refusal."""
        with self._lock:
            job = self._get(job_id)
            state, result, error = job.state, job.result, job.error
        if state == "done":
            assert result is not None
            return result
        if state == "failed":
            raise JobNotDoneError(f"job {job_id} failed: {error}")
        raise JobNotDoneError(
            f"job {job_id} is {state}; poll GET /jobs/{job_id} "
            f"until state is 'done'"
        )

    def counts(self) -> dict[str, int]:
        """Health-endpoint view: how many jobs in each state."""
        with self._lock:
            counts = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # -- the runner thread ----------------------------------------------------

    def _run_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._execute(job)

    def _execute(self, job: Job) -> None:
        # Each transition sets its timestamp (and result or error) with
        # the state under the lock, so a poll never sees a state whose
        # fields are still unset.
        started_at = time.time()
        with self._lock:
            job.started_at = started_at
            job.state = "running"
        self._write_manifest(job)
        result = error = None
        try:
            result = self._runner(job)
        except Exception as exc:  # noqa: BLE001 - job outcome, never fatal
            error = f"{type(exc).__name__}: {exc}"
        finished_at = time.time()
        with self._lock:
            job.finished_at = finished_at
            job.result = result
            job.error = error
            job.state = "failed" if error is not None else "done"
        get_telemetry().metrics.counter(
            "serve.jobs_failed" if error is not None
            else "serve.jobs_completed"
        ).inc()
        self._write_manifest(job)

    def _write_manifest(self, job: Job) -> None:
        path = self.job_dir / f"job-{job.job_id}.json"
        tmp = path.with_suffix(".json.tmp")
        try:
            tmp.write_text(
                json.dumps(job.to_manifest(), default=str) + "\n",
                encoding="utf-8",
            )
            tmp.replace(path)
        except OSError:
            # Durability is best-effort: a full disk must not take the
            # in-memory job tier down with it.
            get_telemetry().metrics.counter(
                "serve.manifest_failures"
            ).inc()


def optimizer_config_from(params: Mapping) -> OptimizerConfig:
    """An :class:`OptimizerConfig` from request-level knobs."""
    kwargs: dict = {}
    if params.get("seed") is not None:
        kwargs["seed"] = int(params["seed"])
    if params.get("iterations") is not None:
        kwargs["max_iterations"] = int(params["iterations"])
    return OptimizerConfig(**kwargs)


__all__ = [
    "CapacityError",
    "ExpiredSessionError",
    "Job",
    "JobManager",
    "JobNotDoneError",
    "ManagedSession",
    "OPTIONAL_TIERS",
    "ResidentUniverse",
    "ServeError",
    "SessionManager",
    "UnknownJobError",
    "UnknownSessionError",
    "UnknownUniverseError",
    "detect_tiers",
    "load_universe",
    "optimizer_config_from",
    "probe_tier",
]
