"""Shared pieces of the loop-turn benchmark: scale, inputs, oracle, client.

Everything the workloads need that is not a workload itself: the load
shape (:class:`Scale`), seeded input generation, answer canonicalisation
and the cold reference solver the correctness oracle compares against,
timing statistics, and a keep-alive JSON-over-HTTP client.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def bootstrap() -> None:
    """Put the program's source tree on ``sys.path`` (no install step)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"loopbench: program sources not found under {SRC}; run from "
            "the root of a checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Scale:
    """The load shape: universe size, solve lengths, clients, polling.

    Every solve is tabu at a fixed number of iterations: ``patience`` is
    never reached (the library workloads disable it; the HTTP workloads
    keep iterations at or below the service's default patience).
    """

    sources: int = 200
    max_sources: int = 10
    theta: float = 0.65
    beta: int = 2
    setup_repeats: int = 25
    cold_universes: int = 16
    cold_iterations: int = 8
    cold_min_turns: int = 40
    edit_iterations: int = 8
    edit_min_turns: int = 40
    edit_setup_repeats: int = 3
    spares: int = 8
    serve_clients: int = 2
    serve_universes: int = 4
    serve_iterations: int = 3
    serve_min_turns: int = 40
    job_workers: int = 2
    job_universes: int = 4
    job_iterations: int = 8
    job_min_turns: int = 20
    job_min_requests: int = 200
    poll_interval_s: float = 0.02

    def describe(self) -> dict:
        return {
            "loop": "closed",
            **{k: getattr(self, k) for k in self.__dataclass_fields__},
        }


DEFAULT = Scale()

#: A tiny shape for the benchmark's own tests.
TINY = replace(
    DEFAULT,
    sources=30,
    setup_repeats=1,
    cold_universes=2,
    cold_iterations=2,
    cold_min_turns=2,
    edit_iterations=2,
    edit_min_turns=14,
    edit_setup_repeats=1,
    spares=2,
    serve_universes=2,
    serve_iterations=1,
    serve_min_turns=6,
    job_universes=2,
    job_iterations=2,
    job_min_turns=2,
    job_min_requests=0,
)


# -- scratch space ---------------------------------------------------------


class Scratch:
    """A temp dir inside the checkout for every file the run writes.

    Points the run registry (``MUBE_RUNS_PATH``) and ``TMPDIR`` into it;
    :meth:`close` removes it and restores the environment.
    """

    def __init__(self):
        base = ROOT / ".loopbench_tmp"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self._saved = {k: os.environ.get(k) for k in ("MUBE_RUNS_PATH", "TMPDIR")}
        os.environ["MUBE_RUNS_PATH"] = str(self.path / "runs.jsonl")
        os.environ["TMPDIR"] = str(self.path)
        tempfile.tempdir = None

    def close(self) -> None:
        for key, value in self._saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        tempfile.tempdir = None
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


# -- inputs --------------------------------------------------------------------


def books_universes(scale: Scale, seed: int, count: int) -> list:
    """``count`` seeded Books universes of ``scale.sources`` sources."""
    from repro.workload import generate_books_universe

    return [
        generate_books_universe(scale.sources, seed=seed * 1000 + k).universe
        for k in range(count)
    ]


def spare_sources(scale: Scale, seed: int, first_id: int) -> list:
    """Newly discovered sources for add-source edits.

    Perturbed Books sources from a donor universe, under fresh ids, each
    with one attribute name no universe has — so adding one extends the
    similarity vocabulary, as a real discovery would.
    """
    from repro.core import Source
    from repro.workload import generate_books_universe

    donor = generate_books_universe(
        scale.sources, seed=seed * 1000 + 999
    ).universe
    pool = [s for s in donor if s.source_id >= min(50, scale.sources // 2)]
    out = []
    for k, source in enumerate(pool[: scale.spares]):
        out.append(
            Source(
                first_id + k,
                name=f"spare-{first_id + k}",
                schema=(*source.schema, f"listing note {first_id + k}"),
                cardinality=source.cardinality,
                characteristics=dict(source.characteristics),
                sketch=source.sketch,
            )
        )
    return out


def optimizer_config(iterations: int, seed: int, fixed: bool = True):
    from repro.search import OptimizerConfig

    if fixed:
        return OptimizerConfig(
            max_iterations=iterations, patience=iterations + 1, seed=seed
        )
    return OptimizerConfig(max_iterations=iterations, seed=seed)


# -- answers and the oracle ----------------------------------------------------


@dataclass(frozen=True)
class Answer:
    """A solve's answer in a form comparable across library and HTTP."""

    selected: tuple[int, ...]
    objective: str
    quality: float
    feasible: bool
    schema: frozenset | None

    @classmethod
    def of(cls, solution) -> "Answer":
        schema = None
        if solution.schema is not None:
            schema = frozenset(
                tuple(sorted((r.source_id, r.index) for r in ga.attributes))
                for ga in solution.schema.gas
            )
        return cls(
            tuple(sorted(solution.selected)),
            float(solution.objective).hex(),
            float(solution.quality),
            bool(solution.feasible),
            schema,
        )

    @classmethod
    def of_payload(cls, payload: dict) -> "Answer":
        solution = payload["solution"]
        schema = None
        if solution["schema"] is not None:
            schema = frozenset(
                tuple(sorted((r["source_id"], r["index"]) for r in ga))
                for ga in solution["schema"]
            )
        return cls(
            tuple(solution["selected"]),
            float(solution["objective"]).hex(),
            float(solution["quality"]),
            bool(solution["feasible"]),
            schema,
        )


def problem_key(problem) -> tuple:
    """Everything a solve's answer depends on, weights order included."""
    from repro.search.resilience import problem_fingerprint

    return (problem_fingerprint(problem), tuple(problem.weights.items()))


class ColdReference:
    """Cold library solves: a fresh matrix, operator, context and memo.

    The oracle for every sequential answer.  ``solve(problem, initial,
    config)`` runs the named optimizer over an :class:`Objective` built
    from scratch, warm-started exactly as ``Session.solve`` would be, and
    caches the answer per ``(problem, initial, config)`` — so a loop that
    revisits a state, or a second run of the same seed, is verified once.
    """

    def __init__(self):
        self._matrices: dict[tuple, object] = {}
        self._answers: dict[tuple, Answer] = {}

    def _matrix(self, universe):
        from repro.similarity.matrix import NameSimilarityMatrix
        from repro.similarity.measures import default_measure

        names = tuple(universe.attribute_names())
        if names not in self._matrices:
            self._matrices[names] = NameSimilarityMatrix.build(
                names, default_measure()
            )
        return self._matrices[names]

    def solve(self, problem, initial, config, optimizer: str = "tabu"):
        from repro.quality.overall import Objective
        from repro.search import get_optimizer

        key = (
            problem_key(problem),
            None if initial is None else tuple(sorted(initial)),
            config,
            optimizer,
        )
        if key not in self._answers:
            objective = Objective(
                problem, similarity=self._matrix(problem.universe)
            )
            result = get_optimizer(optimizer, config).optimize(
                objective,
                initial=None if initial is None else frozenset(initial),
            )
            self._answers[key] = Answer.of(result.solution)
        return self._answers[key]

    def memo(self, key, compute):
        """Any other reference answer, computed once per key."""
        if key not in self._answers:
            self._answers[key] = compute()
        return self._answers[key]


# -- statistics ----------------------------------------------------------------

#: Percentile levels a tail may be reported at, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, level: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * level / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_level(samples: int) -> float:
    """The highest level in :data:`TAIL_LEVELS` with at least ten of
    ``samples`` beyond it (50 when there are too few)."""
    for level in TAIL_LEVELS:
        if math.floor(samples * (100.0 - level) / 100.0) >= 10:
            return level
    return 50.0


def tail(values, level: float) -> tuple[float, int]:
    """``(value, samples beyond)`` at percentile ``level``."""
    beyond = math.floor(len(values) * (100.0 - level) / 100.0)
    return percentile(values, level), beyond


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- HTTP client ---------------------------------------------------------------


class Client:
    """One keep-alive HTTP connection speaking the service's JSON API.

    ``tracer`` (traced runs only) gets a ``serve.transport`` span around
    every request, announced so the server's dispatch span can link to
    it.
    """

    def __init__(self, host: str, port: int, tracer=None):
        self.conn = http.client.HTTPConnection(host, port, timeout=120)
        self.tracer = tracer
        self.latencies: list[float] = []
        self.payload_bytes: list[int] = []

    def request(self, method: str, path: str, body: dict | None = None):
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        tracer = self.tracer
        if tracer is None:
            started = time.perf_counter()
            status, raw = self._roundtrip(method, path, data, headers)
            self.latencies.append(time.perf_counter() - started)
        else:
            with tracer.span(f"HTTP {method}", "serve.transport"):
                tracer.expect(method, path, body)
                started = time.perf_counter()
                status, raw = self._roundtrip(method, path, data, headers)
                self.latencies.append(time.perf_counter() - started)
        self.payload_bytes.append(len(raw))
        return status, json.loads(raw) if raw else {}

    def _roundtrip(self, method, path, data, headers):
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


@dataclass
class RunLog:
    """What one measured phase of a workload observed."""

    turn_seconds: list[float] = field(default_factory=list)
    request_seconds: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    qualities: list[float] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    setup_windows: list[tuple[float, float]] = field(default_factory=list)
    min_turns: int = 0
    min_requests: int = 0
    peak_rss_mb: float = 0.0
    extra: dict = field(default_factory=dict)

    @contextmanager
    def setup(self):
        """Time one program set-up.

        Garbage from earlier set-ups is collected first, so a repeat
        does not pay for its predecessors' collection.
        """
        gc.collect()
        started = time.perf_counter()
        yield
        ended = time.perf_counter()
        self.setup_seconds.append(ended - started)
        self.setup_windows.append((started, ended))

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)
