"""Cost attribution for the solve pipeline: the :class:`PhaseProfiler`.

Spans answer "what happened when"; the profiler answers "what did each
pipeline *phase* cost" — wall time and CPU time per phase, aggregated
across portfolio workers.  The natural phases (universe compile,
similarity matrix, matching, sketch stacking, search, merge) are wrapped
at their definition sites with::

    with get_profiler().phase("matching"):
        ...

The default profiler is :data:`NOOP_PROFILER`: ``phase()`` returns a
shared do-nothing context manager, so instrumentation left in place
costs one run-context read plus two trivial calls — the same
zero-default-overhead contract the tracer holds.  A real profiler is
installed for a block with ``run_scope(profiler=...)``
(:mod:`repro.run_context`), so it belongs to the thread that installed
it, like the tracer it records into.

An enabled profiler records each phase close into the *active
telemetry's* histograms under ``profile.phase.<name>.<metric>``.  Riding
the metrics registry is what makes ``jobs=K`` work: worker processes
record into their own registries, which already travel home through the
parallel engine's ``merge_snapshot`` path, so phase costs aggregate
across processes exactly like counters do.  The profiler therefore
*requires an enabled tracer* to retain data; under the no-op tracer an
enabled profiler measures and discards.

Cache analytics ride along: objects with memo tables
(:class:`~repro.quality.overall.Objective`,
:class:`~repro.matching.operator.MatchOperator`) register a probe when
they are built under an enabled profiler; the profiler samples every
probe at phase closes (throttled, bounded — and always when a thread's
outermost phase closes) into a hit-ratio-over-time series, and flushes
the final hit/miss/eviction totals into ``profile.cache.*`` counters on
:meth:`PhaseProfiler.close` so they, too, merge across workers.  A probe
that is a bound method is held weakly, so a long-lived profiler (the one
``mube serve`` scopes around every request) never keeps a deleted session's objects alive;
when its owner is collected, the probe's last sampled stats are folded
into the totals.  The probe registry is guarded by a lock and iterated
as a snapshot, so sessions on other threads may register probes while a
sample is running.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Any, Callable

from ..run_context import current_run
from .tracer import get_telemetry

#: Histogram-name prefix for per-phase cost metrics.
PHASE_METRIC_PREFIX = "profile.phase."

#: Counter-name prefix for flushed cache totals.
CACHE_METRIC_PREFIX = "profile.cache."

#: The per-phase metrics an enabled profiler records.
PHASE_METRICS = ("wall_seconds", "cpu_seconds")


class _PhaseSpan:
    """An open phase; record on close into the active telemetry."""

    __slots__ = ("_profiler", "name", "_wall0", "_cpu0")

    def __init__(self, profiler: "PhaseProfiler", name: str):
        self._profiler = profiler
        self.name = name
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "_PhaseSpan":
        profiler = self._profiler
        local = profiler._local
        local.depth = getattr(local, "depth", 0) + 1
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        profiler = self._profiler
        metrics = get_telemetry().metrics
        base = PHASE_METRIC_PREFIX + self.name
        metrics.histogram(base + ".wall_seconds").observe(wall)
        metrics.histogram(base + ".cpu_seconds").observe(cpu)
        local = profiler._local
        local.depth -= 1
        profiler.sample_caches(force=local.depth == 0)


class _NoopPhaseSpan:
    """Shared do-nothing phase for the disabled profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NoopPhaseSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP_PHASE = _NoopPhaseSpan()


class PhaseProfiler:
    """Cost attribution for one profiled run.

    Parameters
    ----------
    cache_sample_interval:
        Minimum seconds between cache-probe samples; phase closes inside
        the window are skipped.  Doubles whenever the series is thinned.
    max_cache_samples:
        Bound on the hit-ratio series; on overflow every second sample
        is dropped (and the interval doubles), so long runs keep an
        evenly spread history instead of a truncated head.
    """

    enabled = True

    def __init__(
        self,
        cache_sample_interval: float = 0.05,
        max_cache_samples: int = 512,
    ):
        self.cache_sample_interval = cache_sample_interval
        self.max_cache_samples = max(2, max_cache_samples)
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        # Probe name -> dereference callable (None once the owner died).
        self._probes: dict[str, Callable[[], Callable[[], dict] | None]] = {}
        self._serials: dict[str, int] = {}
        self._last_stats: dict[str, dict] = {}
        self._retired: dict[str, dict[str, int]] = {}
        self._cache_series: list[dict[str, Any]] = []
        self._last_sample = -float("inf")
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin a profiled scope (restarts the cache-series clock)."""
        self._epoch = time.perf_counter()

    def close(self) -> None:
        """Flush cache totals to the active telemetry.

        Safe to call twice; only the first close flushes.  The final
        per-probe hit/miss/eviction totals land in ``profile.cache.*``
        counters (suffixes like ``#2`` from duplicate registrations are
        folded together, as are the last sampled stats of probes whose
        owner was collected), which is the form that crosses process
        boundaries through ``merge_snapshot``.
        """
        if self._closed:
            return
        self._closed = True
        self.sample_caches(force=True)
        with self._lock:
            totals = {base: dict(t) for base, t in self._retired.items()}
            for name, stats in self._last_stats.items():
                _fold(totals, name, stats)
        metrics = get_telemetry().metrics
        for base, fields in totals.items():
            for field, value in fields.items():
                metrics.counter(
                    f"{CACHE_METRIC_PREFIX}{base}.{field}"
                ).inc(value)

    def __enter__(self) -> "PhaseProfiler":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- phases --------------------------------------------------------------

    def phase(self, name: str) -> _PhaseSpan:
        """A context manager attributing its body's cost to ``name``."""
        return _PhaseSpan(self, name)

    # -- cache analytics -----------------------------------------------------

    def add_cache_probe(
        self, name: str, probe: Callable[[], dict]
    ) -> None:
        """Register a stats callable (→ dict with ``hits``/``misses``).

        Registering the same name again (one objective per portfolio
        worker, say) gets a ``#2``-style suffix, so every instance keeps
        its own series; :meth:`close` folds suffixed probes back into
        one counter family.  A bound method is held weakly (the probe
        must not keep its owner alive); any other callable strongly.
        """
        try:
            ref = weakref.WeakMethod(probe)
        except TypeError:
            ref = lambda: probe  # noqa: E731 - a strong "reference"
        with self._lock:
            serial = self._serials.get(name, 0) + 1
            self._serials[name] = serial
            key = name if serial == 1 else f"{name}#{serial}"
            self._probes[key] = ref

    def _live_probes(self) -> list[tuple[str, Callable[[], dict]]]:
        """Snapshot the live probes; retire those whose owner died.

        Call with the lock held.  The snapshot holds strong references,
        so every owner in it stays alive while its probe is read.
        """
        live = []
        for name, ref in list(self._probes.items()):
            probe = ref()
            if probe is not None:
                live.append((name, probe))
                continue
            del self._probes[name]
            stats = self._last_stats.pop(name, None)
            if stats is not None:
                _fold(self._retired, name, stats)
        return live

    def _read(self) -> dict[str, dict]:
        """Current stats of every live probe (failing probes skipped).

        The stats are recorded as each probe's last sample while the
        snapshot still keeps the owners alive, so no owner can be
        retired between its read and its record.
        """
        with self._lock:
            live = self._live_probes()
        caches: dict[str, dict] = {}
        for name, probe in live:
            try:
                caches[name] = dict(probe())
            except Exception:  # noqa: BLE001 - observation must never raise
                continue
        with self._lock:
            self._last_stats.update(caches)
        return caches

    def sample_caches(self, force: bool = False) -> None:
        """Sample every probe into the hit-ratio series (throttled)."""
        if not self._probes:
            return
        now = time.perf_counter()
        if not force and now - self._last_sample < self.cache_sample_interval:
            return
        self._last_sample = now
        caches = self._read()
        with self._lock:
            self._cache_series.append(
                {"t": now - self._epoch, "caches": caches}
            )
            if len(self._cache_series) > self.max_cache_samples:
                self._cache_series = self._cache_series[::2]
                self.cache_sample_interval *= 2.0

    def cache_analytics(self) -> dict[str, dict[str, Any]]:
        """Per-probe final stats plus the hit-ratio-over-time series.

        Covers the live probes only; a collected owner's stats survive
        in the :meth:`close` totals.
        """
        caches = self._read()
        with self._lock:
            history = list(self._cache_series)
        analytics: dict[str, dict[str, Any]] = {}
        for name, final in caches.items():
            series = [
                {
                    "t": round(sample["t"], 6),
                    "hit_rate": _hit_rate(sample["caches"][name]),
                }
                for sample in history
                if name in sample["caches"]
            ]
            final["hit_rate"] = _hit_rate(final)
            analytics[name] = {"final": final, "series": series}
        return analytics

    def __repr__(self) -> str:
        return f"PhaseProfiler(probes={len(self._probes)})"


class NoopPhaseProfiler:
    """The default profiler: every operation is a constant-time no-op."""

    enabled = False

    __slots__ = ()

    def start(self) -> None:
        pass

    def close(self) -> None:
        pass

    def phase(self, name: str) -> _NoopPhaseSpan:
        return _NOOP_PHASE

    def add_cache_probe(self, name: str, probe) -> None:
        pass

    def sample_caches(self, force: bool = False) -> None:
        pass

    def cache_analytics(self) -> dict:
        return {}

    def __enter__(self) -> "NoopPhaseProfiler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __repr__(self) -> str:
        return "NoopPhaseProfiler()"


#: Shared no-op instance, what :func:`get_profiler` returns by default.
NOOP_PROFILER = NoopPhaseProfiler()


def get_profiler() -> PhaseProfiler | NoopPhaseProfiler:
    """The active profiler (the shared no-op outside a profiler scope)."""
    profiler = current_run().profiler
    return NOOP_PROFILER if profiler is None else profiler


def _fold(
    totals: dict[str, dict[str, int]], name: str, stats: dict
) -> None:
    """Add one probe's hit/miss/eviction counts to its family's totals."""
    family = totals.setdefault(name.split("#", 1)[0], {})
    for field in ("hits", "misses", "evictions"):
        if field in stats:
            family[field] = family.get(field, 0) + int(stats[field])


def _hit_rate(stats: dict) -> float:
    """Hits over total lookups (0.0 before any traffic)."""
    hits = float(stats.get("hits", 0))
    total = hits + float(stats.get("misses", 0))
    return hits / total if total else 0.0


# -- reading profiles back ----------------------------------------------------


def phase_profile(
    snapshot: dict[str, Any],
) -> dict[str, dict[str, float]]:
    """Per-phase cost aggregates parsed from a metrics snapshot.

    The snapshot may come straight from a live registry or from a
    ``--trace`` file's final metrics record; worker-merged registries
    yield cross-process totals.
    """
    phases: dict[str, dict[str, float]] = {}
    for name, summary in snapshot.get("histograms", {}).items():
        if not name.startswith(PHASE_METRIC_PREFIX):
            continue
        stem = name[len(PHASE_METRIC_PREFIX):]
        phase, _, metric = stem.rpartition(".")
        if metric not in PHASE_METRICS or not phase:
            continue
        row = phases.setdefault(
            phase,
            {
                "calls": 0.0,
                "wall_seconds": 0.0,
                "cpu_seconds": 0.0,
                "wall_mean_seconds": 0.0,
                "wall_p99_seconds": 0.0,
            },
        )
        if metric == "wall_seconds":
            row["calls"] = float(summary.get("count", 0))
            row["wall_seconds"] = float(summary.get("total", 0.0))
            row["wall_mean_seconds"] = float(summary.get("mean", 0.0))
            row["wall_p99_seconds"] = float(summary.get("p99", 0.0))
        else:
            row["cpu_seconds"] = float(summary.get("total", 0.0))
    return phases


def cache_totals(snapshot: dict[str, Any]) -> dict[str, dict[str, int]]:
    """Per-cache flushed totals (``profile.cache.*`` counters)."""
    totals: dict[str, dict[str, int]] = {}
    for name, value in snapshot.get("counters", {}).items():
        if not name.startswith(CACHE_METRIC_PREFIX):
            continue
        stem = name[len(CACHE_METRIC_PREFIX):]
        cache, _, field = stem.rpartition(".")
        if not cache:
            continue
        totals.setdefault(cache, {})[field] = int(value)
    return totals
