"""Cost attribution for the solve pipeline: the :class:`PhaseProfiler`.

Spans answer "what happened when"; the profiler answers "what did each
pipeline *phase* cost" — wall time, CPU time and (when enabled) peak and
delta heap memory, per phase, aggregated across portfolio workers.  The
natural phases (universe compile, similarity matrix, matching, sketch
stacking, search, merge) are wrapped at their definition sites with::

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
*requires an enabled tracer* to retain data — ``mube profile`` and
:mod:`repro.telemetry.complexity` install one; under the no-op tracer an
enabled profiler measures and discards.

Memory attribution uses :mod:`tracemalloc` (enabled with
``PhaseProfiler(memory=True)``): each phase's ``mem_peak_bytes`` is the
true high-water mark *during that phase* (a peak-stack propagates child
peaks to parents around ``reset_peak`` calls), and ``mem_delta_bytes``
is the retained-bytes difference across the phase.

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

import io
import threading
import time
import tracemalloc
import weakref
from typing import Any, Callable

from ..run_context import current_run
from .tracer import get_telemetry

#: Histogram-name prefix for per-phase cost metrics.
PHASE_METRIC_PREFIX = "profile.phase."

#: Counter-name prefix for flushed cache totals.
CACHE_METRIC_PREFIX = "profile.cache."

#: The per-phase metrics an enabled profiler records (memory ones only
#: with ``memory=True``).
PHASE_METRICS = (
    "wall_seconds", "cpu_seconds", "mem_peak_bytes", "mem_delta_bytes",
)


class _PhaseSpan:
    """An open phase; record on close into the active telemetry."""

    __slots__ = ("_profiler", "name", "_wall0", "_cpu0", "_mem0")

    def __init__(self, profiler: "PhaseProfiler", name: str):
        self._profiler = profiler
        self.name = name
        self._wall0 = 0.0
        self._cpu0 = 0.0
        self._mem0 = 0

    def __enter__(self) -> "_PhaseSpan":
        profiler = self._profiler
        local = profiler._local
        local.depth = getattr(local, "depth", 0) + 1
        if profiler.memory and tracemalloc.is_tracing():
            self._mem0 = profiler._push_mem_frame()
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
        if profiler.memory and tracemalloc.is_tracing():
            delta, peak = profiler._pop_mem_frame(self._mem0)
            metrics.histogram(base + ".mem_peak_bytes").observe(peak)
            metrics.histogram(base + ".mem_delta_bytes").observe(delta)
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
    memory:
        Also attribute heap memory per phase via :mod:`tracemalloc`
        (:meth:`start` begins tracing if nothing else has).  Tracing
        slows allocation-heavy code noticeably, so it is opt-in.
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
        memory: bool = False,
        cache_sample_interval: float = 0.05,
        max_cache_samples: int = 512,
    ):
        self.memory = memory
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
        self._peak_stack: list[int] = []
        self._started_tracing = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin a profiled scope (starts tracemalloc when asked to)."""
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        self._epoch = time.perf_counter()

    def close(self) -> None:
        """Flush cache totals to the active telemetry and stop tracing.

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
        if self._started_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracing = False

    def __enter__(self) -> "PhaseProfiler":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- phases --------------------------------------------------------------

    def phase(self, name: str) -> _PhaseSpan:
        """A context manager attributing its body's cost to ``name``."""
        return _PhaseSpan(self, name)

    def _push_mem_frame(self) -> int:
        """Open a memory frame: reset the peak, remember retained bytes."""
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        self._peak_stack.append(0)
        return current

    def _pop_mem_frame(self, start_current: int) -> tuple[int, int]:
        """Close a memory frame → (delta bytes, true frame peak bytes).

        ``tracemalloc`` keeps one global peak, which nested frames reset;
        each frame therefore carries the running maximum of the raw peaks
        observed while it was open, and propagates its own maximum to the
        parent frame on close — so a parent's peak is never understated
        by a child's reset.
        """
        current, peak = tracemalloc.get_traced_memory()
        frame_peak = max(peak, self._peak_stack.pop())
        if self._peak_stack:
            self._peak_stack[-1] = max(self._peak_stack[-1], frame_peak)
        tracemalloc.reset_peak()
        return current - start_current, frame_peak

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
        return (
            f"PhaseProfiler(memory={self.memory}, "
            f"probes={len(self._probes)})"
        )


class NoopPhaseProfiler:
    """The default profiler: every operation is a constant-time no-op."""

    enabled = False
    memory = False

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
) -> dict[str, dict[str, float | None]]:
    """Per-phase cost aggregates parsed from a metrics snapshot.

    The snapshot may come straight from a live registry or from a
    ``--trace`` file's final metrics record; worker-merged registries
    yield cross-process totals.  Phases with no memory attribution
    report ``None`` for the memory fields.
    """
    phases: dict[str, dict[str, float | None]] = {}
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
                "mem_peak_bytes": None,
                "mem_delta_bytes": None,
            },
        )
        if metric == "wall_seconds":
            row["calls"] = float(summary.get("count", 0))
            row["wall_seconds"] = float(summary.get("total", 0.0))
            row["wall_mean_seconds"] = float(summary.get("mean", 0.0))
            row["wall_p99_seconds"] = float(summary.get("p99", 0.0))
        elif metric == "cpu_seconds":
            row["cpu_seconds"] = float(summary.get("total", 0.0))
        elif metric == "mem_peak_bytes":
            row["mem_peak_bytes"] = float(summary.get("max", 0.0))
        elif metric == "mem_delta_bytes":
            row["mem_delta_bytes"] = float(summary.get("total", 0.0))
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


def render_phase_report(
    snapshot: dict[str, Any],
    analytics: dict[str, dict[str, Any]] | None = None,
) -> str:
    """The human-readable phase table (plus cache analytics when given)."""
    phases = phase_profile(snapshot)
    out = io.StringIO()
    if not phases:
        out.write("(no phase profiles recorded)\n")
    else:
        width = max(len(name) for name in phases)
        width = max(width, len("phase"))
        has_memory = any(
            row["mem_peak_bytes"] is not None for row in phases.values()
        )
        header = (
            f"{'phase':<{width}} {'calls':>7} {'wall s':>9} {'cpu s':>9} "
            f"{'mean ms':>9}"
        )
        if has_memory:
            header += f" {'peak MB':>9} {'delta MB':>9}"
        out.write(header + "\n")
        for name in sorted(
            phases, key=lambda n: -phases[n]["wall_seconds"]
        ):
            row = phases[name]
            line = (
                f"{name:<{width}} {row['calls']:>7.0f} "
                f"{row['wall_seconds']:>9.3f} {row['cpu_seconds']:>9.3f} "
                f"{row['wall_mean_seconds'] * 1e3:>9.3f}"
            )
            if has_memory:
                peak = row["mem_peak_bytes"]
                delta = row["mem_delta_bytes"]
                line += (
                    f" {_mb(peak):>9} {_mb(delta):>9}"
                )
            out.write(line + "\n")
    caches = cache_totals(snapshot)
    if caches:
        out.write("\ncache totals (merged across workers):\n")
        for name in sorted(caches):
            stats = caches[name]
            rate = _hit_rate(stats)
            out.write(
                f"  {name:<20} {stats.get('hits', 0):>10} hits "
                f"{stats.get('misses', 0):>10} misses "
                f"{stats.get('evictions', 0):>8} evictions "
                f"{rate:>7.1%}\n"
            )
    if analytics:
        out.write("\ncache hit-ratio over time:\n")
        for name in sorted(analytics):
            series = analytics[name]["series"]
            if not series:
                continue
            tail = series[-1]
            out.write(
                f"  {name:<20} {len(series)} samples, "
                f"final {tail['hit_rate']:.1%} at t={tail['t']:.2f}s\n"
            )
    return out.getvalue()


def _mb(value: float | None) -> str:
    return "—" if value is None else f"{value / 1e6:.2f}"
