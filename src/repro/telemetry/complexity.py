"""Empirical complexity probes: measure phase cost growth across scales.

``mube profile --scale N1,N2,...`` runs the full solve pipeline at
increasing universe sizes under an enabled :class:`PhaseProfiler`, fits
a log-log slope per phase (the empirical exponent: 1.0 reads "linear in
universe size", 2.0 "quadratic"), and emits a ``PROFILE_*.json``
document that ``benchmarks/track.py`` ingests into the same
rolling-median history and regression gate as the ``BENCH_*.json``
reports — so a phase whose exponent creeps up fails CI, not a code
review six months later.

The document's ``metrics`` map is the flat, gate-ready view: one float
per key (``<phase>.slope`` and ``<phase>.wall_seconds`` at the largest
scale).  Everything else is context for humans reading the artifact.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Any

from ..run_context import run_scope
from .exporters import InMemoryExporter
from .profiler import PhaseProfiler, phase_profile
from .tracer import Telemetry

#: Schema marker for PROFILE_*.json documents.
PROFILE_KIND = "mube-profile"

#: Current document schema version.
PROFILE_VERSION = 1


@dataclass
class ProfileConfig:
    """One complexity-probe run's knobs."""

    scales: tuple[int, ...] = (40, 80, 160)
    choose: int = 8
    iterations: int = 30
    optimizer: str = "tabu"
    seed: int = 0
    theta: float = 0.65
    jobs: int | None = None
    memory: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "scales": list(self.scales),
            "choose": self.choose,
            "iterations": self.iterations,
            "optimizer": self.optimizer,
            "seed": self.seed,
            "theta": self.theta,
            "jobs": self.jobs,
            "memory": self.memory,
        }


@dataclass
class LogLogFit:
    """Least-squares fit of ``log(seconds)`` against ``log(scale)``."""

    slope: float
    intercept: float
    r_squared: float
    points: int = 0

    def to_dict(self) -> dict[str, float]:
        return {
            "slope": round(self.slope, 4),
            "intercept": round(self.intercept, 4),
            "r_squared": round(self.r_squared, 4),
            "points": self.points,
        }


@dataclass
class ScaleRun:
    """Measured costs of one pipeline run at one universe size."""

    scale: int
    phases: dict[str, dict[str, float | None]]
    caches: dict[str, dict[str, Any]] = field(default_factory=dict)


def fit_loglog(
    xs: list[float], ys: list[float]
) -> LogLogFit | None:
    """Fit ``log y = slope * log x + intercept`` (None under 2 points).

    Non-positive observations cannot be logged; they are floored to a
    nanosecond, which keeps near-zero phases (a cache-hit-only phase at
    small scale, say) from dropping out of the fit entirely.
    """
    pairs = [
        (math.log(x), math.log(max(y, 1e-9)))
        for x, y in zip(xs, ys)
        if x > 0
    ]
    if len(pairs) < 2 or len({p[0] for p in pairs}) < 2:
        return None
    n = len(pairs)
    mean_x = sum(p[0] for p in pairs) / n
    mean_y = sum(p[1] for p in pairs) / n
    var_x = sum((p[0] - mean_x) ** 2 for p in pairs)
    cov = sum((p[0] - mean_x) * (p[1] - mean_y) for p in pairs)
    slope = cov / var_x
    intercept = mean_y - slope * mean_x
    ss_tot = sum((p[1] - mean_y) ** 2 for p in pairs)
    ss_res = sum(
        (p[1] - (slope * p[0] + intercept)) ** 2 for p in pairs
    )
    r_squared = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return LogLogFit(slope, intercept, r_squared, points=n)


def measure_scale(config: ProfileConfig, scale: int) -> ScaleRun:
    """Run the pipeline once at one universe size, fully profiled."""
    from ..core import CharacteristicSpec, default_weights
    from ..search import OptimizerConfig
    from ..session import Session
    from ..workload import generate_books_universe

    workload = generate_books_universe(
        n_sources=scale, seed=config.seed
    )
    spec = CharacteristicSpec("mttf", "mttf")
    telemetry = Telemetry(exporters=[InMemoryExporter()])
    profiler = PhaseProfiler(memory=config.memory)
    with run_scope(telemetry=telemetry, profiler=profiler), profiler:
        session = Session(
            workload.universe,
            max_sources=min(config.choose, scale),
            theta=config.theta,
            weights=default_weights([spec]),
            characteristic_qefs=[spec],
            optimizer=config.optimizer,
            optimizer_config=OptimizerConfig(
                max_iterations=config.iterations, seed=config.seed
            ),
            record_runs=False,
        )
        session.solve(jobs=config.jobs)
        analytics = profiler.cache_analytics()
    telemetry.close()
    snapshot = telemetry.metrics.snapshot()
    return ScaleRun(
        scale=scale, phases=phase_profile(snapshot), caches=analytics
    )


def run_profile(config: ProfileConfig) -> dict[str, Any]:
    """Probe every configured scale and assemble the PROFILE document."""
    runs = [measure_scale(config, scale) for scale in config.scales]
    phase_names = sorted({name for run in runs for name in run.phases})
    phases: dict[str, Any] = {}
    metrics: dict[str, float] = {}
    for name in phase_names:
        wall_by_scale: dict[str, float] = {}
        cpu_by_scale: dict[str, float] = {}
        calls_by_scale: dict[str, float] = {}
        xs: list[float] = []
        ys: list[float] = []
        for run in runs:
            row = run.phases.get(name)
            if row is None:
                continue
            wall_by_scale[str(run.scale)] = round(row["wall_seconds"], 6)
            cpu_by_scale[str(run.scale)] = round(row["cpu_seconds"], 6)
            calls_by_scale[str(run.scale)] = row["calls"]
            xs.append(float(run.scale))
            ys.append(row["wall_seconds"])
        fit = fit_loglog(xs, ys)
        entry: dict[str, Any] = {
            "wall_seconds": wall_by_scale,
            "cpu_seconds": cpu_by_scale,
            "calls": calls_by_scale,
            "fit": fit.to_dict() if fit else None,
        }
        phases[name] = entry
        if fit is not None:
            metrics[f"{name}.slope"] = round(fit.slope, 4)
        if ys:
            metrics[f"{name}.wall_seconds"] = round(ys[-1], 6)
    return {
        "kind": PROFILE_KIND,
        "version": PROFILE_VERSION,
        "config": config.to_dict(),
        "scales": list(config.scales),
        "phases": phases,
        "caches": runs[-1].caches if runs else {},
        "metrics": metrics,
    }


def render_profile_report(document: dict[str, Any]) -> str:
    """The ``mube profile`` table: seconds per scale, slope, fit quality."""
    out = io.StringIO()
    scales = [str(s) for s in document.get("scales", [])]
    phases = document.get("phases", {})
    if not phases:
        return "(no phases profiled)\n"
    width = max(len(name) for name in phases)
    width = max(width, len("phase"))
    header = f"{'phase':<{width}}"
    for scale in scales:
        header += f" {scale + 's':>10}"
    header += f" {'slope':>7} {'r²':>6}"
    out.write(header + "\n")
    def largest_wall(name: str) -> float:
        walls = phases[name].get("wall_seconds", {})
        return walls.get(scales[-1], 0.0) if scales else 0.0
    for name in sorted(phases, key=lambda n: -largest_wall(n)):
        entry = phases[name]
        line = f"{name:<{width}}"
        for scale in scales:
            wall = entry.get("wall_seconds", {}).get(scale)
            line += f" {wall:>10.4f}" if wall is not None else f" {'—':>10}"
        fit = entry.get("fit")
        if fit:
            line += f" {fit['slope']:>7.2f} {fit['r_squared']:>6.2f}"
        else:
            line += f" {'—':>7} {'—':>6}"
        out.write(line + "\n")
    caches = document.get("caches", {})
    if caches:
        out.write("\ncache analytics at the largest scale:\n")
        for name in sorted(caches):
            final = caches[name].get("final", {})
            series = caches[name].get("series", [])
            out.write(
                f"  {name:<20} hit rate {final.get('hit_rate', 0.0):.1%} "
                f"({final.get('hits', 0)}h/{final.get('misses', 0)}m, "
                f"{len(series)} samples)\n"
            )
    return out.getvalue()
