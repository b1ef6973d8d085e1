"""Shared infrastructure for the benchmark harness.

Every benchmark reproduces one table or figure from the paper's §7.  The
absolute numbers differ from the paper (C++ on a 2007 Xeon vs Python on
whatever runs this), but each bench prints the same *rows/series* the paper
reports so the shapes can be compared directly; EXPERIMENTS.md records the
comparison.

Scale is controlled with the ``MUBE_BENCH_SCALE`` environment variable:

* ``smoke``   — seconds-fast sanity scale (CI);
* ``default`` — laptop scale, preserves every trend (the default);
* ``paper``   — the paper's exact parameter grids (§7.1); slow in Python.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core import CharacteristicSpec, Problem, default_weights
from repro.quality import Objective
from repro.run_context import run_scope
from repro.search import OptimizerConfig, TabuSearch
from repro.telemetry import InMemoryExporter, Telemetry
from repro.workload import (
    BooksWorkload,
    DataConfig,
    generate_books_universe,
)
from repro.workload.generator import pick_ga_constraints, pick_source_constraints

MTTF_SPEC = CharacteristicSpec("mttf", "mttf")

#: The paper's constraint settings for Figures 5–7: no constraints; 1, 3
#: and 5 source constraints; 5 source constraints plus 2 GA constraints.
CONSTRAINT_SETTINGS = ("none", "1sc", "3sc", "5sc", "5sc+2ga")


@dataclass(frozen=True)
class BenchScale:
    """One row of the scale table."""

    name: str
    fig5_universe_sizes: tuple[int, ...]
    fig5_choose: int
    fig6_universe_size: int
    fig6_choose: tuple[int, ...]
    iterations: int
    sample_size: int
    data: DataConfig
    pcsa_set_sizes: tuple[int, ...]


SCALES = {
    "smoke": BenchScale(
        name="smoke",
        fig5_universe_sizes=(40, 80),
        fig5_choose=8,
        fig6_universe_size=50,
        fig6_choose=(6, 10),
        iterations=10,
        sample_size=10,
        data=DataConfig.tiny(),
        pcsa_set_sizes=(1_000, 10_000),
    ),
    "default": BenchScale(
        name="default",
        fig5_universe_sizes=(100, 200, 300),
        fig5_choose=10,
        fig6_universe_size=150,
        fig6_choose=(5, 10, 15, 20),
        iterations=25,
        sample_size=16,
        data=DataConfig(),
        pcsa_set_sizes=(1_000, 10_000, 100_000),
    ),
    "paper": BenchScale(
        name="paper",
        # Past the paper's 700-source ceiling: the blocked similarity
        # path (PR 9) keeps matrix construction sub-quadratic, so the
        # reproduction now measures beyond the original experiment.
        fig5_universe_sizes=(100, 200, 300, 400, 500, 600, 700, 1000, 1500),
        fig5_choose=20,
        fig6_universe_size=200,
        fig6_choose=(10, 20, 30, 40, 50),
        iterations=60,
        sample_size=32,
        data=DataConfig.paper_scale(),
        pcsa_set_sizes=(10_000, 100_000, 1_000_000),
    ),
}


def bench_scale() -> BenchScale:
    """The active scale, from ``MUBE_BENCH_SCALE`` (default ``default``)."""
    name = os.environ.get("MUBE_BENCH_SCALE", "default")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"MUBE_BENCH_SCALE must be one of {sorted(SCALES)}, got {name!r}"
        ) from None


@lru_cache(maxsize=16)
def cached_workload(n_sources: int, seed: int = 0) -> BooksWorkload:
    """Generate (once) a Books workload at the active scale's data config."""
    return generate_books_universe(
        n_sources=n_sources, seed=seed, data_config=bench_scale().data
    )


def build_constraints(
    workload: BooksWorkload, setting: str, budget: int, seed: int = 0
):
    """The paper's constraint settings, realized on a workload.

    Constraint counts shrink automatically when the source budget cannot
    hold them (only relevant below paper scale, where m ≥ 10 always fits
    the paper's settings).  Returns ``(source_constraints, ga_constraints)``.
    """
    rng = np.random.default_rng(seed + 1_000)
    if setting == "none":
        return frozenset(), ()
    if setting.endswith("sc") and "+" not in setting:
        count = min(int(setting[:-2]), budget)
        return pick_source_constraints(workload, count, rng), ()
    if setting == "5sc+2ga":
        n_gas = 2
        n_sources = min(5, max(0, budget - 2 * n_gas))
        max_attrs = max(2, min(5, (budget - n_sources) // n_gas))
        sources = pick_source_constraints(workload, n_sources, rng)
        gas = pick_ga_constraints(
            workload, n_gas, rng, max_attributes=max_attrs
        )
        pinned = set(sources) | {
            attr.source_id for ga in gas for attr in ga
        }
        while len(pinned) > budget and max_attrs > 2:
            max_attrs -= 1
            gas = pick_ga_constraints(
                workload, n_gas, rng, max_attributes=max_attrs
            )
            pinned = set(sources) | {
                attr.source_id for ga in gas for attr in ga
            }
        if len(pinned) > budget:
            sources = frozenset()
            pinned = {attr.source_id for ga in gas for attr in ga}
        if len(pinned) > budget:
            raise ValueError(
                f"budget {budget} cannot hold the 5sc+2ga setting"
            )
        return frozenset(sources), gas
    raise ValueError(f"unknown constraint setting {setting!r}")


def build_problem(
    workload: BooksWorkload,
    choose: int,
    setting: str = "none",
    weights=None,
    seed: int = 0,
) -> Problem:
    """A paper-§7.1 problem over a workload."""
    sources, gas = build_constraints(workload, setting, choose, seed=seed)
    return Problem(
        universe=workload.universe,
        weights=weights or default_weights([MTTF_SPEC]),
        source_constraints=sources,
        ga_constraints=gas,
        max_sources=choose,
        theta=0.65,
        characteristic_qefs=(MTTF_SPEC,),
    )


#: Telemetry from the most recent :func:`solve_tabu` run, so a bench can
#: attach its counter snapshot to the pytest-benchmark JSON.
_last_telemetry: Telemetry | None = None


def solve_tabu(problem: Problem, seed: int = 0):
    """One tabu run at the active scale's budgets.

    The ADD candidate list is proportional to the universe (the paper's
    tabu evaluates the full neighborhood; a proportional sample keeps that
    cost *shape* — time grows with |U| — at a constant fraction of the
    price), and the iteration budget grows mildly with the source budget
    so larger m gets a proportionally explored space.

    Every run carries a live tracer with an in-memory exporter; fetch the
    resulting counters with :func:`last_counters` / attach them to the
    benchmark JSON with :func:`record_counters`.

    Returns ``(result, objective)``.
    """
    global _last_telemetry
    scale = bench_scale()
    telemetry = Telemetry(exporters=[InMemoryExporter()])
    _last_telemetry = telemetry
    with run_scope(telemetry=telemetry):
        objective = Objective(problem)
        sample = max(scale.sample_size, round(0.12 * len(problem.universe)))
        iterations = scale.iterations + problem.max_sources
        config = OptimizerConfig(
            max_iterations=iterations,
            patience=max(8, iterations // 2),
            sample_size=sample,
            seed=seed,
        )
        result = TabuSearch(config).optimize(objective)
    telemetry.close()
    return result, objective


def last_counters() -> dict[str, int]:
    """Counter snapshot from the most recent :func:`solve_tabu` run."""
    if _last_telemetry is None:
        return {}
    return dict(_last_telemetry.metrics.snapshot()["counters"])


def last_counter(name: str, default: int = 0) -> int:
    """One counter from the most recent :func:`solve_tabu` run."""
    if _last_telemetry is None:
        return default
    return _last_telemetry.metrics.counter_value(name, default)


def record_counters(benchmark) -> None:
    """Attach the last run's counters to a benchmark's ``extra_info``.

    The counters then ride along in ``--benchmark-json`` output, so every
    ``BENCH_*.json`` carries cache hit rates, clustering merge counts and
    sketch merges alongside its timings.
    """
    benchmark.extra_info["counters"] = last_counters()


def emphasized_weights(focus: str, weight: float) -> dict[str, float]:
    """Figure-8 weights: ``focus`` gets ``weight``, the rest split equally."""
    names = ("matching", "cardinality", "coverage", "redundancy", "mttf")
    others = (1.0 - weight) / (len(names) - 1)
    weights = {name: others for name in names}
    weights[focus] = weight
    return weights
